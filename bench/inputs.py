"""Seeded input generation for the benchmark workloads.

The benchmark owns its inputs: they come from numpy's PCG64 generator keyed
by the benchmark seed, not from the program's own synthetic-data module, so
a change to the program cannot change what the benchmark feeds it.

- recidivism stand-in: the column layout of the shipped
  `configs/recidivism_standin.json` (age, sex, race, juv_fel_count,
  priors_count, c_charge_degree, two_year_recid) with five race groups of
  unequal size and group-dependent base rates and separability, so every
  trained model ranks rows better than chance.
- audit prediction files: one CSV per model with y_true, y_score, a
  5-group and a 2-group protected column and a 0/1 validation column.
  Every file shares y_true, the group columns and the validation column,
  as `fairlens audit` requires. Scores carry four decimals, so a validation
  slice has at most 10001 distinct scores and ties occur, as they do in
  scores exported from real models.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RECID_COLUMNS = ("age", "sex", "race", "juv_fel_count", "priors_count",
                 "c_charge_degree", "two_year_recid")

# label, population share, base-rate shift, priors scale, signal gain
RACE_MIX = (
    ("African-American", 0.514, 0.42, 2.6, 1.00),
    ("Caucasian", 0.340, -0.22, 1.7, 0.90),
    ("Hispanic", 0.088, -0.52, 1.5, 1.45),
    ("Other", 0.050, -0.80, 1.4, 1.80),
    ("Native American", 0.008, 0.10, 2.1, 0.60),
)

# audit groups: label, share, base rate, score separation
AUDIT_GROUPS = (
    ("g-large", 0.40, 0.45, 1.6),
    ("g-mid", 0.25, 0.35, 1.3),
    ("g-small", 0.18, 0.30, 1.9),
    ("g-tiny", 0.12, 0.50, 1.0),
    ("g-rare", 0.05, 0.25, 2.2),
)
AUDIT_MODELS = (("vendor", 1.0), ("inhouse", 0.7))  # name, signal scale
AUDIT_FEATURES = ("cohort", "sex")
VALIDATION_COLUMN = "is_val"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def recidivism_table(n_rows: int, seed: int) -> list[tuple]:
    """Rows of the recidivism stand-in; same (n_rows, seed), same rows."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    shares = np.array([r[1] for r in RACE_MIX])
    race = rng.choice(len(RACE_MIX), size=n_rows, p=shares / shares.sum())
    # every group must occur, or the protected feature loses a level
    race[:len(RACE_MIX)] = np.arange(len(RACE_MIX))
    shift = np.array([r[2] for r in RACE_MIX])[race]
    scale = np.array([r[3] for r in RACE_MIX])[race]
    gain = np.array([r[4] for r in RACE_MIX])[race]
    male = rng.random(n_rows) < 0.81
    age = 18 + np.floor(52 * rng.random(n_rows) ** 2).astype(np.int64)
    juv = np.floor(rng.exponential(0.4, n_rows)).astype(np.int64)
    priors = np.minimum(38, np.floor(rng.exponential(scale))).astype(np.int64)
    felony = rng.random(n_rows) < 0.64
    signal = (0.15 * priors + 0.45 * juv - 0.042 * (age - 33)
              + 0.26 * felony + 0.22 * male)
    label = (rng.random(n_rows) < _sigmoid(-0.95 + shift + gain * signal))
    label[:2] = (False, True)  # both classes present
    return [(int(age[i]), "M" if male[i] else "F", RACE_MIX[race[i]][0],
             int(juv[i]), int(priors[i]), "F" if felony[i] else "M",
             int(label[i])) for i in range(n_rows)]


def write_recidivism(work: Path, n_rows: int, seed: int) -> Path:
    """Write the CSV and its dataset spec under work; return the spec path."""
    work.mkdir(parents=True, exist_ok=True)
    lines = [",".join(RECID_COLUMNS)]
    lines += [",".join(str(v) for v in row)
              for row in recidivism_table(n_rows, seed)]
    (work / "recidivism.csv").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    spec = {
        "name": "recidivism-bench",
        "source_path": "recidivism.csv",
        "label_column": "two_year_recid",
        "positive_value": "1",
        "positive_meaning": "punitive",
        "protected_features": ["race", "sex"],
        "columns": [
            {"name": "age", "kind": "numeric"},
            {"name": "sex", "kind": "binary"},
            {"name": "race", "kind": "categorical"},
            {"name": "juv_fel_count", "kind": "numeric"},
            {"name": "priors_count", "kind": "numeric"},
            {"name": "c_charge_degree", "kind": "binary"},
            {"name": "two_year_recid", "kind": "binary", "role": "label"},
        ],
    }
    path = work / "recidivism.json"
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path


class AuditInputs:
    """The arrays behind the audit prediction files, kept for the checks."""

    def __init__(self, n_rows: int, seed: int, validation_share: float):
        rng = np.random.Generator(np.random.PCG64([seed, 2]))
        shares = np.array([g[1] for g in AUDIT_GROUPS])
        cohort = rng.choice(len(AUDIT_GROUPS), size=n_rows,
                            p=shares / shares.sum())
        cohort[:len(AUDIT_GROUPS)] = np.arange(len(AUDIT_GROUPS))
        base = np.array([g[2] for g in AUDIT_GROUPS])[cohort]
        sep = np.array([g[3] for g in AUDIT_GROUPS])[cohort]
        self.y = (rng.random(n_rows) < base).astype(np.int64)
        self.y[:2] = (0, 1)
        self.cohort = np.array([g[0] for g in AUDIT_GROUPS])[cohort]
        self.sex = np.where(rng.random(n_rows) < 0.55, "M", "F")
        self.sex[:2] = ("M", "F")
        self.val = rng.random(n_rows) < validation_share
        self.val[:4] = (True, True, False, False)
        self.scores: dict[str, np.ndarray] = {}
        for name, strength in AUDIT_MODELS:
            z = strength * sep * (self.y - 0.5) + rng.normal(0.0, 1.0, n_rows)
            self.scores[name] = np.round(_sigmoid(z), 4)

    def groups(self, feature: str) -> np.ndarray:
        return {"cohort": self.cohort, "sex": self.sex}[feature]

    def write(self, work: Path) -> list[tuple[str, Path]]:
        """One CSV per model; returns (model name, path) pairs."""
        work.mkdir(parents=True, exist_ok=True)
        fixed = [f"{a},{b},{c},{int(d)}" for a, b, c, d in
                 zip(self.y, self.cohort, self.sex, self.val)]
        header = ",".join(("y_true", *AUDIT_FEATURES, VALIDATION_COLUMN,
                           "y_score"))
        out = []
        for name, _ in AUDIT_MODELS:
            path = work / f"pred_{name}.csv"
            # repr round-trips, so the program parses exactly these floats
            body = [f"{row},{s!r}" for row, s in
                    zip(fixed, self.scores[name].tolist())]
            path.write_text(header + "\n" + "\n".join(body) + "\n",
                            encoding="utf-8")
            out.append((name, path))
        return out
