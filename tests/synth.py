"""Synthetic stand-in datasets for self-contained pipeline runs.

This test helper wrote the committed data/recidivism_standin.csv
(n_rows=7000, seed=0); from the repository root,

    PYTHONPATH=src python3 tests/synth.py data/recidivism_standin.csv

writes it again byte for byte (tests/test_synth.py checks this).

The recidivism generator mimics the shape of a two-year felony screening
table: five race groups with realistic size imbalance, a skewed sex
column, count-like criminal-history features, and a binary label whose
base rate differs across groups. Two group-level factors shape the
audit's geometry the way real screening data does: base rates (which
drive the directional disparities at a shared threshold, higher TPR and
predicted prevalence for the highest-base-rate group) and signal gain
(how cleanly the features separate the classes within a group, which
moves AUC, accuracy, and balanced accuracy together across groups).
Real source data, where available, should always be preferred; point
the dataset config at it instead.

Deterministic: byte-identical output for a given (n_rows, seed).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from fairlens.rand import Stream

RECID_COLUMNS = (
    "age",
    "sex",
    "race",
    "juv_fel_count",
    "priors_count",
    "c_charge_degree",
    "two_year_recid",
)

# label, population share, latent risk shift, mean priors scale, signal gain
_RACE_MIX = (
    ("African-American", 0.514, 0.42, 2.6, 1.00),
    ("Caucasian", 0.340, -0.22, 1.7, 0.90),
    ("Hispanic", 0.088, -0.52, 1.5, 1.45),
    ("Other", 0.050, -0.80, 1.4, 1.80),
    ("Native American", 0.008, 0.10, 2.1, 0.60),
)

_BASE_INTERCEPT = -0.95


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def recidivism_rows(n_rows: int, seed: int) -> list[tuple]:
    """Generate n_rows of (age, sex, race, juv, priors, degree, label)."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    s = Stream("synth", "recidivism", seed)
    rows = []
    for _ in range(n_rows):
        u = s.uniform()
        acc = 0.0
        race, shift, priors_scale, gain = (_RACE_MIX[-1][0], _RACE_MIX[-1][2],
                                           _RACE_MIX[-1][3], _RACE_MIX[-1][4])
        for label, share, sh, sc, gn in _RACE_MIX:
            acc += share
            if u < acc:
                race, shift, priors_scale, gain = label, sh, sc, gn
                break
        sex = "M" if s.uniform() < 0.81 else "F"
        age = 18 + int(52 * s.uniform() ** 2)  # skewed young
        juv = int(-0.4 * math.log(s.uniform()))
        priors = min(38, int(-priors_scale * math.log(s.uniform())))
        degree = "F" if s.uniform() < 0.64 else "M"

        # gain scales only the feature signal, so it sets separability;
        # shift then re-centers the group's base rate
        signal = (
            0.15 * priors
            + 0.45 * juv
            - 0.042 * (age - 33)
            + 0.26 * (degree == "F")
            + 0.22 * (sex == "M")
        )
        risk = _BASE_INTERCEPT + shift + gain * signal
        label = int(s.uniform() < _sigmoid(risk))
        rows.append((age, sex, race, juv, priors, degree, label))
    return rows


def write_recidivism_csv(path: str | Path, n_rows: int = 7000,
                         seed: int = 0) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECID_COLUMNS)
        writer.writerows(recidivism_rows(n_rows, seed))
    return path


if __name__ == "__main__":
    import sys

    out = sys.argv[1] if len(sys.argv) > 1 else "data/recidivism_standin.csv"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 7000
    print(write_recidivism_csv(out, n_rows=n))
