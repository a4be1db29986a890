"""Acceptance gate: ten numbered end-to-end and oracle criteria.

Each criterion is one test, so a verbose pytest run prints exactly one
pass/fail line per criterion. Oracles here are written independently of
the library code they check (pair-counting AUC, naive average-linkage
clustering, eigendecomposition PCA, grid-search thresholds).

Criteria 6 to 9 share one desk-scale pipeline run (3 seeds, 5 folds,
10 hyperparameter draws, logistic + MLP) on a 7000-row recidivism table.
A file at data/compas.csv is used when present; otherwise the calibrated
synthetic stand-in with the same columns and disparity directions is
generated. The run must finish inside 10 minutes on one core.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fairlens import METRIC_NAMES
from fairlens.cli import audit_external_predictions, main
from fairlens.cluster import condensed_index, cut_clusters
from fairlens.metrics import (confusion_at_threshold, balanced_accuracy,
                              mann_whitney_auc, metric_table,
                              select_threshold)
from fairlens.pca import fit_pca
from fairlens.rand import Stream
from fairlens.report import load_bundle
from synth import write_recidivism_csv

REPO = Path(__file__).resolve().parent.parent
COMPLEMENT_PAIRS = (("TPR", "FNR"), ("TNR", "FPR"),
                    ("PPV", "FDR"), ("NPV", "FOR"))


def row_index(rec, model, group):
    """The row of (model, group) in the cell record rec's matrix."""
    return rec["rows"].index(f"{model}:{group}")


def check_complement_variances(rec, tol):
    """Names of complement pairs whose column variances in the cell
    record rec differ beyond tol."""
    var = dict(zip(METRIC_NAMES, rec["column_variances"]))
    return [f"{a}/{b}" for a, b in COMPLEMENT_PAIRS
            if abs(var[a] - var[b]) > tol]


# -- shared end-to-end run (criteria 6, 7, 8) --------------------------------

@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    compas = REPO / "data" / "compas.csv"
    if compas.exists():
        csv_path = compas
        name = "compas"
    else:
        csv_path = root / "recidivism.csv"
        write_recidivism_csv(csv_path, n_rows=7000, seed=0)
        name = "recidivism-standin"
    spec = {
        "name": name,
        "source_path": str(csv_path),
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
    spec_path = root / "dataset.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = root / "out"
    started = time.perf_counter()
    code = main(["run", "--datasets", str(spec_path), "--seeds", "3",
                 "--folds", "5", "--search-draws", "10",
                 "--models", "logit,mlp", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0, "desk-scale run reported failed cells"
    return load_bundle(out / "bundle.json"), out, elapsed, name


def iter_matrices(bundle):
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                yield ds, feat, rec, np.asarray(rec["values"],
                                                dtype=np.float64)


# -- criterion 1: metric identities on random counts -------------------------

def test_criterion_01_metric_identities_hold_on_random_counts():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    idx = {n: j for j, n in enumerate(METRIC_NAMES)}
    # one batch of 1000 count rows; every 50th is an all-zero (empty) group
    tp, fp, tn, fn = rng.integers(0, 200, size=(4, 1000))
    for c in (tp, fp, tn, fn):
        c[::50] = 0
    n_g = tp + fp + tn + fn
    n_total = int(n_g.max()) + int(rng.integers(0, 500))
    values, flags = metric_table(tp, fp, tn, fn, np.full(n_g.size, 0.5),
                                 np.zeros(n_g.size, dtype=bool), n_total)
    empty = n_g == 0
    assert flags[empty].all()
    assert np.all(values[empty][:, idx["AUC"]] == 0.5)
    assert np.all(np.delete(values[empty], idx["AUC"], axis=1) == 0.0)
    v, f, n_g = values[~empty], flags[~empty], n_g[~empty]
    tp, fp, tn = tp[~empty], fp[~empty], tn[~empty]
    for a, b in COMPLEMENT_PAIRS:
        ja, jb = idx[a], idx[b]
        ok = ~(f[:, ja] | f[:, jb])
        assert np.all(np.abs(v[ok, ja] + v[ok, jb] - 1.0) < 1e-12)
    assert np.all(np.abs(v[:, idx["A"]] - (tp + tn) / n_g) < 1e-12)
    ok = ~f[:, idx["BA"]]
    assert np.all(np.abs(v[ok, idx["BA"]]
                         - (v[ok, idx["TPR"]] + v[ok, idx["TNR"]]) / 2.0)
                  < 1e-12)
    assert np.all(np.abs(v[:, idx["PPR"]] * n_total - (tp + fp)) < 1e-12)
    assert np.all(np.abs(v[:, idx["PPREV"]] * n_g - (tp + fp)) < 1e-12)
    assert np.all(np.abs(v[:, idx["PPR"]] * n_total
                         - v[:, idx["PPREV"]] * n_g) < 1e-12)
    checked = int(n_g.size)
    elapsed = time.perf_counter() - started
    assert checked > 900
    assert elapsed < 1.0, f"identity sweep took {elapsed:.2f}s"


# -- criterion 2: AUC against a pair-counting oracle -------------------------

def pair_counting_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        wins += int(np.sum(p > neg))
        ties += int(np.sum(p == neg))
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_02_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(10, 501))
        # coarse grid forces heavy ties; occasional continuous scores
        if trial % 3 == 0:
            scores = rng.uniform(size=n)
        else:
            scores = rng.integers(0, 12, size=n) / 11.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = mann_whitney_auc(scores, labels)
        want = pair_counting_auc(scores, labels)
        assert abs(got - want) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"AUC oracle sweep took {elapsed:.2f}s"


# -- criterion 3: clustering against a naive average-linkage oracle ----------

def naive_upgma_cophenetic(dist):
    """O(n^3) average linkage; returns the cophenetic distance matrix."""
    n = dist.shape[0]
    clusters = {i: [i] for i in range(n)}
    coph = np.zeros((n, n))
    while len(clusters) > 1:
        keys = sorted(clusters)
        best = None
        for ai, a in enumerate(keys):
            for b in keys[ai + 1:]:
                d = np.mean([dist[i, j] for i in clusters[a]
                             for j in clusters[b]])
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        for i in clusters[a]:
            for j in clusters[b]:
                coph[i, j] = coph[j, i] = d
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return coph


def cophenetic_from_linkage(merges):
    n = len(merges) + 1
    members = {i: [i] for i in range(n)}
    coph = np.zeros((n, n))
    for node, (left, right, height, _size) in enumerate(merges, start=n):
        for i in members[left]:
            for j in members[right]:
                coph[i, j] = coph[j, i] = height
        members[node] = members[left] + members[right]
    return coph


def test_criterion_03_upgma_matches_naive_oracle():
    from fairlens.cluster import DistanceVector, upgma

    rng = np.random.default_rng(103)
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(3, 13))
        full = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        full[iu] = rng.uniform(0.05, 2.0, size=len(iu[0]))
        full += full.T
        condensed = np.array([full[i, j] for i in range(n)
                              for j in range(i + 1, n)])
        labels = tuple(f"x{i}" for i in range(n))
        merges = upgma(DistanceVector(axis="columns", condensed=condensed,
                                      labels=labels))
        got = cophenetic_from_linkage(merges)
        want = naive_upgma_cophenetic(full)
        assert np.max(np.abs(got - want)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"UPGMA oracle sweep took {elapsed:.2f}s"


# -- criterion 4: PCA against an eigendecomposition oracle -------------------

def test_criterion_04_pca_matches_eigendecomposition():
    rng = np.random.default_rng(104)
    started = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(3, 11))
        j = 13
        X = rng.normal(size=(n, j))
        k = int(rng.integers(1, min(n - 1, 3) + 1))
        model = fit_pca(X, k)
        centered = X - X.mean(axis=0)
        scatter = centered.T @ centered
        evals, evecs = np.linalg.eigh(scatter)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        want_ratios = evals[:k] / evals.sum()
        assert np.max(np.abs(model.explained_variance_ratios
                             - want_ratios)) < 1e-9
        for c in range(k):
            got = model.eigenvectors[c]
            want = evecs[:, c]
            # eigenvectors are sign-ambiguous; compare up to orientation
            align = np.sign(np.dot(got, want)) or 1.0
            assert np.max(np.abs(got - align * want)) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"PCA oracle sweep took {elapsed:.2f}s"


# -- criterion 5: threshold choice against a dense grid ----------------------

def grid_best_ba(scores, labels, grid):
    """Brute-force best balanced accuracy over a dense threshold grid.

    Same inclusive decision rule (score >= t is positive), evaluated for
    every grid point at once.
    """
    pos = labels == 1
    pred = scores[None, :] >= grid[:, None]
    tp = (pred & pos).sum(axis=1)
    fn = (~pred & pos).sum(axis=1)
    tn = (~pred & ~pos).sum(axis=1)
    fp = (pred & ~pos).sum(axis=1)
    tpr = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    tnr = np.where(tn + fp > 0, tn / np.maximum(tn + fp, 1), 0.0)
    return float(np.max((tpr + tnr) / 2.0))


def test_criterion_05_threshold_beats_dense_grid():
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10001)
    for _ in range(200):
        n = int(rng.integers(8, 120))
        scores = np.round(rng.uniform(size=n), 3)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        choice = select_threshold(scores, labels)
        achieved = balanced_accuracy(
            confusion_at_threshold(scores, labels, choice.t_max))
        assert abs(achieved - choice.achieved_ba) < 1e-12
        assert choice.achieved_ba >= grid_best_ba(scores, labels, grid) - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"threshold sweep took {elapsed:.2f}s"


# -- criterion 6: complement variances in the end-to-end run -----------------

def test_criterion_06_complement_variances_equal_in_e2e(desk_run):
    bundle, _out, _elapsed, _name = desk_run
    checked = 0
    for _ds, _feat, rec, _values in iter_matrices(bundle):
        assert check_complement_variances(rec, tol=1e-12) == []
        checked += 1
    assert checked == 6  # 2 features x 3 seeds


# -- criterion 7: end-to-end findings on the recidivism table ----------------

def test_criterion_07_recidivism_findings(desk_run):
    bundle, out, elapsed, _name = desk_run
    assert elapsed < 600.0, f"desk-scale run took {elapsed:.0f}s"

    for ds, feat, rec, values in iter_matrices(bundle):
        if feat["name"] != "race":
            continue
        names = list(METRIC_NAMES)

        # the two-cluster metric cut splits every complement pair and
        # keeps the three headline accuracy metrics together
        flat = cut_clusters(rec["col_linkage"], 2)
        by_name = {n: int(flat[j]) for j, n in enumerate(names)}
        for a, b in COMPLEMENT_PAIRS:
            assert by_name[a] != by_name[b], f"seed {rec['seed']}: {a}/{b}"
        assert by_name["AUC"] == by_name["A"] == by_name["BA"], \
            f"seed {rec['seed']}: accuracy metrics split"

        # the punitive-direction disparities survive training end to end
        tpr_aa = values[row_index(rec, "logit", "African-American"),
                        names.index("TPR")]
        tpr_c = values[row_index(rec, "logit", "Caucasian"),
                       names.index("TPR")]
        pprev_aa = values[row_index(rec, "logit", "African-American"),
                          names.index("PPREV")]
        pprev_c = values[row_index(rec, "logit", "Caucasian"),
                         names.index("PPREV")]
        assert tpr_aa > tpr_c, f"seed {rec['seed']}: TPR direction"
        assert pprev_aa > pprev_c, f"seed {rec['seed']}: PPREV direction"

        # two components carry most of the full matrix's variance
        assert sum(rec["full_pca_ratios"][:2]) >= 0.85

        cell = out / ds["name"] / "race" / f"seed{rec['seed']}"
        assert (cell / "clustermap.svg").exists()
        assert (cell / "pca.svg").exists()


# -- criterion 8: robustness of the metric geometry across seeds -------------

def test_criterion_08_robustness_summary(desk_run):
    bundle, _out, _elapsed, name = desk_run
    rob = bundle["robustness"]
    assert rob is not None
    assert rob["conditions"] == [[name, "race"], [name, "sex"]]
    assert rob["n_seeds"] == 3
    mean = np.array(rob["mean"])
    std = np.array(rob["std"])
    assert np.allclose(mean, mean.T, atol=1e-12)
    assert np.allclose(np.diag(mean), 1.0, atol=1e-12)
    assert np.all(np.abs(mean) <= 1.0 + 1e-12)
    assert np.all(std < 0.3), f"max std {std.max():.3f}"


# -- criterion 9: byte-identical reruns --------------------------------------

def test_criterion_09_reruns_are_byte_identical(tmp_path):
    csv_path = tmp_path / "r.csv"
    write_recidivism_csv(csv_path, n_rows=1200, seed=9)
    spec = {
        "name": "rerun",
        "source_path": "r.csv",
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
    spec_path = tmp_path / "rerun.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    args = ["run", "--datasets", str(spec_path), "--seeds", "2",
            "--folds", "3", "--search-draws", "3", "--models", "logit,nb"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a_files = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert any(p.name == "bundle.json" for p in a_files)
    assert any(p.suffix == ".svg" for p in a_files)
    for p in a_files:
        q = tmp_path / "b" / p.relative_to(tmp_path / "a")
        assert q.read_bytes() == p.read_bytes(), f"{p.name} differs"


# -- criterion 10: audit mode reproduces exact rates -------------------------

def test_criterion_10_audit_mode_exact_rates(tmp_path):
    import csv

    path = tmp_path / "external.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_true", "y_score", "grp"])
        # group A: TPR 9/10, FPR 1/10; group B: TPR 6/10, FPR 3/10
        for g, n_pos, n_neg, tpr, fpr in (("A", 200, 200, 0.9, 0.1),
                                          ("B", 100, 300, 0.6, 0.3)):
            for i in range(n_pos):
                w.writerow([1, 0.8 if i < round(tpr * n_pos) else 0.2, g])
            for i in range(n_neg):
                w.writerow([0, 0.8 if i < round(fpr * n_neg) else 0.2, g])

    bundle, failures = audit_external_predictions(
        [("ext", str(path))], ["grp"], threshold=0.5)
    assert failures == []
    rec = bundle["datasets"][0]["features"][0]["results"][0]
    values = np.asarray(rec["values"], dtype=np.float64)
    names = list(METRIC_NAMES)

    want = {
        ("A", "TPR"): 0.9, ("A", "FPR"): 0.1, ("A", "FNR"): 0.1,
        ("A", "TNR"): 0.9, ("B", "TPR"): 0.6, ("B", "FPR"): 0.3,
        ("B", "FNR"): 0.4, ("B", "TNR"): 0.7,
        ("A", "PPREV"): (180 + 20) / 400, ("B", "PPREV"): (60 + 90) / 400,
        ("A", "PPR"): 200 / 800, ("B", "PPR"): 150 / 800,
    }
    for (g, metric), expected in want.items():
        got = values[row_index(rec, "ext", g), names.index(metric)]
        assert abs(got - expected) < 1e-12, (g, metric, got, expected)

    tpr = names.index("TPR")
    ratio = (values[row_index(rec, "ext", "B"), tpr]
             / values[row_index(rec, "ext", "A"), tpr])
    assert abs(ratio - 2.0 / 3.0) < 1e-12
