"""Tests of the benchmark's own checks and tracer.

Run from the repository root:

    python3 -m pytest bench/test_bench.py

Each output check must pass on a real bundle and fail on a deliberately
perturbed one; the traced run must report every per-layer metric that
BENCHMARK.json lists.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every model kind, two draws so nb's identical draws are deduplicated
SMALL_RUN = run.Workload("small-run", "run", 600, "logit,mlp,knn,rf,tree,nb",
                         folds=2, draws=2)
SMALL_AUDIT = run.Workload("small-audit", "audit", 3000, validation_share=0.3)


def _traced_round(tmp: Path, workload: run.Workload):
    prepared = run.prepare(workload, 5, tmp / "inputs")
    return prepared, run.run_round(SRC, tmp / "round", prepared.argv,
                                   traced=True)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    return _traced_round(tmp_path_factory.mktemp("run"), SMALL_RUN)


@pytest.fixture(scope="module")
def small_audit(tmp_path_factory):
    return _traced_round(tmp_path_factory.mktemp("audit"), SMALL_AUDIT)


def _col(name):
    return checks.METRICS.index(name)


def _first_row(rec, *names):
    """Index of the first row where none of the named metrics is flagged."""
    for r, flags in enumerate(rec["flags"]):
        if not any(flags[_col(n)] for n in names):
            return r
    raise AssertionError(f"every row flags one of {names}")


def _perturb_complement(b):
    rec = b["datasets"][0]["features"][0]["results"][0]
    rec["values"][_first_row(rec, "TPR", "FNR")][_col("FNR")] += 0.01


def _perturb_ba(b):
    row = b["datasets"][0]["features"][0]["results"][0]["values"][0]
    row[_col("BA")] = math.nextafter(row[_col("BA")], 2.0)


def _perturb_ppr(b):
    row = b["datasets"][0]["features"][0]["results"][0]["values"][0]
    row[_col("PPR")] += 0.001


def _perturb_distance(b):
    rec = b["datasets"][0]["features"][0]["results"][0]
    degenerate = {tuple(p) for p in rec["col_distance"]["degenerate_pairs"]}
    n = len(checks.METRICS)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = next(k for k, p in enumerate(pairs) if p not in degenerate)
    rec["col_distance"]["condensed"][pos] += 0.01


def _perturb_upgma(b):
    link = b["datasets"][0]["features"][0]["results"][0]["col_linkage"]
    link[-1][2] = link[-2][2] - 0.01


def _perturb_pca_range(b):
    b["datasets"][0]["features"][0]["results"][0]["full_pca_ratios"][0] = 1.5


def _perturb_pca_order(b):
    rec = b["datasets"][0]["features"][0]["results"][0]
    rec["full_pca_ratios"] = rec["full_pca_ratios"][::-1]


def _perturb_pca_sum(b):
    rec = b["datasets"][0]["features"][0]["results"][0]
    rec["full_pca_ratios"] = [0.9] * len(rec["full_pca_ratios"])


def _perturb_winner_auc(b):
    b["training"][0]["pooled_test_auc"] = 0.45


RUN_PERTURBATIONS = {
    "complement": (_perturb_complement, checks.check_complements),
    "balanced_accuracy": (_perturb_ba, checks.check_balanced_accuracy),
    "ppr": (_perturb_ppr, checks.check_ppr),
    "column_distance": (_perturb_distance, checks.check_column_distances),
    "upgma_heights": (_perturb_upgma, checks.check_upgma_heights),
    "pca_range": (_perturb_pca_range, checks.check_pca_ratios),
    "pca_order": (_perturb_pca_order, checks.check_pca_ratios),
    "pca_sum": (_perturb_pca_sum, checks.check_pca_ratios),
    "winner_auc": (_perturb_winner_auc, checks.check_winner_auc),
}


def test_run_bundle_passes_every_check(small_run):
    prepared, rnd = small_run
    assert rnd.failed_cells == 0
    prepared.check(rnd.bundle)
    for check in checks.RUN_CHECKS:
        check(rnd.bundle)


@pytest.mark.parametrize("name", sorted(RUN_PERTURBATIONS))
def test_run_check_fails_on_perturbed_bundle(small_run, name):
    prepared, rnd = small_run
    perturb, check = RUN_PERTURBATIONS[name]
    bundle = copy.deepcopy(rnd.bundle)
    perturb(bundle)
    with pytest.raises(checks.CheckFailed):
        check(bundle)
    with pytest.raises(checks.CheckFailed):
        prepared.check(bundle)


def test_hash_check_fails_on_differing_rounds():
    checks.check_same_hashes(["ab", "ab", "ab"])
    with pytest.raises(checks.CheckFailed):
        checks.check_same_hashes(["ab", "ab", "ac"])


def _audit_record(b, feature=0):
    return b["datasets"][0]["features"][feature]["results"][0]


def _threshold(b):
    return b["training"][0]["fold_thresholds"][0]


AUDIT_PERTURBATIONS = {
    "t_max": lambda b: _threshold(b).update(
        t_max=math.nextafter(_threshold(b)["t_max"], 1.0)),
    "achieved_ba": lambda b: _threshold(b).update(
        achieved_ba=math.nextafter(_threshold(b)["achieved_ba"], 0.0)),
    "n_candidates": lambda b: _threshold(b).update(
        n_candidates=_threshold(b)["n_candidates"] + 1),
    "rate_one_ulp": lambda b: _audit_record(b)["values"][0].__setitem__(
        _col("TPR"), math.nextafter(_audit_record(b)["values"][0][_col("TPR")],
                                    2.0)),
    "group_auc": lambda b: _audit_record(b, 1)["values"][-1].__setitem__(
        _col("AUC"), _audit_record(b, 1)["values"][-1][_col("AUC")] + 1e-9),
    "ppr": lambda b: _audit_record(b)["values"][2].__setitem__(
        _col("PPR"), _audit_record(b)["values"][2][_col("PPR")] * 1.001),
    "flag": lambda b: _audit_record(b)["flags"][1].__setitem__(
        _col("PPV"), True),
    "group_size": lambda b: b["datasets"][0]["features"][0]["groups"][0]
    .update(size=b["datasets"][0]["features"][0]["groups"][0]["size"] + 1),
    "pooled_auc": lambda b: b["training"][1].update(
        pooled_test_auc=b["training"][1]["pooled_test_auc"] + 1e-9),
}


def test_audit_bundle_matches_recomputation(small_audit):
    prepared, rnd = small_audit
    assert rnd.failed_cells == 0
    prepared.check(rnd.bundle)


@pytest.mark.parametrize("name", sorted(AUDIT_PERTURBATIONS))
def test_audit_check_fails_on_perturbed_bundle(small_audit, name):
    prepared, rnd = small_audit
    bundle = copy.deepcopy(rnd.bundle)
    AUDIT_PERTURBATIONS[name](bundle)
    assert bundle != rnd.bundle
    with pytest.raises(checks.CheckFailed):
        prepared.check(bundle)


def test_threshold_sweep_matches_brute_force():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(300), 2)
    labels = (rng.random(300) < 0.4).astype(np.int64)
    t, ba, n = checks.best_threshold(scores, labels)
    distinct = np.unique(scores)
    cands = np.unique(np.concatenate(
        ([checks.EDGE], (distinct[:-1] + distinct[1:]) / 2, [1 - checks.EDGE])))
    best = max(cands, key=lambda c: (
        (np.sum((scores >= c) & (labels == 1)) / np.sum(labels == 1)
         + np.sum((scores < c) & (labels == 0)) / np.sum(labels == 0)) / 2,
        -c))
    assert (t, n) == (float(best), cands.size)
    assert ba > 0.5


def test_rank_sum_auc_matches_pair_counting():
    rng = np.random.default_rng(1)
    scores = np.round(rng.random(200), 1)  # many ties
    labels = (rng.random(200) < 0.5).astype(np.int64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    pairs = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
    assert checks.rank_sum_auc(scores, labels) == pytest.approx(
        pairs.mean(), abs=1e-15)


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


def test_traced_round_reports_every_per_layer_metric(small_run, small_audit):
    assert _per_layer_names() == [*tracing.LAYER_METRICS,
                                  tracing.OVERHEAD_METRIC]
    (_, run_round), (_, audit_round) = small_run, small_audit
    for rnd in (run_round, audit_round):
        assert set(rnd.layers) == set(tracing.LAYER_METRICS)
        own = sum(v for k, v in rnd.layers.items()
                  if tracing.LAYER_METRICS[k] == "s")
        # self times partition the root span, which the wall time encloses
        assert 0 < own <= rnd.wall_s < own + 0.05
        for name in ("cli.self_s", "report.export_s", "report.render_s",
                     "report.bundle_bytes", "report.files_written",
                     "metrics.auc_s", "metrics.auc_rows",
                     "metrics.select_threshold_calls",
                     "metrics.threshold_candidates", "cluster.distance_s",
                     "cluster.upgma_s", "pca.fit_s", "fairmatrix.assemble_s",
                     "robustness.summary_s", "metrics.group_vectors_s"
                     if rnd is audit_round else "fairmatrix.aggregate_s"):
            assert rnd.layers[name] > 0, name
    layers = run_round.layers
    for kind in tracing.MODEL_KINDS:
        for what in ("fit_s", "fits", "predict_s", "predict_rows"):
            assert layers[f"models.{what}.{kind}"] > 0, (what, kind)
        assert layers[f"search.draws.{kind}"] == SMALL_RUN.draws
    assert layers["search.unique_fits.nb"] == 1  # nb's draws are identical
    assert layers["metrics.select_threshold_calls"] == 6 * SMALL_RUN.folds
    for name in ("ingest.load_s", "ingest.fold_normalized_s",
                 "splits.kfold_s", "search.self_s"):
        assert layers[name] > 0, name
    assert audit_round.layers["cli.read_predictions_rows"] == \
        2 * SMALL_AUDIT.rows
    assert audit_round.layers["metrics.select_threshold_calls"] == 2


def test_tracing_leaves_bundle_bytes_unchanged(small_audit, tmp_path):
    prepared, traced = small_audit
    plain = run.run_round(SRC, tmp_path / "round", prepared.argv,
                          traced=False)
    assert plain.sha256 == traced.sha256


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-mlp", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
