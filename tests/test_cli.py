"""CLI orchestration: config handling, full runs, audit mode and its
prediction file reader, subcommands."""

import csv
import hashlib
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fairlens import METRIC_NAMES, MODEL_KINDS
from fairlens.cli import (ConfigError, PredictionFileError, RunConfig,
                          _resolve_seeds, audit_external_predictions,
                          load_run_config, main)
from fairlens.ingest import (IngestError, load_dataset,
                             load_dataset_spec)
from fairlens.report import load_bundle
from synth import write_recidivism_csv


def write_spec(dir_path: Path, csv_name: str, name: str = "tiny") -> Path:
    spec = {
        "name": name,
        "source_path": csv_name,
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
    path = dir_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One small but complete pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("tiny")
    write_recidivism_csv(root / "tiny.csv", n_rows=700, seed=5)
    spec = write_spec(root, "tiny.csv")
    out = root / "out"
    code = main(["run", "--datasets", str(spec), "--seeds", "2",
                 "--folds", "3", "--search-draws", "2",
                 "--models", "logit,nb", "--out", str(out)])
    return code, out


def test_config_precedence_and_seed_forms(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seeds": [4, 7], "folds": 4,
                               "datasets": ["a.json"]}))
    raw = load_run_config(cfg)
    assert raw["seeds"] == [4, 7]
    # dataset paths resolve relative to the config file
    assert raw["datasets"] == [str(tmp_path / "a.json")]
    assert _resolve_seeds(3) == (0, 1, 2)
    assert _resolve_seeds([5, 9]) == (5, 9)
    with pytest.raises(ConfigError):
        _resolve_seeds(0)
    with pytest.raises(ConfigError):
        _resolve_seeds("3")


def test_run_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seedz": 3}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_run_config(cfg)


@pytest.mark.parametrize("entry", [
    {"datasets": "recidivism_standin.json"},
    {"models": "nb"},
    {"plot_models": "nb"},
    {"plot_models": ["nb", 1]},
    {"seeds": "3"},
    {"folds": "x"},
    {"folds": True},
    {"draws": 2.5},
    {"validation_fraction": "abc"},
    {"validation_fraction": False},
    {"out": 5},
], ids=json.dumps)
def test_run_config_rejects_wrong_value_types(tmp_path, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    key, = entry
    with pytest.raises(ConfigError, match=re.escape(f"config {cfg}: {key}")):
        load_run_config(cfg)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blob", [b'{"seeds": "\xff"}',
                                  b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "deep"])
def test_unreadable_run_config_exits_2(tmp_path, capsys, blob):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(blob)
    with pytest.raises(ConfigError, match=re.escape(f"config {cfg} ")):
        load_run_config(cfg)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"error: config {cfg} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_config_validation():
    ok = dict(dataset_specs=("s.json",), seeds=(0,), n_folds=3,
              validation_fraction=0.1, model_kinds=("logit",),
              search_draws=1)
    RunConfig(**ok)
    with pytest.raises(ConfigError, match="unknown model kinds"):
        RunConfig(**{**ok, "model_kinds": ("svm",)})
    with pytest.raises(ConfigError, match="folds"):
        RunConfig(**{**ok, "n_folds": 1})
    with pytest.raises(ConfigError, match="distinct"):
        RunConfig(**{**ok, "seeds": (1, 1)})
    with pytest.raises(ConfigError, match="plot models"):
        RunConfig(**{**ok, "plot_models": ("mlp",)})


def test_full_run_layout_and_bundle(tiny_run):
    code, out = tiny_run
    assert code == 0
    assert not (out / "failures.json").exists()
    bundle = load_bundle(out / "bundle.json")  # schema-validated on load
    assert bundle["mode"] == "full"
    assert bundle["metric_names"] == list(METRIC_NAMES)
    ds = bundle["datasets"][0]
    assert [f["name"] for f in ds["features"]] == ["race", "sex"]
    for feat in ds["features"]:
        assert [r["seed"] for r in feat["results"]] == [0, 1]
        for rec in feat["results"]:
            cell = out / ds["name"] / feat["name"] / f"seed{rec['seed']}"
            assert (cell / "clustermap.svg").exists()
            assert (cell / "matrix.csv").exists()
            # race has 5 groups (k=3), sex has 2 (k=1: no scatter)
            assert (cell / "pca.svg").exists() == (feat["name"] == "race")
    assert (out / "robustness" / "heatmap.svg").exists()
    assert (out / "robustness" / "means.csv").exists()


def test_full_run_matrices_keep_complement_identities(tiny_run):
    # zero-denominator cells are imputed as 0.0 (flagged), which breaks
    # the a + b = 1 identity for that row; the variance equality is only
    # promised for complement columns with no imputed entries
    pairs = (("TPR", "FNR"), ("TNR", "FPR"), ("PPV", "FDR"), ("NPV", "FOR"))
    code, out = tiny_run
    bundle = load_bundle(out / "bundle.json")
    checked = clean = 0
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                flags = np.asarray(rec["flags"], dtype=bool)
                names = list(METRIC_NAMES)
                for a, b in pairs:
                    ja, jb = names.index(a), names.index(b)
                    if flags[:, ja].any() or flags[:, jb].any():
                        continue
                    va = rec["column_variances"][ja]
                    vb = rec["column_variances"][jb]
                    assert abs(va - vb) < 1e-12, (feat["name"], a, b)
                    clean += 1
                checked += 1
    assert checked == 4
    assert clean >= 8  # most pairs have no imputed cells even on tiny data


def test_full_run_training_entries_ordered_and_complete(tiny_run):
    code, out = tiny_run
    bundle = load_bundle(out / "bundle.json")
    keys = [(t["dataset"], t["seed"], t["kind"]) for t in bundle["training"]]
    assert keys == [("tiny", 0, "logit"), ("tiny", 0, "nb"),
                    ("tiny", 1, "logit"), ("tiny", 1, "nb")]
    for t in bundle["training"]:
        assert 0.0 <= t["mean_validation_auc"] <= 1.0
        assert len(t["fold_thresholds"]) == 3
        for ft in t["fold_thresholds"]:
            assert 0.0 < ft["t_max"] < 1.0


def test_robustness_block_shape(tiny_run):
    code, out = tiny_run
    bundle = load_bundle(out / "bundle.json")
    rob = bundle["robustness"]
    assert rob["conditions"] == [["tiny", "race"], ["tiny", "sex"]]
    assert rob["n_seeds"] == 2
    mean = np.array(rob["mean"])
    assert mean.shape == (2, 2)
    assert np.allclose(np.diag(mean), 1.0)
    assert np.allclose(mean, mean.T)


def test_report_subcommand_rerenders_identically(tiny_run, tmp_path):
    code, out = tiny_run
    assert main(["report", "--bundle", str(out / "bundle.json"),
                 "--out", str(tmp_path / "re")]) == 0
    for p in (out / "tiny").rglob("*.svg"):
        q = tmp_path / "re" / p.relative_to(out)
        assert q.read_bytes() == p.read_bytes()


def test_cluster_subcommand_preserves_bundle(tiny_run, tmp_path, capsys):
    code, out = tiny_run
    work = tmp_path / "b.json"
    work.write_bytes((out / "bundle.json").read_bytes())
    assert main(["cluster", "--bundle", str(work), "--k", "2",
                 "--feature", "race"]) == 0
    printed = capsys.readouterr().out
    assert "tiny/race/seed0 columns k=2:" in printed
    # recomputation reproduces the stored trees byte for byte
    assert work.read_bytes() == (out / "bundle.json").read_bytes()


def test_pca_subcommand_changes_component_count(tiny_run, tmp_path):
    code, out = tiny_run
    work = tmp_path / "b.json"
    work.write_bytes((out / "bundle.json").read_bytes())
    assert main(["pca", "--bundle", str(work), "--components", "2",
                 "--feature", "race"]) == 0
    bundle = load_bundle(work)
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                if feat["name"] == "race":
                    assert rec["pca"]["k"] == 2


def test_pca_default_components_keeps_bundle_bytes(tiny_run, tmp_path):
    code, out = tiny_run
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=600)
    groups = rng.choice(["A", "B", "C", "D"], size=600)
    for name in ("m1", "m2"):
        scores = np.clip(0.3 * y + rng.uniform(0, 0.7, size=600), 0, 1)
        write_predictions(tmp_path / f"{name}.csv", zip(y, scores, groups))
    assert main(["audit", "--predictions", f"m1={tmp_path / 'm1.csv'}",
                 "--predictions", f"m2={tmp_path / 'm2.csv'}",
                 "--features", "grp", "--out", str(tmp_path / "audit")]) == 0
    for bundle in (out / "bundle.json", tmp_path / "audit" / "bundle.json"):
        assert any(rec["pca"] is not None and rec["pca"]["k"] >= 2
                   for feat in load_bundle(bundle)["datasets"][0]["features"]
                   for rec in feat["results"])
        work = tmp_path / "b.json"
        work.write_bytes(bundle.read_bytes())
        assert main(["pca", "--bundle", str(work)]) == 0
        assert work.read_bytes() == bundle.read_bytes(), bundle


@pytest.mark.parametrize("argv", [["cluster", "--k", "0"],
                                  ["cluster", "--k", "14"],
                                  ["pca", "--components", "-1"],
                                  ["pca", "--components", "0"]])
def test_out_of_range_count_exits_2_and_keeps_bundle(tiny_run, tmp_path,
                                                     capsys, argv):
    code, out = tiny_run
    work = tmp_path / "b.json"
    work.write_bytes((out / "bundle.json").read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bundle", str(work)])
    assert exc.value.code == 2
    assert "error: tiny/" in capsys.readouterr().err
    assert work.read_bytes() == (out / "bundle.json").read_bytes()
    assert sorted(tmp_path.iterdir()) == [work]


def test_failed_writes_keep_old_files_and_leave_no_temp(tiny_run, tmp_path,
                                                        monkeypatch):
    code, out = tiny_run
    work = tmp_path / "b.json"
    work.write_bytes((out / "bundle.json").read_bytes())
    rerendered = tmp_path / "re"
    assert main(["report", "--bundle", str(work), "--out", str(rerendered)]) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    # pca with two components would rewrite the bundle in place
    assert main(["pca", "--bundle", str(work), "--components", "2"]) == 1
    assert main(["report", "--bundle", str(work), "--out", str(rerendered)]) == 1
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == before


def test_missing_dataset_writes_failure_manifest(tmp_path):
    spec = write_spec(tmp_path, "absent.csv", name="ghost")
    out = tmp_path / "out"
    code = main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)])
    assert code == 1
    manifest = json.loads((out / "failures.json").read_text())
    assert manifest["failures"][0]["stage"] == "ingest"
    assert not (out / "bundle.json").exists()


def test_non_string_source_path_writes_failure_manifest(tmp_path):
    spec = write_spec(tmp_path, "t.csv", name="five")
    raw = json.loads(spec.read_text())
    spec.write_text(json.dumps(dict(raw, source_path=5)))
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "ingest"
    assert "source_path must be a string" in failure["error"]


def test_kind_with_nan_scores_is_excluded_with_failure_manifest(tmp_path,
                                                               monkeypatch):
    from fairlens.models.nn import Mlp
    monkeypatch.setattr(Mlp, "predict_scores",
                        lambda self, X: np.full(X.shape[0], np.nan))
    write_recidivism_csv(tmp_path / "t.csv", n_rows=200, seed=3)
    spec = write_spec(tmp_path, "t.csv", name="t")
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "logit,mlp", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "search"
    assert failure["error"] == "all draws failed for 'mlp'"
    bundle = load_bundle(out / "bundle.json")
    assert [t["kind"] for t in bundle["training"]] == ["logit"]


@pytest.mark.parametrize("method", ["fit", "predict_scores"])
def test_kind_raising_value_error_fails_its_draws_not_the_run(tmp_path,
                                                              monkeypatch,
                                                              method):
    from fairlens.models.bayes import GaussianNb

    def broken(self, *args):
        raise ValueError("injected fault")

    monkeypatch.setattr(GaussianNb, method, broken)
    write_recidivism_csv(tmp_path / "t.csv", n_rows=200, seed=3)
    spec = write_spec(tmp_path, "t.csv", name="t")
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "logit,nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "search"
    assert failure["error"] == "all draws failed for 'nb'"
    bundle = load_bundle(out / "bundle.json")
    assert [t["kind"] for t in bundle["training"]] == ["logit"]


@pytest.mark.parametrize("spec_text", ["[1, 2]",
                                       '{"name": "t", "columns": ["age"]}'])
def test_malformed_spec_writes_failure_manifest(tmp_path, spec_text):
    spec = tmp_path / "bad.json"
    spec.write_text(spec_text)
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "ingest"
    assert "wrong JSON type" in failure["error"]


def test_deep_spec_fails_alone_and_the_run_goes_on(tmp_path):
    # deeper than json.load can recurse
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    write_recidivism_csv(tmp_path / "t.csv", n_rows=200, seed=3)
    good = write_spec(tmp_path, "t.csv", name="good")
    out = tmp_path / "out"
    assert main(["run", "--datasets", f"{deep},{good}", "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "ingest"
    assert failure["dataset"] == str(deep)
    assert "nested too deeply" in failure["error"]
    bundle = load_bundle(out / "bundle.json")
    assert [t["dataset"] for t in bundle["training"]] == ["good"]


def test_bad_flags_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--datasets", "x.json", "--models", "bogus",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    write_recidivism_csv(tmp_path / "t.csv", n_rows=300, seed=6)
    spec = write_spec(tmp_path, "t.csv", name="envy")
    monkeypatch.setenv("FAIRLENS_OUT", str(tmp_path / "envout"))
    code = main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1", "--models", "nb"])
    assert code == 0
    assert (tmp_path / "envout" / "bundle.json").exists()


def test_parallel_jobs_match_serial(tmp_path):
    write_recidivism_csv(tmp_path / "t.csv", n_rows=400, seed=8)
    spec = write_spec(tmp_path, "t.csv", name="par")
    args = ["run", "--datasets", str(spec), "--seeds", "2", "--folds", "3",
            "--search-draws", "2", "--models", "logit,nb"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "par2")]) == 0
    a = (tmp_path / "serial" / "bundle.json").read_bytes()
    b = (tmp_path / "par2" / "bundle.json").read_bytes()
    assert a == b


def test_parallel_jobs_match_serial_with_lockstep_mlp(tmp_path):
    # each worker trains a draw's mlp folds in lockstep, as a serial run does
    write_recidivism_csv(tmp_path / "t.csv", n_rows=300, seed=9)
    spec = write_spec(tmp_path, "t.csv", name="parmlp")
    args = ["run", "--datasets", str(spec), "--seeds", "2", "--folds", "3",
            "--search-draws", "2", "--models", "logit,mlp"]
    assert main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "par2")]) == 0
    a = (tmp_path / "serial" / "bundle.json").read_bytes()
    b = (tmp_path / "par2" / "bundle.json").read_bytes()
    assert a == b


def test_parallel_searches_start_longest_kind_first(monkeypatch):
    import concurrent.futures

    from fairlens import pipeline

    submitted = []

    class InlinePool:
        """Runs nothing: records the submit order and returns a label."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            submitted.append((job[1], job[2]))
            future = concurrent.futures.Future()
            future.set_result((job[0], job[1], job[2], f"{job[2]} {job[1]}"))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    jobs = [("d", seed, kind, [], []) for seed in (0, 1) for kind in MODEL_KINDS]
    outcomes, lost = pipeline._search_all(jobs, 2)
    assert submitted == [(seed, kind)
                         for kind in ("mlp", "rf", "logit", "knn", "tree", "nb")
                         for seed in (0, 1)]
    assert outcomes == {(seed, kind): f"{kind} {seed}"
                        for seed in (0, 1) for kind in MODEL_KINDS}
    assert lost == {}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched search")
def test_dead_worker_fails_its_search_not_the_run(tmp_path, monkeypatch,
                                                  capsys):
    from fairlens import pipeline

    real_search = pipeline.search_kind

    def dying_search(kind, draws, folds, base_ids):
        if (kind, base_ids[1]) == ("nb", 1):
            time.sleep(2)  # the other three searches finish meanwhile
            os._exit(1)
        return real_search(kind, draws, folds, base_ids=base_ids)

    monkeypatch.setattr(pipeline, "search_kind", dying_search)
    write_recidivism_csv(tmp_path / "t.csv", n_rows=300, seed=9)
    spec = write_spec(tmp_path, "t.csv", name="dead")
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "2",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "logit,nb", "--jobs", "2",
                 "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert (failure["seed"], failure["stage"]) == (1, "search")
    assert failure["error"].startswith("nb: A process in the process pool")
    bundle = load_bundle(out / "bundle.json")
    assert [(t["seed"], t["kind"]) for t in bundle["training"]] == [
        (0, "logit"), (0, "nb"), (1, "logit")]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched search")
def test_dead_worker_fails_only_its_own_kind(tmp_path, monkeypatch, capsys):
    from fairlens import pipeline

    real_search = pipeline.search_kind

    def dying_search(kind, draws, folds, base_ids):
        if kind == "nb":
            os._exit(1)  # breaks the pool under every search still pending
        return real_search(kind, draws, folds, base_ids=base_ids)

    monkeypatch.setattr(pipeline, "search_kind", dying_search)
    write_recidivism_csv(tmp_path / "t.csv", n_rows=300, seed=9)
    spec = write_spec(tmp_path, "t.csv", name="dead")
    bundles = []
    for run in range(3):
        out = tmp_path / f"out{run}"
        assert main(["run", "--datasets", str(spec), "--seeds", "2",
                     "--folds", "3", "--search-draws", "1",
                     "--models", "logit,nb", "--jobs", "2",
                     "--out", str(out)]) == 1
        failures = json.loads((out / "failures.json").read_text())["failures"]
        assert sorted((f["seed"], f["stage"], f["error"][:4]) for f in failures) == [
            (0, "search", "nb: "), (1, "search", "nb: ")]
        bundle = load_bundle(out / "bundle.json")
        assert [(t["seed"], t["kind"]) for t in bundle["training"]] == [
            (0, "logit"), (1, "logit")]
        bundles.append((out / "bundle.json").read_bytes())
    assert bundles[0] == bundles[1] == bundles[2]
    assert "Traceback" not in capsys.readouterr().err


# -- audit mode --------------------------------------------------------------

def write_predictions(path: Path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_true", "y_score", "grp"])
        w.writerows(rows)


def exact_rate_rows(n_pos_a=200, n_neg_a=200, n_pos_b=100, n_neg_b=300):
    rows = []
    for g, n_pos, n_neg, tpr, fpr in (("A", n_pos_a, n_neg_a, 0.9, 0.1),
                                      ("B", n_pos_b, n_neg_b, 0.6, 0.3)):
        for i in range(n_pos):
            rows.append((1, 0.8 if i < round(tpr * n_pos) else 0.2, g))
        for i in range(n_neg):
            rows.append((0, 0.8 if i < round(fpr * n_neg) else 0.2, g))
    return rows


def test_audit_produces_exact_group_rates(tmp_path):
    path = tmp_path / "m.csv"
    write_predictions(path, exact_rate_rows())
    bundle, failures = audit_external_predictions(
        [("ext", str(path))], ["grp"], threshold=0.5)
    assert failures == []
    rec = bundle["datasets"][0]["features"][0]["results"][0]
    values = np.asarray(rec["values"], dtype=np.float64)
    tpr_j = list(METRIC_NAMES).index("TPR")
    fpr_j = list(METRIC_NAMES).index("FPR")
    rows = {r: i for i, r in enumerate(rec["rows"])}
    assert abs(values[rows["ext:A"], tpr_j] - 0.9) < 1e-12
    assert abs(values[rows["ext:A"], fpr_j] - 0.1) < 1e-12
    assert abs(values[rows["ext:B"], tpr_j] - 0.6) < 1e-12
    assert abs(values[rows["ext:B"], fpr_j] - 0.3) < 1e-12


def test_audit_cli_end_to_end(tmp_path):
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_predictions(p1, exact_rate_rows())
    write_predictions(p2, exact_rate_rows(n_pos_a=200))
    out = tmp_path / "out"
    code = main(["audit", "--predictions", f"alpha={p1}",
                 "--predictions", f"beta={p2}", "--features", "grp",
                 "--threshold", "0.5", "--out", str(out)])
    assert code == 0
    bundle = load_bundle(out / "bundle.json")
    assert bundle["mode"] == "audit"
    assert bundle["run"]["model_kinds"] == ["alpha", "beta"]
    assert bundle["run"]["search_draws"] == 0
    assert (out / "audit" / "grp" / "seed0" / "clustermap.svg").exists()


def test_audit_validation_column_excludes_selection_rows(tmp_path):
    rows = [(1, 0.9, "A", 1), (0, 0.2, "A", 1), (1, 0.7, "B", 1), (0, 0.4, "B", 1)]
    rows += [(y, s, g, 0) for y, s, g in exact_rate_rows()]
    path = tmp_path / "v.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_true", "y_score", "grp", "sel"])
        w.writerows(rows)
    bundle, _ = audit_external_predictions(
        [("m", str(path))], ["grp"], validation_column="sel")
    ds = bundle["datasets"][0]
    assert ds["kept_rows"] == 800
    assert ds["dropped_rows"] == 4
    sizes = {g["label"]: g["size"] for g in ds["features"][0]["groups"]}
    assert sizes == {"A": 400, "B": 400}


def test_run_and_audit_order_groups_by_one_rule(tmp_path):
    # cohort sizes tie in pairs (b and a at 120, d and c at 90), labels
    # first appear in another order, and padded cells strip to the label
    write_recidivism_csv(tmp_path / "t.csv", n_rows=420, seed=9)
    cohort = ["b", " a", "d", "c "] * 90 + ["a", "b"] * 30
    with open(tmp_path / "t.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(tmp_path / "t.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header + ["cohort"]] + [
            row + [cell] for row, cell in zip(rows, cohort)])
    spec = write_spec(tmp_path, "t.csv")
    raw = json.loads(spec.read_text())
    raw["columns"].append({"name": "cohort", "kind": "categorical",
                           "role": "ignore"})
    spec.write_text(json.dumps(dict(raw, protected_features=["cohort"])))
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1", "--models", "nb",
                 "--out", str(tmp_path / "run")]) == 0
    preds = tmp_path / "p.csv"
    with open(preds, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_true", "y_score", "cohort"])
        w.writerows((row[-1], "0.5", cell) for row, cell in zip(rows, cohort))
    assert main(["audit", "--predictions", f"m={preds}",
                 "--features", "cohort", "--threshold", "0.4",
                 "--out", str(tmp_path / "audit")]) == 0

    def groups(out):
        feature, = load_bundle(tmp_path / out / "bundle.json")[
            "datasets"][0]["features"]
        return feature["groups"], feature["reference"]

    expected = ([{"label": "a", "size": 120}, {"label": "b", "size": 120},
                 {"label": "c", "size": 90}, {"label": "d", "size": 90}], "a")
    assert groups("run") == groups("audit") == expected


def test_audit_rejects_inconsistent_files(tmp_path):
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    rows = exact_rate_rows()
    write_predictions(p1, rows)
    write_predictions(p2, rows[:-1])
    with pytest.raises(PredictionFileError, match="row count"):
        audit_external_predictions([("a", str(p1)), ("b", str(p2))], ["grp"])
    flipped = [(1 - y, s, g) for y, s, g in rows]
    write_predictions(p2, flipped)
    with pytest.raises(PredictionFileError, match="y_true differs"):
        audit_external_predictions([("a", str(p1)), ("b", str(p2))], ["grp"])


def test_audit_rejects_bad_cells(tmp_path):
    path = tmp_path / "m.csv"
    write_predictions(path, [(1, 1.2, "A"), (0, 0.4, "B")])
    with pytest.raises(PredictionFileError, match="score out of range"):
        audit_external_predictions([("m", str(path))], ["grp"])
    write_predictions(path, [(2, 0.5, "A"), (0, 0.4, "B")])
    with pytest.raises(PredictionFileError, match="y_true"):
        audit_external_predictions([("m", str(path))], ["grp"])
    write_predictions(path, [(1, 0.5, "A"), (0, 0.4, "A")])
    with pytest.raises(PredictionFileError, match="single group"):
        audit_external_predictions([("m", str(path))], ["grp"])


def test_audit_rejects_duplicate_or_bad_model_names(tmp_path):
    path = tmp_path / "m.csv"
    write_predictions(path, exact_rate_rows())
    with pytest.raises(PredictionFileError, match="duplicate"):
        audit_external_predictions([("m", str(path)), ("m", str(path))], ["grp"])
    with pytest.raises(PredictionFileError, match="bad model name"):
        audit_external_predictions([("m:x", str(path))], ["grp"])


def test_audit_rejects_repeated_feature_names(tmp_path):
    path = tmp_path / "m.csv"
    write_predictions(path, exact_rate_rows())
    with pytest.raises(PredictionFileError, match="repeated feature names"):
        audit_external_predictions([("m", str(path))], ["grp", "grp"])
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--predictions", f"m={path}", "--features", "grp,grp",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_audit_names_cannot_escape_out(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    write_predictions(src / "m.csv", exact_rate_rows())
    out = tmp_path / "work" / "X"
    for flags in (["--name", "../escaped"], ["--name", "a/b"], ["--name", ".."],
                  ["--features", "grp,../g"]):
        argv = ["audit", "--predictions", f"m={src / 'm.csv'}",
                "--features", "grp", "--threshold", "0.5", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert written == [Path("in"), Path("in/m.csv")], flags


def test_loaded_bundle_names_cannot_escape_out(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    write_predictions(src / "m.csv", exact_rate_rows())
    assert main(["audit", "--predictions", f"m={src / 'm.csv'}",
                 "--features", "grp", "--threshold", "0.5",
                 "--out", str(src / "out")]) == 0
    bundle = json.loads((src / "out" / "bundle.json").read_text(encoding="utf-8"))
    out = tmp_path / "work" / "X"
    for field, name in itertools.product(("dataset", "feature"),
                                         ("../escaped", "a\0b")):
        bad = json.loads(json.dumps(bundle))
        if field == "dataset":
            bad["datasets"][0]["name"] = name
        else:
            bad["datasets"][0]["features"][0]["name"] = name
        path = src / f"bad_{field}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        before = path.read_bytes()
        for argv in (["report"], ["cluster"], ["pca", "--components", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--bundle", str(path), "--out", str(out)])
            assert exc.value.code == 2, (field, name, argv)
            assert path.read_bytes() == before
            outside = [p for p in tmp_path.rglob("*") if src not in p.parents
                       and p != src]
            assert outside == [], (field, name, argv)


def _first_cell(bundle):
    return bundle["datasets"][0]["features"][0]["results"][0]


def _colonless_row_key(bundle):
    rows = _first_cell(bundle)["rows"]
    rows[0] = rows[0].replace(":", "-")


def _short_values(bundle):
    del _first_cell(bundle)["values"][-1]


def _broken_col_linkage(bundle):
    _first_cell(bundle)["col_linkage"] = [[0, 99, 0.5, 2]]


def _string_value(bundle):
    _first_cell(bundle)["values"][0][0] = "x"


def _short_pca_coords(bundle):
    coords = _first_cell(bundle)["pca"]["coords"]
    del coords[sorted(coords)[0]][-1]


def _one_pca_ratio(bundle):
    pca = _first_cell(bundle)["pca"]
    assert pca["k"] == 3
    pca["ratios"] = pca["ratios"][:1]


def _short_robustness_mean(bundle):
    del bundle["robustness"]["mean"][-1]


def _integer_flag(bundle):
    _first_cell(bundle)["flags"][0][0] = 3


def _no_robustness_conditions(bundle):
    bundle["robustness"].update(conditions=[], mean=[], std=[])


@pytest.mark.parametrize("text", [
    "not json", '{"schema_version": 2}', b"\xff\xfe",
    # deeper than json.load can recurse
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
    # a run bundle edited so that its entries have the wrong type or its
    # parts disagree
    pytest.param(_colonless_row_key, id="colonless-row-key"),
    pytest.param(_short_values, id="short-values"),
    pytest.param(_broken_col_linkage, id="broken-col-linkage"),
    pytest.param(_string_value, id="string-value"),
    pytest.param(_short_pca_coords, id="short-pca-coords"),
    pytest.param(_one_pca_ratio, id="one-pca-ratio"),
    pytest.param(_short_robustness_mean, id="short-robustness-mean"),
    pytest.param(_integer_flag, id="integer-flag"),
    pytest.param(_no_robustness_conditions, id="no-robustness-conditions"),
])
def test_unreadable_bundle_exits_2(tmp_path, capsys, request, text):
    path = tmp_path / "bad.json"
    if callable(text):
        _, out = request.getfixturevalue("tiny_run")
        bundle = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
        text(bundle)
        path.write_text(json.dumps(bundle), encoding="utf-8")
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    for argv in (["report"], ["cluster"], ["pca", "--components", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bundle", str(path), "--out", str(tmp_path / "X")])
        assert exc.value.code == 2, argv
        assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999",
                                   "1" + "0" * 400])
def test_non_finite_bundle_number_exits_2(tmp_path, capsys, tiny_run, token):
    # json.load reads the tokens, 1e999 overflows to inf and the integer
    # overflows a float; the bundle writer would refuse all of them
    _, out = tiny_run
    bundle = json.loads((out / "bundle.json").read_text(encoding="utf-8"))
    _first_cell(bundle)["values"][0][0] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle).replace('"@"', token), encoding="utf-8")
    for argv in (["report"], ["cluster"], ["pca", "--components", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bundle", str(path), "--out", str(tmp_path / "X")])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"error: {path}: non-finite number {token[:21]}" in err
    assert not (tmp_path / "X").exists()


def test_run_dataset_name_cannot_escape_out(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    write_recidivism_csv(src / "t.csv", n_rows=200, seed=1)
    spec = write_spec(src, "t.csv", name="t")
    raw = json.loads(spec.read_text(encoding="utf-8"))
    # a NUL is no path separator, but no file system takes it in a name
    for name in ("../escaped", "a\0b"):
        raw["name"] = name
        spec.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "work" / "X"
        code = main(["run", "--datasets", str(spec), "--seeds", "1",
                     "--folds", "2", "--search-draws", "1", "--models", "nb",
                     "--out", str(out)])
        assert code == 1, name
        manifest = json.loads((out / "failures.json").read_text(
            encoding="utf-8"))
        assert "directory name" in json.dumps(manifest), name
        outside = [p for p in tmp_path.rglob("*") if p.is_file()
                   and src not in p.parents and out not in p.parents]
        assert outside == [], name


# -- prediction file reader ---------------------------------------------------

def write_lines(path: Path, lines, newline="\n"):
    path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")


def test_reader_errors_name_the_first_bad_row(tmp_path):
    path = tmp_path / "p.csv"
    header = "y_true,y_score,grp,sel"
    good = ["1,0.9,A,0", "0,0.2,B,0", "1,0.7,A,1", "0,0.4,B,1"]
    cases = [
        (good + ["0,abc,B,0"], "row 6: non-numeric score"),
        (good + ["1,0.5,A,0", "0,nan,B,0"], "row 7: score out of range: nan"),
        (good + ["0,0.2, ,0"], "row 6: empty group in 'grp'"),
        (good + ["0,0.2,B,yes"], "row 6: sel must be 0 or 1"),
        (good + ["0,0.2,B,0", "2,0.2,B,0"], "row 7: y_true must be 0 or 1, got '2'"),
        # blank lines are skipped and not counted
        (good[:2] + ["", ""] + good[2:] + ["0,abc,B,0"], "row 6: non-numeric score"),
        # the first bad row wins over a worse column further down
        (good + ["0,0.2,B,7", "0,0.2,,0", "5,x,,0"], "row 6: sel must be 0 or 1"),
        # within a row, y_true is checked before y_score before groups
        (good + ["5,x,,9"], "row 6: y_true must be 0 or 1, got '5'"),
        (good + ["1,x,,9"], "row 6: non-numeric score"),
        (good + ["1,0.3,,9"], "row 6: empty group in 'grp'"),
        # missing trailing cells are empty
        (good + ["1,0.3"], "row 6: empty group in 'grp'"),
        (good + ["1,0.3,A"], "row 6: sel must be 0 or 1"),
    ]
    for lines, message in cases:
        write_lines(path, [header] + lines)
        with pytest.raises(PredictionFileError) as exc:
            audit_external_predictions([("m", str(path))], ["grp"],
                                       validation_column="sel")
        assert str(exc.value) == f"{path}: {message}", lines


def test_reader_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_bytes(b"y_true,y_score,grp\n1,0.9,A\n0,0.2,\xff\n1,0.7,B\n")
    with pytest.raises(PredictionFileError, match="not valid UTF-8"):
        audit_external_predictions([("m", str(path))], ["grp"])
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--predictions", f"m={path}", "--features", "grp",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"error: {path}: not valid UTF-8" in capsys.readouterr().err


def test_over_long_field_is_reported_by_audit_and_run(tmp_path, capsys):
    # a quoted 140 kB cell is longer than csv.field_size_limit()
    big = '"' + "A" * 140_000 + '"'
    path = tmp_path / "p.csv"
    write_lines(path, ["y_true,y_score,grp", "1,0.9,A", f"0,0.2,{big}"])
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--predictions", f"m={path}", "--features", "grp",
              "--out", str(tmp_path / "audit")])
    assert exc.value.code == 2
    assert f"error: {path}: line 3: field larger than field limit" in (
        capsys.readouterr().err)
    write_recidivism_csv(tmp_path / "t.csv", n_rows=50, seed=2)
    with open(tmp_path / "t.csv", "a", encoding="utf-8") as fh:
        fh.write(f"30,M,{big},0,1,F,0\n")
    spec = write_spec(tmp_path, "t.csv")
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "ingest"
    assert "t.csv" in failure["error"]
    assert "field larger than field limit" in failure["error"]


STRAY_QUOTE = "'\"' does not open or close a whole field"


# each cell the reader rejects, whether it sits in a column read (grp, race)
# or in a note column no command reads
@pytest.mark.parametrize("cell, in_note, message", [
    ("B\0", False, "NUL byte"),
    ('"B"x', False, STRAY_QUOTE),
    ('B"x"', False, STRAY_QUOTE),
    (' "B"', False, STRAY_QUOTE),
    ('"B" ', False, STRAY_QUOTE),
    ('"B', False, "unterminated quoted field"),
    ('a"b', True, STRAY_QUOTE),
], ids=["nul", "after-close", "mid-field", "space-before", "space-after",
        "unterminated", "unread-column"])
def test_reader_rejects_bad_quoting_and_nul(tmp_path, capsys, cell, in_note,
                                            message):
    # the bad cell is on line 5: a quoted note on line 2 holds a "\r\n",
    # which counts as one line break
    path = tmp_path / "p.csv"
    bad = f"0,0.2,B,{cell}" if in_note else f"0,0.2,{cell},"
    write_lines(path, ["y_true,y_score,grp,note", '1,0.9,A,"two\r\nlines"',
                       "0,0.4,B,", bad], newline="\r\n")
    with pytest.raises(PredictionFileError) as exc:
        audit_external_predictions([("m", str(path))], ["grp"])
    assert str(exc.value) == f"{path}: line 5: {message}"
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--predictions", f"m={path}", "--features", "grp",
              "--out", str(tmp_path / "audit")])
    assert exc.value.code == 2
    assert f"error: {path}: line 5: {message}" in capsys.readouterr().err
    # a dataset file: 50 rows on lines 2 to 51, the bad one on line 52
    write_recidivism_csv(tmp_path / "t.csv", n_rows=50, seed=2)
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    bad = "30,M,B,0,1,F,0," + cell if in_note else f"30,M,{cell},0,1,F,0,"
    write_lines(tmp_path / "t.csv", [lines[0] + ",note"]
                + [line + "," for line in lines[1:]] + [bad])
    spec = write_spec(tmp_path, "t.csv")
    with pytest.raises(IngestError, match=f"t.csv: line 52: {message}"):
        load_dataset(load_dataset_spec(spec))
    out = tmp_path / "out"
    assert main(["run", "--datasets", str(spec), "--seeds", "1",
                 "--folds", "3", "--search-draws", "1",
                 "--models", "nb", "--out", str(out)]) == 1
    failure, = json.loads((out / "failures.json").read_text())["failures"]
    assert failure["stage"] == "ingest"
    assert f"t.csv: line 52: {message}" in failure["error"]


def test_reader_skips_blank_lines_pads_short_rows_and_reads_crlf(tmp_path):
    # 8000 rows, so the reader's chunks of 4096 rows meet inside the file;
    # B rows come first, but the equal-sized groups are ordered by label
    rows = exact_rate_rows(2000, 2000, 1000, 3000)[::-1]
    plain = tmp_path / "plain.csv"
    write_predictions(plain, rows)
    messy = tmp_path / "messy.csv"
    lines = ["y_true,y_score,grp,note"]
    for i, (y, s, g) in enumerate(rows):
        if i % 50 == 0:
            lines.append("")
        # the unused trailing note cell is missing on every other row
        lines.append(f"{y},{s},{g}" + (",n" if i % 2 else ""))
    write_lines(messy, lines, newline="\r\n")
    a, _ = audit_external_predictions([("m", str(plain))], ["grp"], threshold=0.5)
    b, _ = audit_external_predictions([("m", str(messy))], ["grp"], threshold=0.5)
    b["datasets"][0]["source_path"] = a["datasets"][0]["source_path"]
    assert a == b
    assert a["datasets"][0]["kept_rows"] == len(rows)
    groups = a["datasets"][0]["features"][0]["groups"]
    assert groups == [{"label": "A", "size": 4000}, {"label": "B", "size": 4000}]


def test_quote_free_files_skip_csv_reader(tmp_path, monkeypatch):
    # neither a quote-free file nor its twin with a quoted cell is read by
    # csv.reader, and both give one bundle
    rows = exact_rate_rows()
    lines = ["y_true,y_score,grp"] + [f"{y},{s},{g}" for y, s, g in rows]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_lines(plain, lines, newline="\r\n")
    assert lines[1] == "1,0.8,A"
    write_lines(quoted, [lines[0], '1,0.8,"A"'] + lines[2:], newline="\r\n")

    def refused(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refused)
    a, _ = audit_external_predictions([("m", str(plain))], ["grp"],
                                      threshold=0.5)
    b, _ = audit_external_predictions([("m", str(quoted))], ["grp"],
                                      threshold=0.5)
    b["datasets"][0]["source_path"] = a["datasets"][0]["source_path"]
    assert a == b


def test_shipped_dataset_specs_parse():
    configs = Path(__file__).resolve().parent.parent / "configs"
    parsed = 0
    for path in sorted(configs.glob("*.json")):
        if path.name.startswith("run_"):
            continue
        spec = load_dataset_spec(path)
        assert spec.protected_features
        parsed += 1
    assert parsed >= 4


def run_module(argv, out, threads="1", cwd=None):
    """sha256 of the bundle.json that `python -m fairlens` writes to out."""
    import fairlens

    package_root = str(Path(fairlens.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=package_root)
    subprocess.run([sys.executable, "-m", "fairlens"] + argv
                   + ["--out", str(out)], cwd=cwd,
                   env=env, check=True, capture_output=True, timeout=300)
    return hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest()


def tree_sha256(root: Path) -> str:
    """sha256 over every file under root: each relative path, in sorted
    order, followed by its byte count and its bytes."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*") if p.is_file()):
        blob = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(blob)}\0".encode())
        digest.update(blob)
    return digest.hexdigest()


def test_entry_point_bundle_does_not_depend_on_blas_threads(tmp_path):
    # without the entry point's pin, this run's MLP matrix products round
    # differently under one and two BLAS threads and the bundles differ
    write_recidivism_csv(tmp_path / "t.csv", n_rows=1000, seed=1)
    spec = write_spec(tmp_path, "t.csv")
    argv = ["run", "--datasets", str(spec), "--seeds", "1", "--folds", "3",
            "--search-draws", "1", "--models", "logit,mlp"]
    digests = [run_module(argv, tmp_path / f"out{threads}", threads)
               for threads in ("1", "2")]
    assert digests[0] == digests[1]


def test_bench_trace_targets_resolve():
    # bench/tracing.py patches fairlens functions by the names their callers
    # use; a rename makes install raise LookupError, which should fail here
    # rather than only in a traced benchmark run
    import fairlens

    package_root = str(Path(fairlens.__file__).resolve().parent.parent)
    bench = Path(__file__).resolve().parent.parent / "bench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root,
                                                       str(bench)]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import tracing; print(tracing.install(tracing.Tracer()))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


# sha256 of bundle.json for the fixed run below, and tree_sha256 of its
# whole output directory (bundle, figures and CSVs). A change that alters
# the bundle or a figure on purpose updates these constants and says why
# in CHANGES.md.
GOLDEN_BUNDLE_SHA256 = ("9792b1ab41af58ae0df96585371e457e"
                        "bdec46cead989587a4402c2c6bbc9c68")
GOLDEN_OUT_SHA256 = ("239a9ceb5f9e633f49ddbb5fd1f8cc9b"
                     "53da12152152bacad8e11903b9968ca3")


def test_golden_bundle_hash(tmp_path):
    write_recidivism_csv(tmp_path / "t.csv", n_rows=1000, seed=1)
    spec = write_spec(tmp_path, "t.csv")
    argv = ["run", "--datasets", str(spec), "--seeds", "1", "--folds", "3",
            "--search-draws", "2", "--models", ",".join(MODEL_KINDS)]
    assert run_module(argv, tmp_path / "out") == GOLDEN_BUNDLE_SHA256
    assert tree_sha256(tmp_path / "out") == GOLDEN_OUT_SHA256


# The same pair for the fixed audit below: a validation column, two models
# and two features (four groups, so a three-component PCA, and two groups).
GOLDEN_AUDIT_BUNDLE_SHA256 = ("b1cde993020e128b4ad4e163f7cd360e"
                              "fc483e0dcbab56fc58a7d135b4280387")
GOLDEN_AUDIT_OUT_SHA256 = ("2d153385c1f3615882c2486ddd106ec5"
                           "d547a2693ea4237d0682f17a9837bebe")


def golden_audit_argv(dir_path: Path) -> list[str]:
    """Write the golden audit's prediction files into dir_path and return
    its arguments, which name them relative to dir_path."""
    rng = np.random.default_rng(21)
    n = 900
    y = rng.integers(0, 2, size=n)
    grp = rng.choice(["A", "B", "C", "D"], size=n, p=[0.4, 0.3, 0.2, 0.1])
    sex = rng.choice(["F", "M"], size=n)
    sel = (rng.uniform(size=n) < 0.2).astype(int)
    for name, lift in (("m1", 0.35), ("m2", 0.2)):
        scores = np.clip(lift * y + rng.uniform(0, 1 - lift, size=n), 0, 1)
        with open(dir_path / f"{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y_true", "y_score", "grp", "sex", "sel"])
            w.writerows((int(a), "%.6f" % s, g, x, int(v))
                        for a, s, g, x, v in zip(y, scores, grp, sex, sel))
    # relative input paths: the bundle records them as given
    return ["audit", "--predictions", "m1=m1.csv", "--predictions",
            "m2=m2.csv", "--features", "grp,sex", "--validation-column", "sel"]


def test_golden_audit_hash(tmp_path):
    argv = golden_audit_argv(tmp_path)
    out = tmp_path / "out"
    assert run_module(argv, out, cwd=tmp_path) == GOLDEN_AUDIT_BUNDLE_SHA256
    assert (out / "audit" / "grp" / "seed0" / "pca.svg").exists()
    assert (out / "robustness" / "heatmap.svg").exists()
    assert tree_sha256(out) == GOLDEN_AUDIT_OUT_SHA256


def test_bundle_bytes_do_not_depend_on_checkout_dir(tmp_path):
    digests = []
    for where in ("a", "b/c"):
        root = tmp_path / where
        root.mkdir(parents=True)
        write_recidivism_csv(root / "t.csv", n_rows=300, seed=6)
        spec = write_spec(root, "t.csv")
        assert main(["run", "--datasets", str(spec), "--seeds", "1",
                     "--folds", "3", "--search-draws", "1", "--models", "nb",
                     "--out", str(root / "out")]) == 0
        text = (root / "out" / "bundle.json").read_bytes()
        assert json.loads(text)["datasets"][0]["source_path"] == "t.csv"
        digests.append(hashlib.sha256(text).hexdigest())
    assert digests[0] == digests[1]
