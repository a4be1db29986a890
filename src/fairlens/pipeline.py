"""The audit computation behind `fairlens run` and `fairlens audit`.

A cell is one (dataset, protected feature, seed): a matrix with one row
per (model, group) pair and one column per metric, clustered along both
axes and projected by PCA. `run` trains a model panel per (dataset, seed)
and scores each fold's test rows; `audit` takes the scores of external
prediction files as a single fold. Both pool the scored rows, judge each
row against its own fold's threshold (aggregate_over_folds) and build the
bundle records with the same builders, so a run cell and an audit cell
are one code path. Nothing here writes a file, and the only files read
are a run's dataset specs and their CSVs; cli.py parses arguments and
does the rest of the I/O.

All randomness is keyed by (dataset name, seed, fold, kind, draw
signature), so identical configs give identical bundles whatever the job
schedule. Failures of a dataset, seed or cell are returned as manifest
entries and the remaining cells keep going.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import METRIC_NAMES, MODEL_KINDS
from .cluster import DistanceVector, correlation_distance, cut_clusters, upgma
from .fairmatrix import (aggregate_over_folds, assemble_matrix, kind_sort_key,
                         per_model_matrix)
from .ingest import (EncodedDataset, IngestError, encode_features,
                     extract_groups, fold_normalized, load_dataset,
                     load_dataset_spec, rank_groups)
from .metrics import (ThresholdChoice, auc_or_default, balanced_accuracy,
                      confusion_at_threshold, select_threshold)
from .models.base import predict_scores, sample_hypers
from .models.search import FoldData, KindSearchOutcome, SearchReport, search_kind
from .pca import (PcaModel, align_to_reference, component_cap, fit_pca,
                  full_matrix_pca, project)
from .robustness import aggregate_over_seeds, correlation_matrix
from .splits import FoldSplit, kfold_splits

log = logging.getLogger("fairlens")


class ConfigError(ValueError):
    pass


class PredictionFileError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dataset_specs: tuple[str, ...]
    seeds: tuple[int, ...]
    n_folds: int
    validation_fraction: float
    model_kinds: tuple[str, ...]
    search_draws: int
    plot_models: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        if not self.dataset_specs:
            raise ConfigError("need at least one dataset spec")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if self.n_folds < 2:
            raise ConfigError("need at least 2 folds")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation fraction must be in (0, 1)")
        if self.search_draws < 1:
            raise ConfigError("need at least 1 search draw")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        bad = [k for k in self.model_kinds if k not in MODEL_KINDS]
        if bad:
            raise ConfigError(f"unknown model kinds: {bad}; "
                              f"choose from {list(MODEL_KINDS)}")
        if not self.model_kinds:
            raise ConfigError("need at least one model kind")
        if self.plot_models is not None:
            missing = [k for k in self.plot_models if k not in self.model_kinds]
            if missing:
                raise ConfigError(f"plot models {missing} not among "
                                  f"requested kinds {list(self.model_kinds)}")


# ---------------------------------------------------------------------------
# bundle record builders, shared by run, audit, cluster and pca

def cluster_record(rows, values: np.ndarray,
                   axis: str) -> tuple[DistanceVector, list, dict]:
    """Correlation distances and the UPGMA tree along one axis of the
    matrix with these row keys and values.

    Returns the distance vector, the merge list and their two record
    entries (col_distance and col_linkage, or row_distance and row_linkage).
    """
    labels = METRIC_NAMES if axis == "columns" else rows
    dist = correlation_distance(values, axis, labels)
    merges = upgma(dist)
    key = "col" if axis == "columns" else "row"
    return dist, merges, {
        f"{key}_distance": {
            "labels": list(dist.labels),
            "condensed": [float(v) for v in dist.condensed],
            "degenerate_pairs": [[i, j] for i, j in dist.degenerate_pairs],
        },
        f"{key}_linkage": [[l, r, float(h), s] for l, r, h, s in merges],
    }


def pca_record(rows, values: np.ndarray, ref_kind: str, kinds,
               group_labels: tuple[str, ...], reference: str,
               k: int) -> tuple[PcaModel, dict]:
    """PCA fit on ref_kind's rows of the matrix; kinds projected and
    shifted so the reference group sits at the origin. Raises ValueError
    for a matrix whose rows do not vary."""
    model = fit_pca(per_model_matrix(rows, values, ref_kind), k)
    projections = {kind: project(per_model_matrix(rows, values, kind), model)
                   for kind in kinds}
    coords = align_to_reference(projections, group_labels, reference)
    return model, {
        "reference_model": ref_kind,
        "reference_group": reference,
        "k": model.k,
        "eigenvectors": [[float(v) for v in row] for row in model.eigenvectors],
        "column_means": [float(v) for v in model.column_means],
        "ratios": [float(v) for v in model.explained_variance_ratios],
        "group_labels": list(group_labels),
        "coords": {kind: [[float(v) for v in row] for row in coords[kind]]
                   for kind in kinds},
    }


def cell_record(tables: dict, seed: int, group_labels: tuple[str, ...],
                reference: str,
                plot_kinds: list[str]) -> tuple[dict, DistanceVector]:
    """One (dataset, feature, seed) bundle record: matrix, trees, PCA.

    tables maps model -> its (values, flags) metric table. Also returns
    the column distance vector, which the robustness summary correlates
    across cells.
    """
    rows, values, flags = assemble_matrix(tables, group_labels)
    col_dist, _, col_entries = cluster_record(rows, values, "columns")
    _, _, row_entries = cluster_record(rows, values, "rows")
    try:
        _, pca = pca_record(rows, values, plot_kinds[0], plot_kinds,
                            group_labels, reference,
                            component_cap(len(group_labels)))
    except ValueError:
        # zero-variance matrix (all group rows identical): projection
        # undefined, but the matrix and its clustering still stand
        pca = None
    try:
        full_ratios = [float(v) for v in
                       full_matrix_pca(values).explained_variance_ratios]
    except ValueError:
        full_ratios = None
    record = {
        "seed": seed,
        "rows": list(rows),
        "values": [[float(v) for v in row] for row in values],
        "flags": [[bool(b) for b in row] for row in flags],
        "column_variances": [float(v) for v in np.var(values, axis=0)],
        **col_entries, **row_entries,
        "pca": pca,
        "full_pca_ratios": full_ratios,
    }
    return record, col_dist


def dataset_entry(name: str, source_path: str, kept_rows: int,
                  dropped_rows: int, label_column: str, positive_meaning: str,
                  notes, features: list[dict]) -> dict:
    return {
        "name": name,
        "source_path": source_path,
        "kept_rows": int(kept_rows),
        "dropped_rows": int(dropped_rows),
        "label_column": label_column,
        "positive_meaning": positive_meaning,
        "notes": list(notes),
        "features": features,
    }


def feature_entry(name: str, reference: str, labels, sizes,
                  results: list[dict]) -> dict:
    return {
        "name": name,
        "reference": reference,
        "groups": [{"label": l, "size": s} for l, s in zip(labels, sizes)],
        "results": results,
    }


def training_entry(dataset: str, seed: int, kind: str,
                   thresholds: list[ThresholdChoice], pooled_test_auc: float,
                   validation_auc: float,
                   report: SearchReport | None = None) -> dict:
    """One model's training entry; report is None for an external model."""
    winner = report.winner if report is not None else None
    return {
        "dataset": dataset, "seed": seed, "kind": kind,
        "params": dict(winner.draw.params) if winner else {},
        "signature": winner.draw.signature if winner else f"external({kind})",
        "mean_validation_auc": float(validation_auc),
        "fold_validation_aucs": ([float(a) for a in winner.fold_val_aucs]
                                 if winner else []),
        "pooled_test_auc": float(pooled_test_auc),
        "n_draws_tried": len(report.results) if winner else 0,
        "n_draws_failed": (sum(1 for r in report.results if r.failed)
                           if winner else 0),
        "fold_thresholds": [
            {"fold": f, "t_max": float(t.t_max),
             "achieved_ba": float(t.achieved_ba),
             "n_candidates": t.n_candidates,
             "degenerate": bool(t.degenerate)}
            for f, t in enumerate(thresholds)],
    }


def rank_plot_kinds(pooled_aucs: dict[str, float]) -> list[str]:
    """The two models with the highest pooled test AUC; canonical order
    breaks ties."""
    return sorted(pooled_aucs,
                  key=lambda k: (-pooled_aucs[k], kind_sort_key(k)))[:2]


def _robustness_summary(col_vectors: dict, seeds) -> dict | None:
    """Correlate column distance vectors across complete conditions."""
    conditions = [c for c in col_vectors
                  if all(s in col_vectors[c] for s in seeds)]
    if not conditions:
        return None
    matrices = [correlation_matrix([col_vectors[c][s] for c in conditions])
                for s in seeds]
    mean, std = aggregate_over_seeds(conditions, matrices)
    return {
        "conditions": [[d, f] for d, f in conditions],
        "n_seeds": len(matrices),
        "mean": [[float(v) for v in row] for row in mean],
        "std": [[float(v) for v in row] for row in std],
    }


def bundle_dict(mode: str, datasets: list[dict], training: list[dict],
                col_vectors: dict, *, seeds, n_folds: int,
                validation_fraction: float, search_draws: int, model_kinds,
                plot_models) -> dict:
    """The top-level bundle; col_vectors maps (dataset, feature) -> seed ->
    column DistanceVector, for the robustness summary."""
    return {
        "schema_version": 1,
        "mode": mode,
        "metric_names": list(METRIC_NAMES),
        "run": {
            "seeds": list(seeds),
            "n_folds": n_folds,
            "validation_fraction": validation_fraction,
            "search_draws": search_draws,
            "model_kinds": list(model_kinds),
            "plot_models": list(plot_models) if plot_models else None,
        },
        "datasets": datasets,
        "training": training,
        "robustness": _robustness_summary(col_vectors, seeds),
    }


def recluster(rec: dict, cut_axis: str, k: int | None) -> list[tuple[str, int]]:
    """Recompute a record's distances and trees in place; with k, also
    return the (label, cluster) pairs of a k-cluster cut along cut_axis."""
    values = np.asarray(rec["values"], dtype=np.float64)
    flat: list[tuple[str, int]] = []
    for axis in ("columns", "rows"):
        dist, merges, entries = cluster_record(rec["rows"], values, axis)
        rec.update(entries)
        if k is not None and axis == cut_axis:
            flat = [(lab, int(c)) for lab, c in
                    zip(dist.labels, cut_clusters(merges, k))]
    return flat


def reproject(rec: dict, components: int | None) -> PcaModel | None:
    """Refit a record's PCA in place with at most `components` components
    (default: the cap for its group count); None when it has no PCA."""
    pca = rec["pca"]
    if pca is None:
        return None
    group_labels = tuple(pca["group_labels"])
    cap = component_cap(len(group_labels))
    model, rec["pca"] = pca_record(
        rec["rows"], np.asarray(rec["values"], dtype=np.float64),
        pca["reference_model"], sorted(pca["coords"], key=kind_sort_key),
        group_labels, pca["reference_group"],
        cap if components is None else min(components, cap))
    return model


# ---------------------------------------------------------------------------
# run: train a panel, then pool its test folds

@dataclass
class _SeedKindResult:
    """Everything one (dataset, seed, kind) contributes downstream."""

    outcome: KindSearchOutcome
    thresholds: list[ThresholdChoice]
    fold_test_scores: list[np.ndarray]
    pooled_test_auc: float


def _prepare_dataset(spec_path: str):
    """Spec, encoded features and group index; the raw table is dropped."""
    spec = load_dataset_spec(spec_path)
    table = load_dataset(spec)
    return spec, encode_features(table, spec), extract_groups(table, spec)


def _fold_data(enc: EncodedDataset, y: np.ndarray,
               splits: list[FoldSplit]) -> tuple[list[FoldData], list[np.ndarray]]:
    """Per-fold normalized slices; test designs share the fold's scaling."""
    folds: list[FoldData] = []
    test_X: list[np.ndarray] = []
    for sp in splits:
        design = fold_normalized(enc, sp.train)
        folds.append(FoldData(
            X_train=design[sp.train], y_train=y[sp.train],
            X_val=design[sp.validation], y_val=y[sp.validation],
        ))
        test_X.append(design[sp.test])
    return folds, test_X


def _search_job(payload):
    """Worker for --jobs parallelism; top-level so it pickles."""
    dataset, seed, kind, draws, folds = payload
    outcome = search_kind(kind, draws, folds, base_ids=(dataset, seed))
    return dataset, seed, kind, outcome


# the kinds by how long one paper-scale seed's search takes, longest first
LONGEST_FIRST = ("mlp", "rf", "logit", "knn", "tree", "nb")


def _search_all(jobs: list, n_jobs: int) -> tuple[dict, dict]:
    """Search outcomes by (seed, kind), and the error for each one lost.

    A worker that dies breaks the pool, and with it every search not yet
    finished. Each of those runs once more, alone in a fresh one-worker
    pool, so a search is lost only when it takes down its own worker; which
    searches are lost then does not depend on timing. The pool modules
    load only here, so a serial run never imports multiprocessing. A pool
    gets the searches longest kind first, so the last to start are short
    (Graham's LPT order).
    """
    if n_jobs == 1 or len(jobs) < 2:
        return {(seed, kind): outcome
                for _, seed, kind, outcome in map(_search_job, jobs)}, {}
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    jobs = sorted(jobs, key=lambda job: LONGEST_FIRST.index(job[2]))
    outcomes, broken, lost = {}, [], {}
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures = [pool.submit(_search_job, job) for job in jobs]
        for job, future in zip(jobs, futures):
            try:
                outcomes[(job[1], job[2])] = future.result()[3]
            except BrokenProcessPool:
                broken.append(job)
    for job in broken:
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                outcomes[(job[1], job[2])] = pool.submit(_search_job, job).result()[3]
            except BrokenProcessPool as exc:
                lost[(job[1], job[2])] = exc
    return outcomes, lost


def _finish_kind(outcome: KindSearchOutcome, folds: list[FoldData],
                 test_X: list[np.ndarray],
                 fold_labels: list[np.ndarray]) -> _SeedKindResult:
    """Thresholds from the winner's validation scores, then test scores.

    The validation scores are the ones the search computed for the winner.
    """
    thresholds: list[ThresholdChoice] = []
    fold_scores: list[np.ndarray] = []
    for f, (trained, val_scores) in enumerate(zip(outcome.winner_models,
                                                  outcome.winner_val_scores)):
        thresholds.append(select_threshold(val_scores, folds[f].y_val))
        fold_scores.append(predict_scores(trained, test_X[f]))
    auc, _ = auc_or_default(np.concatenate(fold_scores),
                            np.concatenate(fold_labels))
    return _SeedKindResult(outcome=outcome, thresholds=thresholds,
                           fold_test_scores=fold_scores, pooled_test_auc=auc)


def run_pipeline(config: RunConfig) -> tuple[dict | None, list[dict]]:
    """Execute the full audit; returns (bundle, failure manifest entries).

    Failures are recorded with (dataset, feature, seed, stage) context and
    the remaining cells keep going; the bundle holds whatever completed.
    """
    failures: list[dict] = []

    def fail(dataset, feature, seed, stage, error):
        failures.append({"dataset": dataset, "feature": feature, "seed": seed,
                         "stage": stage, "error": str(error)})

    kinds = sorted(config.model_kinds, key=kind_sort_key)
    dataset_entries: list[dict] = []
    training_entries: list[dict] = []
    # condition -> seed -> column DistanceVector, for the robustness matrix
    col_vectors: dict[tuple[str, str], dict[int, DistanceVector]] = {}

    for spec_path in config.dataset_specs:
        try:
            spec, enc, groups = _prepare_dataset(spec_path)
        except (IngestError, OSError, ValueError) as exc:
            fail(spec_path, "*", None, "ingest", exc)
            log.error("ingest failed for %s: %s", spec_path, exc)
            continue
        name = spec.name
        y = np.asarray(enc.labels, dtype=np.int64)
        n = y.size
        feature_results: dict[str, list[dict]] = {f: [] for f in spec.protected_features}

        # training jobs for every (seed, kind), optionally in parallel
        jobs = []
        seed_folds: dict[int, tuple[list[FoldData], list[np.ndarray], list[FoldSplit]]] = {}
        for seed in config.seeds:
            try:
                splits = kfold_splits(n, config.n_folds, seed, dataset=name,
                                      validation_fraction=config.validation_fraction)
                folds, test_X = _fold_data(enc, y, splits)
            except ValueError as exc:
                fail(name, "*", seed, "splits", exc)
                log.error("splits failed for %s seed %d: %s", name, seed, exc)
                continue
            seed_folds[seed] = (folds, test_X, splits)
            for kind in kinds:
                draws = sample_hypers(kind, config.search_draws, seed)
                jobs.append((name, seed, kind, draws, folds))

        outcomes, lost = _search_all(jobs, config.jobs)

        for seed in config.seeds:
            if seed not in seed_folds:
                continue
            folds, test_X, splits = seed_folds[seed]
            fold_labels = [y[sp.test] for sp in splits]
            kind_results: dict[str, _SeedKindResult] = {}
            for kind in kinds:
                if (seed, kind) in lost:
                    fail(name, "*", seed, "search",
                         f"{kind}: {lost[(seed, kind)]}")
                    continue
                outcome = outcomes[(seed, kind)]
                if outcome.winner_models is None:
                    fail(name, "*", seed, "search",
                         f"all draws failed for {kind!r}")
                    continue
                try:
                    kind_results[kind] = _finish_kind(outcome, folds, test_X,
                                                      fold_labels)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    fail(name, "*", seed, "threshold", f"{kind}: {exc}")
            if not kind_results:
                fail(name, "*", seed, "search", "no model kind survived")
                continue

            surviving = [k for k in kinds if k in kind_results]
            for kind in surviving:
                res = kind_results[kind]
                report = res.outcome.report
                training_entries.append(training_entry(
                    name, seed, kind, res.thresholds, res.pooled_test_auc,
                    report.winner.mean_val_auc, report))

            if config.plot_models is not None:
                plot_kinds = [k for k in config.plot_models if k in surviving]
                if not plot_kinds:
                    plot_kinds = surviving[:1]
            else:
                plot_kinds = rank_plot_kinds(
                    {k: kind_results[k].pooled_test_auc for k in surviving})

            for feature in spec.protected_features:
                gi = groups[feature]
                fold_groups = [gi.assignments[sp.test] for sp in splits]
                try:
                    tables = {kind: aggregate_over_folds(
                        kind_results[kind].fold_test_scores, fold_labels,
                        fold_groups,
                        [t.t_max for t in kind_results[kind].thresholds],
                        gi.labels, n) for kind in surviving}
                    record, col_dist = cell_record(
                        tables, seed, gi.labels, gi.reference, plot_kinds)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    fail(name, feature, seed, "metrics", exc)
                    log.error("cell (%s, %s, seed %d) failed: %s",
                              name, feature, seed, exc)
                    continue
                feature_results[feature].append(record)
                col_vectors.setdefault((name, feature), {})[seed] = col_dist

        features_out = [
            feature_entry(feature, groups[feature].reference,
                          groups[feature].labels, groups[feature].sizes,
                          feature_results[feature])
            # a feature whose seeds all failed already has manifest entries
            for feature in spec.protected_features if feature_results[feature]]
        if features_out:
            dataset_entries.append(dataset_entry(
                name, spec.source_path, n, enc.dropped_rows, spec.label_column,
                spec.positive_meaning, enc.notes, features_out))

    if not dataset_entries:
        return None, failures
    return bundle_dict(
        "full", dataset_entries, training_entries, col_vectors,
        seeds=config.seeds, n_folds=config.n_folds,
        validation_fraction=config.validation_fraction,
        search_draws=config.search_draws, model_kinds=kinds,
        plot_models=config.plot_models), failures


# ---------------------------------------------------------------------------
# audit: externally scored rows as a single fold

def audit_predictions(scores: dict[str, np.ndarray], y: np.ndarray,
                      groups: dict, features: list[str],
                      validation: np.ndarray | None, threshold: float | None,
                      dataset_name: str, source_path: str) -> dict:
    """Bundle of a group-metric audit of externally scored rows.

    scores maps model name -> per-row scores; groups maps feature ->
    (sorted labels, per-row label codes). With a validation mask, each
    model's threshold is selected on the flagged rows and metrics are
    computed on the rest; with a fixed threshold every row is a metric row.
    The metric rows form one fold of the same cell path as a run (single
    synthetic seed 0), and their groups are ordered, and the reference
    picked, by ingest.rank_groups as in a run.
    """
    n_all = y.size
    metric_mask = ~validation if validation is not None else np.ones(n_all, dtype=bool)
    if validation is not None and not metric_mask.any():
        raise PredictionFileError("every row is marked validation; nothing "
                                  "left to audit")
    y_m = y[metric_mask]
    n_total = int(metric_mask.sum())

    models = sorted(scores, key=kind_sort_key)
    thresholds: dict[str, ThresholdChoice] = {}
    for mname in models:
        if validation is not None:
            thresholds[mname] = select_threshold(scores[mname][validation],
                                                 y[validation])
        else:
            counts = confusion_at_threshold(scores[mname][metric_mask], y_m,
                                            threshold)
            thresholds[mname] = ThresholdChoice(
                t_max=threshold, achieved_ba=balanced_accuracy(counts),
                n_candidates=1, degenerate=False)

    pooled_aucs = {m: auc_or_default(scores[m][metric_mask], y_m)[0]
                   for m in models}
    plot_kinds = rank_plot_kinds(pooled_aucs)

    features_out = []
    col_vectors = {}
    for feature in features:
        names, codes = groups[feature]
        labels, assign, sizes = rank_groups(names, codes[metric_mask])
        if len(labels) < 2:
            raise PredictionFileError(
                f"feature {feature!r} has a single group; nothing to compare")
        reference = labels[0]

        tables = {m: aggregate_over_folds(
            [scores[m][metric_mask]], [y_m], [assign], [thresholds[m].t_max],
            labels, n_total) for m in models}
        record, col_dist = cell_record(tables, 0, labels, reference,
                                       plot_kinds)
        col_vectors[(dataset_name, feature)] = {0: col_dist}
        features_out.append(feature_entry(feature, reference, labels, sizes,
                                          [record]))

    training = [training_entry(
        dataset_name, 0, m, [thresholds[m]], pooled_aucs[m],
        auc_or_default(scores[m][validation], y[validation])[0]
        if validation is not None else pooled_aucs[m]) for m in models]
    dataset = dataset_entry(dataset_name, source_path, n_total,
                            n_all - n_total, "y_true", "declared-by-caller",
                            [], features_out)
    return bundle_dict(
        "audit", [dataset], training, col_vectors, seeds=[0], n_folds=1,
        validation_fraction=(float(validation.mean())
                             if validation is not None else 0.0),
        search_draws=0, model_kinds=models, plot_models=None)
