"""Command-line interface and pipeline orchestration.

Subcommands:
  run      full audit: ingest -> splits -> model search -> metrics ->
           matrices -> clustering -> PCA -> robustness -> figures + bundle
  audit    the same analysis on externally produced prediction files,
           skipping all training
  cluster  re-cluster matrices stored in an existing bundle
  pca      re-project matrices stored in an existing bundle
  report   re-render every figure and CSV from an existing bundle

All randomness is keyed by (dataset name, seed, fold, kind, draw
signature), so identical configs reproduce identical artifacts byte for
byte, whatever the job schedule. Exit code 0 means every requested
(dataset, feature, seed) cell completed; otherwise a machine-readable
manifest is written to <out>/failures.json and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import METRIC_NAMES, MODEL_KINDS
from .cluster import correlation_distance, cut_clusters, upgma
from .fairmatrix import (MetricsMatrix, Provenance, aggregate_over_folds,
                         assemble_matrix, kind_sort_key, per_model_matrix)
from .ingest import (EncodedDataset, IngestError, encode_features,
                     extract_groups, fold_normalized, is_path_component,
                     load_dataset, load_dataset_spec)
from .metrics import (ThresholdChoice, auc_or_default, balanced_accuracy,
                      confusion_at_threshold, group_metric_vectors,
                      select_threshold)
from .models.base import predict_scores, sample_hypers
from .models.search import FoldData, KindSearchOutcome, search_kind
from .pca import align_to_reference, component_cap, fit_pca, full_matrix_pca, project
from .report import (BundleError, export_bundle, load_bundle,
                     matrix_from_record, render_all)
from .robustness import aggregate_over_seeds, correlation_matrix
from .splits import FoldSplit, kfold_splits

log = logging.getLogger("fairlens")

DESK_SCALE = {"seeds": 3, "folds": 5, "draws": 10}
PAPER_SCALE = {"seeds": 10, "folds": 10, "draws": 30}
DEFAULT_VALIDATION_FRACTION = 0.10


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dataset_specs: tuple[str, ...]
    seeds: tuple[int, ...]
    n_folds: int
    validation_fraction: float
    model_kinds: tuple[str, ...]
    search_draws: int
    out_dir: str
    mode: str = "full"
    plot_models: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in ("full", "audit"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "full" and not self.dataset_specs:
            raise ConfigError("full mode needs at least one dataset spec")
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


def load_run_config(path: str | Path) -> dict:
    """Read the structured run config (JSON; grammar documented in README)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {"datasets", "seeds", "folds", "draws", "models",
             "validation_fraction", "plot_models", "out"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    base = Path(path).parent
    if "datasets" in raw:
        raw["datasets"] = [str((base / d)) if not Path(d).is_absolute() else d
                           for d in raw["datasets"]]
    return raw


def _resolve_seeds(value) -> tuple[int, ...]:
    # an integer N means seeds 0..N-1; a list is taken verbatim
    if isinstance(value, bool):
        raise ConfigError("seeds must be an integer or a list of integers")
    if isinstance(value, int):
        if value < 1:
            raise ConfigError("seed count must be positive")
        return tuple(range(value))
    if isinstance(value, (list, tuple)):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError("seed list must hold integers")
        return tuple(value)
    raise ConfigError("seeds must be an integer or a list of integers")


# ---------------------------------------------------------------------------
# full pipeline

@dataclass
class _SeedKindResult:
    """Everything one (dataset, seed, kind) contributes downstream."""

    outcome: KindSearchOutcome
    thresholds: list[ThresholdChoice]
    fold_test_scores: list[np.ndarray]
    pooled_test_auc: float


def _prepare_dataset(spec_path: str):
    spec = load_dataset_spec(spec_path)
    table = load_dataset(spec)
    enc = encode_features(table, spec)
    groups = extract_groups(table, spec)
    return spec, enc, groups


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


def _finish_kind(outcome: KindSearchOutcome, folds: list[FoldData],
                 test_X: list[np.ndarray], splits: list[FoldSplit],
                 y: np.ndarray) -> _SeedKindResult:
    """Thresholds from the winner's validation scores, then test scores.

    The validation scores are the ones the search computed for the winner.
    """
    thresholds: list[ThresholdChoice] = []
    fold_scores: list[np.ndarray] = []
    for f, (trained, val_scores) in enumerate(zip(outcome.winner_models,
                                                  outcome.winner_val_scores)):
        thresholds.append(select_threshold(val_scores, folds[f].y_val))
        fold_scores.append(predict_scores(trained, test_X[f]))
    pooled = np.concatenate(fold_scores)
    pooled_labels = np.concatenate([y[sp.test] for sp in splits])
    auc, _ = auc_or_default(pooled, pooled_labels)
    return _SeedKindResult(outcome=outcome, thresholds=thresholds,
                           fold_test_scores=fold_scores, pooled_test_auc=auc)


def _cell_record(matrix: MetricsMatrix, group_labels: tuple[str, ...],
                 reference: str, plot_kinds: list[str], seed: int) -> dict:
    """One (dataset, feature, seed) bundle record: matrix, trees, PCA."""
    values = matrix.values
    col_dist = correlation_distance(values, "columns", matrix.metric_names)
    col_link = upgma(col_dist)
    row_labels = tuple(str(r) for r in matrix.rows)
    row_dist = correlation_distance(values, "rows", row_labels)
    row_link = upgma(row_dist)

    ref_kind = plot_kinds[0]
    cap = component_cap(len(group_labels))
    try:
        pca_model = fit_pca(per_model_matrix(matrix, ref_kind).values, cap,
                            fitted_on=f"{matrix.provenance.dataset}/"
                                      f"{matrix.provenance.feature}"
                                      f"/seed{seed}/{ref_kind}")
        projections = {k: project(per_model_matrix(matrix, k).values, pca_model)
                       for k in plot_kinds}
        aligned = align_to_reference(projections, group_labels, reference,
                                     pca_model.explained_variance_ratios)
    except ValueError:
        # zero-variance matrix (all group rows identical): projection
        # undefined, but the matrix and its clustering still stand
        pca_model = aligned = None
    try:
        full_ratios = full_matrix_pca(values).explained_variance_ratios
    except ValueError:
        full_ratios = None

    return {
        "seed": seed,
        "rows": list(row_labels),
        "values": [[float(v) for v in row] for row in values],
        "flags": [[bool(b) for b in row] for row in matrix.flags],
        "column_variances": [float(v) for v in matrix.column_variances],
        "col_linkage": [[l, r, float(h), s] for l, r, h, s in col_link.merges],
        "row_linkage": [[l, r, float(h), s] for l, r, h, s in row_link.merges],
        "col_distance": {
            "labels": list(col_dist.labels),
            "condensed": [float(v) for v in col_dist.condensed],
            "degenerate_pairs": [[i, j] for i, j in col_dist.degenerate_pairs],
        },
        "row_distance": {
            "labels": list(row_dist.labels),
            "condensed": [float(v) for v in row_dist.condensed],
            "degenerate_pairs": [[i, j] for i, j in row_dist.degenerate_pairs],
        },
        "pca": None if pca_model is None else {
            "reference_model": ref_kind,
            "reference_group": reference,
            "k": pca_model.k,
            "eigenvectors": [[float(v) for v in row]
                             for row in pca_model.eigenvectors],
            "column_means": [float(v) for v in pca_model.column_means],
            "ratios": [float(v) for v in pca_model.explained_variance_ratios],
            "group_labels": list(group_labels),
            "coords": {k: [[float(v) for v in row] for row in aligned.coords[k]]
                       for k in plot_kinds},
        },
        "full_pca_ratios": None if full_ratios is None
        else [float(v) for v in full_ratios],
    }


def run_pipeline(config: RunConfig) -> tuple[dict | None, list[dict]]:
    """Execute the full audit; returns (bundle, failure manifest entries).

    Failures are recorded with (dataset, feature, seed, stage) context and
    the remaining cells keep going; the bundle holds whatever completed.
    """
    failures: list[dict] = []
    kinds = sorted(config.model_kinds, key=kind_sort_key)
    dataset_entries: list[dict] = []
    training_entries: list[dict] = []
    # condition -> seed -> column DistanceVector, for the robustness matrix
    col_vectors: dict[tuple[str, str], dict[int, object]] = {}

    for spec_path in config.dataset_specs:
        try:
            spec, enc, groups = _prepare_dataset(spec_path)
        except (IngestError, OSError, ValueError) as exc:
            failures.append({"dataset": spec_path, "feature": "*",
                             "seed": None, "stage": "ingest",
                             "error": str(exc)})
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
                failures.append({"dataset": name, "feature": "*", "seed": seed,
                                 "stage": "splits", "error": str(exc)})
                log.error("splits failed for %s seed %d: %s", name, seed, exc)
                continue
            seed_folds[seed] = (folds, test_X, splits)
            for kind in kinds:
                draws = sample_hypers(kind, config.search_draws, seed)
                jobs.append((name, seed, kind, draws, folds))

        outcomes: dict[tuple[int, str], KindSearchOutcome] = {}
        if config.jobs > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                for ds, seed, kind, outcome in pool.map(_search_job, jobs):
                    outcomes[(seed, kind)] = outcome
        else:
            for payload in jobs:
                _, seed, kind, outcome = _search_job(payload)
                outcomes[(seed, kind)] = outcome

        for seed in config.seeds:
            if seed not in seed_folds:
                continue
            folds, test_X, splits = seed_folds[seed]
            kind_results: dict[str, _SeedKindResult] = {}
            for kind in kinds:
                outcome = outcomes[(seed, kind)]
                if outcome.winner_models is None:
                    failures.append({"dataset": name, "feature": "*",
                                     "seed": seed, "stage": "search",
                                     "error": f"all draws failed for {kind!r}"})
                    continue
                try:
                    kind_results[kind] = _finish_kind(outcome, folds, test_X,
                                                      splits, y)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    failures.append({"dataset": name, "feature": "*",
                                     "seed": seed, "stage": "threshold",
                                     "error": f"{kind}: {exc}"})
            if not kind_results:
                failures.append({"dataset": name, "feature": "*", "seed": seed,
                                 "stage": "search",
                                 "error": "no model kind survived"})
                continue

            surviving = [k for k in kinds if k in kind_results]
            for kind in surviving:
                res = kind_results[kind]
                winner = res.outcome.report.winner
                training_entries.append({
                    "dataset": name, "seed": seed, "kind": kind,
                    "params": dict(winner.draw.params),
                    "signature": winner.draw.signature,
                    "mean_validation_auc": float(winner.mean_val_auc),
                    "fold_validation_aucs": [float(a) for a in winner.fold_val_aucs],
                    "pooled_test_auc": float(res.pooled_test_auc),
                    "n_draws_tried": len(res.outcome.report.results),
                    "n_draws_failed": sum(1 for r in res.outcome.report.results
                                          if r.failed),
                    "fold_thresholds": [
                        {"fold": f, "t_max": float(t.t_max),
                         "achieved_ba": float(t.achieved_ba),
                         "n_candidates": t.n_candidates,
                         "degenerate": bool(t.degenerate)}
                        for f, t in enumerate(res.thresholds)],
                })

            if config.plot_models is not None:
                plot_kinds = [k for k in config.plot_models if k in surviving]
                if not plot_kinds:
                    plot_kinds = surviving[:1]
            else:
                # highest pooled test AUC first; canonical order breaks ties
                ranked = sorted(
                    surviving,
                    key=lambda k: (-kind_results[k].pooled_test_auc,
                                   kind_sort_key(k)))
                plot_kinds = ranked[:2]

            for feature in spec.protected_features:
                gi = groups[feature]
                try:
                    vectors: dict[str, dict[str, object]] = {}
                    for kind in surviving:
                        res = kind_results[kind]
                        by_group: dict[str, object] = {}
                        for g_idx, label in enumerate(gi.labels):
                            fold_counts, fold_s, fold_l = [], [], []
                            for f, sp in enumerate(splits):
                                mask = gi.assignments[sp.test] == g_idx
                                s = res.fold_test_scores[f][mask]
                                yl = y[sp.test][mask]
                                if s.size == 0:
                                    fold_counts.append(None)
                                else:
                                    fold_counts.append(confusion_at_threshold(
                                        s, yl, res.thresholds[f].t_max))
                                fold_s.append(s)
                                fold_l.append(yl)
                            by_group[label] = aggregate_over_folds(
                                fold_counts, fold_s, fold_l, n_total=n)
                        vectors[kind] = by_group
                    matrix = assemble_matrix(
                        vectors, feature=feature, group_order=gi.labels,
                        provenance=Provenance(dataset=name, feature=feature,
                                              seed=seed))
                    record = _cell_record(matrix, gi.labels, gi.reference,
                                          plot_kinds, seed)
                except (ValueError, RuntimeError, ArithmeticError) as exc:
                    failures.append({"dataset": name, "feature": feature,
                                     "seed": seed, "stage": "metrics",
                                     "error": str(exc)})
                    log.error("cell (%s, %s, seed %d) failed: %s",
                              name, feature, seed, exc)
                    continue
                feature_results[feature].append(record)
                col_vectors.setdefault((name, feature), {})[seed] = \
                    correlation_distance(matrix.values, "columns",
                                         matrix.metric_names)

        features_out = []
        for feature in spec.protected_features:
            if not feature_results[feature]:
                continue  # all seeds failed; manifest already has entries
            gi = groups[feature]
            features_out.append({
                "name": feature,
                "reference": gi.reference,
                "groups": [{"label": l, "size": s}
                           for l, s in zip(gi.labels, gi.sizes)],
                "results": feature_results[feature],
            })
        if features_out:
            dataset_entries.append({
                "name": name,
                "source_path": str(spec.source_path),
                "kept_rows": int(n),
                "dropped_rows": int(enc.dropped_rows),
                "label_column": spec.label_column,
                "positive_meaning": spec.positive_meaning,
                "notes": list(enc.notes),
                "features": features_out,
            })

    robustness = _robustness_summary(col_vectors, config.seeds)
    if not dataset_entries:
        return None, failures
    bundle = {
        "schema_version": 1,
        "mode": "full",
        "metric_names": list(METRIC_NAMES),
        "run": {
            "seeds": list(config.seeds),
            "n_folds": config.n_folds,
            "validation_fraction": config.validation_fraction,
            "search_draws": config.search_draws,
            "model_kinds": list(kinds),
            "plot_models": list(config.plot_models) if config.plot_models else None,
        },
        "datasets": dataset_entries,
        "training": training_entries,
        "robustness": robustness,
    }
    return bundle, failures


def _robustness_summary(col_vectors: dict, seeds: tuple[int, ...]) -> dict | None:
    """Correlate column distance vectors across complete conditions."""
    conditions = [c for c in col_vectors
                  if all(s in col_vectors[c] for s in seeds)]
    if not conditions:
        return None
    matrices = [correlation_matrix([col_vectors[c][s] for c in conditions])
                for s in seeds]
    summary = aggregate_over_seeds(tuple(conditions), matrices)
    return {
        "conditions": [[d, f] for d, f in summary.conditions],
        "n_seeds": summary.n_seeds,
        "mean": [[float(v) for v in row] for row in summary.mean],
        "std": [[float(v) for v in row] for row in summary.std],
    }


# ---------------------------------------------------------------------------
# audit-only mode

class PredictionFileError(ValueError):
    pass


class _BadCell(ValueError):
    """A cell that fails its column's check; the message names no row."""


def _decode_label(cell: str) -> int:
    cell = cell.strip()
    if cell not in ("0", "1"):
        raise _BadCell(f"y_true must be 0 or 1, got {cell!r}")
    return int(cell)


def _decode_score(cell: str) -> float:
    try:
        s = float(cell)
    except ValueError:
        raise _BadCell("non-numeric score") from None
    if not 0.0 <= s <= 1.0:
        raise _BadCell(f"score out of range: {s}")
    return s


def _group_decoder(feature: str):
    def decode(cell: str) -> str:
        cell = cell.strip()
        if not cell:
            raise _BadCell(f"empty group in {feature!r}")
        return cell
    return decode


def _flag_decoder(column: str):
    def decode(cell: str) -> bool:
        cell = cell.strip()
        if cell not in ("0", "1"):
            raise _BadCell(f"{column} must be 0 or 1")
        return cell == "1"
    return decode


def _read_prediction_file(path: str, features: list[str],
                          validation_column: str | None):
    """Read one prediction file: y_true, scores, group codes, validation flags.

    Only the needed columns are kept, one list of cells each, and equal
    cells share one str object, so a kept cell costs one list pointer.
    Each distinct cell is checked and converted once. An error names the
    first bad row (the header is row 1; blank lines are skipped and not
    counted) and, within it, the first failing column in the order y_true,
    y_score, features, validation column. As with csv.DictReader, cells
    missing from a short row are empty and a repeated header name reads
    its last column.

    Each feature maps to (labels, codes): its sorted distinct labels and,
    per row, the index of the row's label in them.
    """
    import csv as _csv
    from itertools import islice

    needed = ["y_true", "y_score"] + features
    decoders = [_decode_label, _decode_score] + [_group_decoder(f)
                                                 for f in features]
    if validation_column:
        needed.append(validation_column)
        decoders.append(_flag_decoder(validation_column))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PredictionFileError(f"{path}: empty file")
            missing = [c for c in needed if c not in header]
            if missing:
                raise PredictionFileError(f"{path}: missing columns {missing}")
            where = {name: i for i, name in enumerate(header)}
            picks = [where[c] for c in needed]
            width = max(picks) + 1
            columns: list[list[str]] = [[] for _ in needed]
            intern = {}.setdefault
            # a few thousand rows at a time, so each column is taken out by
            # C-level list and map calls rather than a Python loop per row
            for chunk in iter(lambda: list(islice(reader, 4096)), []):
                rows = [row if len(row) >= width
                        else row + [""] * (width - len(row))
                        for row in chunk if row]
                for column, i in zip(columns, picks):
                    cells = [row[i] for row in rows]
                    column.extend(map(intern, cells, cells))
        except UnicodeDecodeError as exc:
            raise PredictionFileError(
                f"{path}: not valid UTF-8 ({exc.reason})") from None
    n_rows = len(columns[0])
    if not n_rows:
        raise PredictionFileError(f"{path}: no data rows")

    tables, errors = [], []
    for k, (cells, decode) in enumerate(zip(columns, decoders)):
        table, bad = {}, {}
        for cell in set(cells):
            try:
                table[cell] = decode(cell)
            except _BadCell as exc:
                bad[cell] = str(exc)
        if bad:
            i = next(i for i, cell in enumerate(cells) if cell in bad)
            errors.append((i, k, bad[cells[i]]))
        tables.append(table)
    if errors:
        i, _, message = min(errors)
        raise PredictionFileError(f"{path}: row {i + 2}: {message}")

    def column_array(k, dtype):
        return np.fromiter(map(tables[k].__getitem__, columns[k]),
                           dtype=dtype, count=n_rows)

    groups = {}
    for k, feature in enumerate(features, start=2):
        labels = tuple(sorted(set(tables[k].values())))
        code = {label: c for c, label in enumerate(labels)}
        tables[k] = {cell: code[label] for cell, label in tables[k].items()}
        groups[feature] = (labels, column_array(k, np.int64))
    val = column_array(len(needed) - 1, bool) if validation_column else None
    return column_array(0, np.int64), column_array(1, np.float64), groups, val


def audit_external_predictions(
    prediction_files: list[tuple[str, str]],
    features: list[str],
    threshold: float | None = None,
    validation_column: str | None = None,
    dataset_name: str = "audit",
) -> tuple[dict, list[dict]]:
    """Group-metric audit of externally scored rows; no training.

    With a validation column, each model's threshold is selected on the
    flagged rows and metrics are computed on the remainder; with a fixed
    threshold every row is a metric row. From group_metric_vectors onward
    the pipeline is identical to a full run (single synthetic seed 0).
    """
    if not prediction_files:
        raise PredictionFileError("need at least one prediction file")
    if threshold is not None and validation_column is not None:
        raise PredictionFileError("give either a fixed threshold or a "
                                  "validation column, not both")
    if threshold is None and validation_column is None:
        threshold = 0.5
    if threshold is not None and not 0.0 < threshold < 1.0:
        raise PredictionFileError(f"threshold out of range: {threshold}")
    for mname, _ in prediction_files:
        if ":" in mname or not mname:
            raise PredictionFileError(f"bad model name {mname!r}")
    if len({m for m, _ in prediction_files}) != len(prediction_files):
        raise PredictionFileError("duplicate model names")
    for name in [dataset_name] + features:
        if not is_path_component(name):
            raise PredictionFileError(f"name {name!r} cannot be a directory "
                                      f"name")

    loaded = {}
    ref_y = ref_groups = ref_val = None
    for mname, path in prediction_files:
        y, scores, groups, val = _read_prediction_file(
            path, features, validation_column)
        if ref_y is None:
            ref_y, ref_groups, ref_val = y, groups, val
        else:
            if y.size != ref_y.size:
                raise PredictionFileError(
                    f"{path}: row count {y.size} differs from first file "
                    f"({ref_y.size})")
            if not np.array_equal(y, ref_y):
                raise PredictionFileError(f"{path}: y_true differs from first file")
            if any(groups[f][0] != ref_groups[f][0]
                   or not np.array_equal(groups[f][1], ref_groups[f][1])
                   for f in features):
                raise PredictionFileError(f"{path}: group columns differ "
                                          f"from first file")
            if validation_column and not np.array_equal(val, ref_val):
                raise PredictionFileError(f"{path}: validation column differs "
                                          f"from first file")
        loaded[mname] = scores

    n_all = ref_y.size
    metric_mask = ~ref_val if ref_val is not None else np.ones(n_all, dtype=bool)
    if ref_val is not None and not metric_mask.any():
        raise PredictionFileError("every row is marked validation; nothing "
                                  "left to audit")
    y_m = ref_y[metric_mask]
    n_total = int(metric_mask.sum())

    models = sorted(loaded, key=kind_sort_key)
    thresholds: dict[str, ThresholdChoice] = {}
    for mname in models:
        if ref_val is not None:
            thresholds[mname] = select_threshold(loaded[mname][ref_val],
                                                 ref_y[ref_val])
        else:
            counts = confusion_at_threshold(loaded[mname][metric_mask], y_m,
                                            threshold)
            thresholds[mname] = ThresholdChoice(
                t_max=threshold, achieved_ba=balanced_accuracy(counts),
                n_candidates=1, degenerate=False)

    pooled_aucs = {m: auc_or_default(loaded[m][metric_mask], y_m)[0]
                   for m in models}
    ranked = sorted(models, key=lambda m: (-pooled_aucs[m], kind_sort_key(m)))
    plot_kinds = ranked[:2]

    features_out = []
    col_vectors = {}
    for feature in features:
        names, codes = ref_groups[feature]
        present, inverse, sizes = np.unique(
            codes[metric_mask], return_inverse=True, return_counts=True)
        if present.size < 2:
            raise PredictionFileError(
                f"feature {feature!r} has a single group; nothing to compare")
        # largest group first, ties by label; names are sorted, so a stable
        # sort on the negated sizes keeps equal-sized groups in label order
        rank = np.argsort(-sizes, kind="stable")
        labels = tuple(names[present[r]] for r in rank)
        group_sizes = sizes[rank].tolist()
        reference = labels[0]
        assign = np.argsort(rank)[inverse]  # row -> position in labels

        vectors = {}
        for mname in models:
            vectors[mname] = group_metric_vectors(
                loaded[mname][metric_mask], y_m, assign, labels,
                thresholds[mname].t_max, n_total)
        matrix = assemble_matrix(
            vectors, feature=feature, group_order=labels,
            provenance=Provenance(dataset=dataset_name, feature=feature, seed=0))
        record = _cell_record(matrix, labels, reference, plot_kinds, seed=0)
        col_vectors[(dataset_name, feature)] = {0: correlation_distance(
            matrix.values, "columns", matrix.metric_names)}
        features_out.append({
            "name": feature,
            "reference": reference,
            "groups": [{"label": l, "size": n}
                       for l, n in zip(labels, group_sizes)],
            "results": [record],
        })

    training_entries = [{
        "dataset": dataset_name, "seed": 0, "kind": mname, "params": {},
        "signature": f"external({mname})",
        "mean_validation_auc": float(
            auc_or_default(loaded[mname][ref_val], ref_y[ref_val])[0]
            if ref_val is not None else pooled_aucs[mname]),
        "fold_validation_aucs": [],
        "pooled_test_auc": float(pooled_aucs[mname]),
        "n_draws_tried": 0, "n_draws_failed": 0,
        "fold_thresholds": [{
            "fold": 0, "t_max": float(thresholds[mname].t_max),
            "achieved_ba": float(thresholds[mname].achieved_ba),
            "n_candidates": thresholds[mname].n_candidates,
            "degenerate": bool(thresholds[mname].degenerate)}],
    } for mname in models]

    bundle = {
        "schema_version": 1,
        "mode": "audit",
        "metric_names": list(METRIC_NAMES),
        "run": {
            "seeds": [0],
            "n_folds": 1,
            "validation_fraction": (float(ref_val.mean())
                                    if ref_val is not None else 0.0),
            "search_draws": 0,
            "model_kinds": list(models),
            "plot_models": None,
        },
        "datasets": [{
            "name": dataset_name,
            "source_path": ",".join(p for _, p in prediction_files),
            "kept_rows": n_total,
            "dropped_rows": int(n_all - n_total),
            "label_column": "y_true",
            "positive_meaning": "declared-by-caller",
            "notes": [],
            "features": features_out,
        }],
        "training": training_entries,
        "robustness": _robustness_summary(col_vectors, (0,)),
    }
    return bundle, []


# ---------------------------------------------------------------------------
# output writing and subcommands

def _default_out(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("FAIRLENS_OUT", "out")


def write_outputs(bundle: dict | None, failures: list[dict],
                  out_dir: str | Path) -> int:
    out_dir = Path(out_dir)
    if bundle is not None:
        export_bundle(bundle, out_dir / "bundle.json")
        written = render_all(bundle, out_dir)
        log.info("wrote bundle.json and %d artifact files under %s",
                 len(written), out_dir)
    if failures:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = out_dir / "failures.json"
        with open(manifest, "w", encoding="utf-8", newline="") as fh:
            json.dump({"failures": failures}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.error("%d cell(s) failed; manifest at %s", len(failures), manifest)
        return 1
    return 0


def _cmd_run(args) -> int:
    raw = load_run_config(args.config) if args.config else {}
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE

    specs = (args.datasets.split(",") if args.datasets
             else raw.get("datasets", []))
    seeds = _resolve_seeds(args.seeds if args.seeds is not None
                           else raw.get("seeds", scale["seeds"]))
    folds = args.folds if args.folds is not None else raw.get("folds", scale["folds"])
    draws = args.search_draws if args.search_draws is not None \
        else raw.get("draws", scale["draws"])
    models = (args.models.split(",") if args.models
              else raw.get("models", list(MODEL_KINDS)))
    vf = args.validation_fraction if args.validation_fraction is not None \
        else raw.get("validation_fraction", DEFAULT_VALIDATION_FRACTION)
    plot = (args.plot_models.split(",") if args.plot_models
            else raw.get("plot_models"))
    out_dir = args.out or raw.get("out") or os.environ.get("FAIRLENS_OUT", "out")

    config = RunConfig(
        dataset_specs=tuple(specs), seeds=seeds, n_folds=int(folds),
        validation_fraction=float(vf), model_kinds=tuple(models),
        search_draws=int(draws), out_dir=str(out_dir),
        plot_models=tuple(plot) if plot else None, jobs=args.jobs,
    )
    bundle, failures = run_pipeline(config)
    if bundle is None:
        log.error("no cell completed; nothing to export")
    return write_outputs(bundle, failures, config.out_dir)


def _cmd_audit(args) -> int:
    files = []
    for item in args.predictions:
        if "=" not in item:
            raise ConfigError(f"--predictions wants NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        files.append((name, path))
    features = args.features.split(",")
    bundle, failures = audit_external_predictions(
        files, features, threshold=args.threshold,
        validation_column=args.validation_column, dataset_name=args.name)
    return write_outputs(bundle, failures, _default_out(args))


def _cmd_report(args) -> int:
    bundle = load_bundle(args.bundle)
    out_dir = args.out or str(Path(args.bundle).parent)
    written = render_all(bundle, out_dir)
    log.info("re-rendered %d files under %s", len(written), out_dir)
    return 0


def _iter_records(bundle: dict, dataset: str | None, feature: str | None,
                  seed: int | None):
    for ds in bundle["datasets"]:
        if dataset and ds["name"] != dataset:
            continue
        for feat in ds["features"]:
            if feature and feat["name"] != feature:
                continue
            for rec in feat["results"]:
                if seed is not None and rec["seed"] != seed:
                    continue
                yield ds, feat, rec


def _cmd_cluster(args) -> int:
    bundle = load_bundle(args.bundle)
    touched = 0
    for ds, feat, rec in _iter_records(bundle, args.dataset, args.feature,
                                       args.seed):
        matrix = matrix_from_record(ds["name"], feat["name"], rec)
        for axis, key_d, key_l in (("columns", "col_distance", "col_linkage"),
                                   ("rows", "row_distance", "row_linkage")):
            labels = (matrix.metric_names if axis == "columns"
                      else tuple(str(r) for r in matrix.rows))
            dist = correlation_distance(matrix.values, axis, labels)
            link = upgma(dist)
            rec[key_d] = {
                "labels": list(dist.labels),
                "condensed": [float(v) for v in dist.condensed],
                "degenerate_pairs": [[i, j] for i, j in dist.degenerate_pairs],
            }
            rec[key_l] = [[l, r, float(h), s] for l, r, h, s in link.merges]
            if args.k is not None and axis == args.axis:
                flat = cut_clusters(link, args.k)
                pairs = ", ".join(f"{lab}={int(c)}"
                                  for lab, c in zip(labels, flat))
                print(f"{ds['name']}/{feat['name']}/seed{rec['seed']} "
                      f"{axis} k={args.k}: {pairs}")
        touched += 1
    if touched == 0:
        log.error("no matching cells in bundle")
        return 1
    export_bundle(bundle, args.out or args.bundle)
    return 0


def _cmd_pca(args) -> int:
    bundle = load_bundle(args.bundle)
    touched = 0
    for ds, feat, rec in _iter_records(bundle, args.dataset, args.feature,
                                       args.seed):
        matrix = matrix_from_record(ds["name"], feat["name"], rec)
        pca_rec = rec["pca"]
        if pca_rec is None:
            continue
        group_labels = tuple(pca_rec["group_labels"])
        k = min(args.components, component_cap(len(group_labels))) \
            if args.components else component_cap(len(group_labels))
        ref_kind = pca_rec["reference_model"]
        model = fit_pca(per_model_matrix(matrix, ref_kind).values, k,
                        fitted_on=f"{ds['name']}/{feat['name']}/"
                                  f"seed{rec['seed']}/{ref_kind}")
        kinds = sorted(pca_rec["coords"], key=kind_sort_key)
        projections = {kk: project(per_model_matrix(matrix, kk).values, model)
                       for kk in kinds}
        aligned = align_to_reference(projections, group_labels,
                                     pca_rec["reference_group"],
                                     model.explained_variance_ratios)
        rec["pca"] = {
            "reference_model": ref_kind,
            "reference_group": pca_rec["reference_group"],
            "k": model.k,
            "eigenvectors": [[float(v) for v in row]
                             for row in model.eigenvectors],
            "column_means": [float(v) for v in model.column_means],
            "ratios": [float(v) for v in model.explained_variance_ratios],
            "group_labels": list(group_labels),
            "coords": {kk: [[float(v) for v in row] for row in aligned.coords[kk]]
                       for kk in kinds},
        }
        ratios = ", ".join(f"{r:.3f}" for r in model.explained_variance_ratios)
        print(f"{ds['name']}/{feat['name']}/seed{rec['seed']}: "
              f"k={model.k} ratios=[{ratios}]")
        touched += 1
    if touched == 0:
        log.error("no matching cells in bundle")
        return 1
    export_bundle(bundle, args.out or args.bundle)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairlens",
        description="Group-fairness audit: metrics, clustering, PCA, reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline on configured datasets")
    run.add_argument("--config", help="run config file (JSON)")
    run.add_argument("--datasets", help="comma-separated dataset spec paths "
                                        "(overrides config)")
    run.add_argument("--seeds", type=int, default=None,
                     help="number of seeds (0..N-1)")
    run.add_argument("--folds", type=int, default=None)
    run.add_argument("--search-draws", "--draws", dest="search_draws",
                     type=int, default=None)
    run.add_argument("--models", help="comma-separated model kinds")
    run.add_argument("--validation-fraction", type=float, default=None)
    run.add_argument("--plot-models", help="models shown in figures "
                                           "(default: top two by test AUC)")
    run.add_argument("--paper-scale", action="store_true",
                     help="seeds=10, folds=10, draws=30")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel training jobs")
    run.add_argument("--out", help="output directory (default $FAIRLENS_OUT "
                                   "or ./out)")
    run.set_defaults(func=_cmd_run)

    audit = sub.add_parser("audit", help="audit external prediction files")
    audit.add_argument("--predictions", action="append", required=True,
                       metavar="NAME=PATH",
                       help="prediction CSV for one model; repeatable")
    audit.add_argument("--features", required=True,
                       help="comma-separated protected feature columns")
    audit.add_argument("--threshold", type=float, default=None,
                       help="fixed decision threshold (default 0.5)")
    audit.add_argument("--validation-column", default=None,
                       help="0/1 column marking threshold-selection rows")
    audit.add_argument("--name", default="audit", help="dataset name in outputs")
    audit.add_argument("--out")
    audit.set_defaults(func=_cmd_audit)

    rep = sub.add_parser("report", help="re-render figures from a bundle")
    rep.add_argument("--bundle", required=True)
    rep.add_argument("--out")
    rep.set_defaults(func=_cmd_report)

    clu = sub.add_parser("cluster", help="re-cluster matrices in a bundle")
    clu.add_argument("--bundle", required=True)
    clu.add_argument("--k", type=int, default=None,
                     help="also print flat clusters at this count")
    clu.add_argument("--axis", choices=["columns", "rows"], default="columns")
    clu.add_argument("--dataset")
    clu.add_argument("--feature")
    clu.add_argument("--seed", type=int, default=None)
    clu.add_argument("--out", help="write updated bundle here "
                                   "(default: in place)")
    clu.set_defaults(func=_cmd_cluster)

    pca = sub.add_parser("pca", help="re-project matrices in a bundle")
    pca.add_argument("--bundle", required=True)
    pca.add_argument("--components", type=int, default=None)
    pca.add_argument("--dataset")
    pca.add_argument("--feature")
    pca.add_argument("--seed", type=int, default=None)
    pca.add_argument("--out", help="write updated bundle here "
                                   "(default: in place)")
    pca.set_defaults(func=_cmd_pca)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PredictionFileError, BundleError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except (IngestError, OSError) as exc:
        log.error("%s", exc)
        return 1

