"""Command-line interface: argument parsing and file I/O.

Subcommands:
  run      full audit: ingest -> splits -> model search -> metrics ->
           matrices -> clustering -> PCA -> robustness -> figures + bundle
  audit    the same analysis on externally produced prediction files,
           skipping all training
  cluster  re-cluster matrices stored in an existing bundle
  pca      re-project matrices stored in an existing bundle
  report   re-render every figure and CSV from an existing bundle

This module reads configs and prediction files, writes the bundle, the
figures and the failure manifest, and hands everything else to
fairlens.pipeline. Exit code 0 means every requested (dataset, feature,
seed) cell completed; otherwise a machine-readable manifest is written to
<out>/failures.json and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
from pathlib import Path

import numpy as np

from . import MODEL_KINDS
from .ingest import (IngestError, decode_values, is_path_component,
                     read_columns, recode)
from .pipeline import (ConfigError, PredictionFileError, RunConfig,
                       audit_predictions, recluster, reproject, run_pipeline)
from .report import (BundleError, export_bundle, load_bundle, render_all,
                     schema_error, write_atomic)

log = logging.getLogger("fairlens")

DESK_SCALE = {"seeds": 3, "folds": 5, "draws": 10}
PAPER_SCALE = {"seeds": 10, "folds": 10, "draws": 30}
DEFAULT_VALIDATION_FRACTION = 0.10


_STRINGS = {"type": "array", "items": {"type": "string"}}
RUN_CONFIG_SCHEMA = {"type": "object", "properties": {
    "datasets": _STRINGS, "models": _STRINGS, "plot_models": _STRINGS,
    "seeds": {"type": ["integer", "array"], "items": {"type": "integer"}},
    "folds": {"type": "integer"}, "draws": {"type": "integer"},
    "validation_fraction": {"type": "number"}, "out": {"type": "string"},
}, "additionalProperties": False}


def load_run_config(path: str | Path) -> dict:
    """Read the structured run config (JSON; grammar documented in README)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    error = schema_error(RUN_CONFIG_SCHEMA, raw)
    if error:
        raise ConfigError(f"config {path}: {error}")
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
# audit-only mode: prediction files

def _decode_label(cell: str) -> int:
    cell = cell.strip()
    if cell not in ("0", "1"):
        raise ValueError(f"y_true must be 0 or 1, got {cell!r}")
    return int(cell)


def _decode_score(cell: str) -> float:
    try:
        s = float(cell)
    except ValueError:
        raise ValueError("non-numeric score") from None
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"score out of range: {s}")
    return s


def _group_decoder(feature: str):
    def decode(cell: str) -> str:
        cell = cell.strip()
        if not cell:
            raise ValueError(f"empty group in {feature!r}")
        return cell
    return decode


def _flag_decoder(column: str):
    def decode(cell: str) -> bool:
        cell = cell.strip()
        if cell not in ("0", "1"):
            raise ValueError(f"{column} must be 0 or 1")
        return cell == "1"
    return decode


def _read_prediction_file(path: str, features: list[str],
                          validation_column: str | None):
    """Read one prediction file: y_true, scores, group codes, validation flags.

    ingest.read_columns reads each column already coded, so each distinct
    cell is checked and converted once. An error names the first bad row
    (the header is row 1; blank lines are not counted) and, within it, the
    first failing column in the order y_true, y_score, features,
    validation column.

    Each feature maps to (labels, codes): its sorted distinct labels and,
    per row, the index of the row's label in them.
    """
    needed = ["y_true", "y_score"] + features
    decoders = [_decode_label, _decode_score] + [_group_decoder(f)
                                                 for f in features]
    if validation_column:
        needed.append(validation_column)
        decoders.append(_flag_decoder(validation_column))
    columns = read_columns(path, needed, PredictionFileError)
    if not columns[0][1].size:
        raise PredictionFileError(f"{path}: no data rows")

    coded, errors = [], []
    for k, ((values, codes), decode) in enumerate(zip(columns, decoders)):
        decoded, bad = decode_values(values, codes, decode)
        if bad:
            errors.append((bad[0], k, bad[1]))
        coded.append((decoded, codes))
    if errors:
        i, _, message = min(errors)
        raise PredictionFileError(f"{path}: row {i + 2}: {message}")

    def column_array(k, dtype):
        decoded, codes = coded[k]
        return np.array(decoded, dtype=dtype)[codes]

    groups = {feature: recode(decoded, codes)
              for feature, (decoded, codes) in zip(features, coded[2:])}
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

    Checks the arguments, reads every prediction file and checks that they
    agree on y_true, the group columns and the validation column, then
    hands the arrays to pipeline.audit_predictions.
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
    if len(set(features)) != len(features):
        raise PredictionFileError(f"repeated feature names in {features}")
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

    bundle = audit_predictions(
        loaded, ref_y, ref_groups, features, ref_val, threshold,
        dataset_name, ",".join(p for _, p in prediction_files))
    return bundle, []


# ---------------------------------------------------------------------------
# output writing and subcommands

def _default_out(args, configured: str | None = None) -> str:
    """--out, else the config's out, else $FAIRLENS_OUT, else ./out."""
    return args.out or configured or os.environ.get("FAIRLENS_OUT", "out")


def write_outputs(bundle: dict | None, failures: list[dict],
                  out_dir: str | Path) -> int:
    out_dir = Path(out_dir)
    if bundle is not None:
        export_bundle(bundle, out_dir / "bundle.json")
        written = render_all(bundle, out_dir)
        log.info("wrote bundle.json and %d artifact files under %s",
                 len(written), out_dir)
    if failures:
        manifest = write_atomic(
            out_dir / "failures.json",
            json.dumps({"failures": failures}, indent=2, sort_keys=True) + "\n")
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
    config = RunConfig(
        dataset_specs=tuple(specs), seeds=seeds, n_folds=int(folds),
        validation_fraction=float(vf), model_kinds=tuple(models),
        search_draws=int(draws),
        plot_models=tuple(plot) if plot else None, jobs=args.jobs,
    )
    bundle, failures = run_pipeline(config)
    if bundle is None:
        log.error("no cell completed; nothing to export")
    return write_outputs(bundle, failures, _default_out(args, raw.get("out")))


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


def _update_cells(args, update) -> int:
    """Call update(dataset, feature, record) on each bundle cell that
    matches --dataset, --feature and --seed, then write the bundle to --out
    (default: in place). update returns whether it changed the cell; exit
    code 1 when none changed. A cell that update rejects stops the command
    before anything is written."""
    bundle = load_bundle(args.bundle)
    touched = 0
    for ds in bundle["datasets"]:
        for feat in ds["features"]:
            for rec in feat["results"]:
                if ((args.dataset and ds["name"] != args.dataset)
                        or (args.feature and feat["name"] != args.feature)
                        or (args.seed is not None and rec["seed"] != args.seed)):
                    continue
                try:
                    touched += update(ds["name"], feat["name"], rec)
                except ValueError as exc:  # a --k or --components out of range
                    raise ConfigError(f"{ds['name']}/{feat['name']}/seed"
                                      f"{rec['seed']}: {exc}") from None
    if touched == 0:
        log.error("no matching cells in bundle")
        return 1
    export_bundle(bundle, args.out or args.bundle)
    return 0


def _cmd_cluster(args) -> int:
    def update(dataset, feature, rec):
        flat = recluster(rec, args.axis, args.k)
        if args.k is not None:
            pairs = ", ".join(f"{lab}={c}" for lab, c in flat)
            print(f"{dataset}/{feature}/seed{rec['seed']} "
                  f"{args.axis} k={args.k}: {pairs}")
        return True
    return _update_cells(args, update)


def _cmd_pca(args) -> int:
    def update(dataset, feature, rec):
        model = reproject(rec, args.components)
        if model is None:
            return False
        ratios = ", ".join(f"{r:.3f}" for r in model.explained_variance_ratios)
        print(f"{dataset}/{feature}/seed{rec['seed']}: "
              f"k={model.k} ratios=[{ratios}]")
        return True
    return _update_cells(args, update)


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

