"""Span tracing of fairlens from outside the package.

The tracer wraps the public functions of each fairlens module and installs
each wrapper under every name a caller looks it up by: `cli.py` imports
names directly (`from .metrics import select_threshold`), so patching
`fairlens.metrics.select_threshold` alone would miss its calls. For each
target, every loaded fairlens module that holds the original function
object gets the wrapper. The defining module is patched only where the
function's own module calls it (for example `auc_or_default`, which
`group_metric_vectors` calls); `confusion_at_threshold` is left unpatched
inside `metrics`, or every candidate of `select_threshold`'s sweep would
become a span.

Spans are (name, parent, start, end, attrs), kept in memory and written
out when the run ends. A span's self time is its duration minus the time
its direct children cover; self times of all spans add up to the root
span, so per-layer times account for the whole traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

MODEL_KINDS = ("logit", "mlp", "knn", "rf", "tree", "nb")

# layer metric -> unit; the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS: dict[str, str] = {
    "ingest.load_s": "s",
    "ingest.fold_normalized_s": "s",
    "splits.kfold_s": "s",
    "search.self_s": "s",
    **{f"models.{m}.{k}": u for k in MODEL_KINDS
       for m, u in (("fit_s", "s"), ("fits", "count"),
                    ("predict_s", "s"), ("predict_rows", "count"))},
    **{f"search.{m}.{k}": "count" for k in MODEL_KINDS
       for m in ("draws", "unique_fits")},
    "cli.read_predictions_s": "s",
    "cli.read_predictions_rows": "count",
    "cli.self_s": "s",
    "metrics.select_threshold_s": "s",
    "metrics.select_threshold_calls": "count",
    "metrics.threshold_candidates": "count",
    "metrics.auc_s": "s",
    "metrics.auc_rows": "count",
    "metrics.group_vectors_s": "s",
    "fairmatrix.aggregate_s": "s",
    "fairmatrix.assemble_s": "s",
    "cluster.distance_s": "s",
    "cluster.upgma_s": "s",
    "pca.fit_s": "s",
    "robustness.summary_s": "s",
    "report.export_s": "s",
    "report.bundle_bytes": "bytes",
    "report.render_s": "s",
    "report.files_written": "count",
}
OVERHEAD_METRIC = "trace.overhead_s"  # measured by the runner, not here


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start_ns, end_ns, attrs]
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """Wrap fn so each call records a span.

        name is a string or a function of the call's arguments; attrs, if
        given, maps (args, result) to a dict stored on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(*args) if callable(name) else name,
                    self._stack[-1] if self._stack else None,
                    time.perf_counter_ns(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result
        return traced


# (defining module, function, span name, attrs, patch the defining module)
TARGETS = (
    ("fairlens.ingest", "load_dataset_spec", "ingest.load", None, False),
    ("fairlens.ingest", "load_dataset", "ingest.load", None, False),
    ("fairlens.ingest", "encode_features", "ingest.load", None, False),
    ("fairlens.ingest", "extract_groups", "ingest.load", None, False),
    ("fairlens.ingest", "fold_normalized", "ingest.fold_normalized", None, False),
    ("fairlens.splits", "kfold_splits", "splits.kfold", None, False),
    ("fairlens.models.search", "search_kind", "search.kind",
     lambda a, r: {"kind": a[0], "draws": len(a[1])}, False),
    ("fairlens.models.base", "train", lambda draw, *a: f"models.fit.{draw.kind}",
     lambda a, r: {"sig": a[0].signature}, False),
    ("fairlens.models.base", "predict_scores",
     lambda trained, *a: f"models.predict.{trained.kind}",
     lambda a, r: {"rows": int(len(a[1]))}, True),
    ("fairlens.cli", "_read_prediction_file", "cli.read_predictions",
     lambda a, r: {"rows": int(len(r[0]))}, True),
    ("fairlens.metrics", "select_threshold", "metrics.select_threshold",
     lambda a, r: {"candidates": int(r.n_candidates)}, False),
    ("fairlens.metrics", "auc_or_default", "metrics.auc",
     lambda a, r: {"rows": int(len(a[0]))}, True),
    ("fairlens.metrics", "group_metric_vectors", "metrics.group_vectors",
     None, False),
    ("fairlens.metrics", "confusion_at_threshold", "metrics.group_vectors",
     None, False),
    ("fairlens.fairmatrix", "aggregate_over_folds", "fairmatrix.aggregate",
     None, False),
    ("fairlens.fairmatrix", "assemble_matrix", "fairmatrix.assemble",
     None, False),
    ("fairlens.cluster", "correlation_distance", "cluster.distance", None, False),
    ("fairlens.cluster", "upgma", "cluster.upgma", None, False),
    ("fairlens.pca", "fit_pca", "pca.fit", None, False),
    ("fairlens.pca", "full_matrix_pca", "pca.fit", None, False),
    ("fairlens.pca", "project", "pca.fit", None, False),
    ("fairlens.pca", "align_to_reference", "pca.fit", None, False),
    ("fairlens.robustness", "correlation_matrix", "robustness.summary",
     None, False),
    ("fairlens.robustness", "aggregate_over_seeds", "robustness.summary",
     None, False),
    ("fairlens.report", "export_bundle", "report.export",
     lambda a, r: {"bytes": r.stat().st_size}, False),
    ("fairlens.report", "render_all", "report.render",
     lambda a, r: {"files": len(r)}, False),
)


def install(tracer: Tracer) -> int:
    """Patch every caller-side name of every target; return the patch count.

    Raises LookupError when a target no longer exists or no module calls
    it by that name, so a renamed function cannot drop out of the trace
    unnoticed.
    """
    import fairlens

    for info in pkgutil.walk_packages(fairlens.__path__, "fairlens."):
        importlib.import_module(info.name)
    modules = {name: importlib.import_module(name) for name in
               sorted(n for n in sys.modules
                      if n == "fairlens" or n.startswith("fairlens."))}
    patched = 0
    for home, fname, span_name, attrs, patch_home in TARGETS:
        original = getattr(modules[home], fname, None)
        if original is None:
            raise LookupError(f"trace target {home}.{fname} not found")
        wrapper = tracer.wrap(original, span_name, attrs)
        hits = 0
        for mname, module in modules.items():
            if mname == home and not patch_home:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"no caller looks up {home}.{fname}")
        patched += hits
    return patched


def self_times(spans: list[list]) -> list[int]:
    """Per-span duration minus the duration of its direct children (ns)."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[3] - s[2]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into every LAYER_METRICS entry; absent layers read 0."""
    out: dict[str, float] = {name: 0 for name in LAYER_METRICS}
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    sigs: dict[int, set] = defaultdict(set)
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        seconds[name] += own[i] / 1e9
        attrs = attrs or {}  # a call that raised recorded no attributes
        if name.startswith("models.fit."):
            kind = name.rsplit(".", 1)[1]
            out[f"models.fits.{kind}"] += 1
            if "sig" in attrs:
                sigs[parent].add(attrs["sig"])
        elif name.startswith("models.predict."):
            kind = name.rsplit(".", 1)[1]
            out[f"models.predict_rows.{kind}"] += attrs.get("rows", 0)
        elif name == "search.kind" and attrs:
            out[f"search.draws.{attrs['kind']}"] += attrs["draws"]
        elif name == "cli.read_predictions":
            out["cli.read_predictions_rows"] += attrs.get("rows", 0)
        elif name == "metrics.select_threshold":
            out["metrics.select_threshold_calls"] += 1
            out["metrics.threshold_candidates"] += attrs.get("candidates", 0)
        elif name == "metrics.auc":
            out["metrics.auc_rows"] += attrs.get("rows", 0)
        elif name == "report.export":
            out["report.bundle_bytes"] += attrs.get("bytes", 0)
        elif name == "report.render":
            out["report.files_written"] += attrs.get("files", 0)
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if name == "search.kind" and attrs:
            out[f"search.unique_fits.{attrs['kind']}"] += len(sigs[i])
    for name, secs in seconds.items():
        if name.startswith(("models.fit.", "models.predict.")):
            _, what, kind = name.split(".")
            out[f"models.{what}_s.{kind}"] += secs
        elif name == "search.kind":
            out["search.self_s"] += secs
        elif name == "cli.main":
            out["cli.self_s"] += secs
        else:
            key = f"{name}_s"
            if key not in out:
                raise KeyError(f"span {name!r} maps to no layer metric")
            out[key] += secs
    return out
