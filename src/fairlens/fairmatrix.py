"""Metrics-matrix assembly and fold pooling.

The matrix M_p for protected feature p stacks each model's (groups, 13)
metric table: one row per (model, group) pair, keyed "model:group" as in
the bundle, models outer in canonical kind order, groups inner in their
canonical order (descending size, then label). The bundle's cell record
holds the row keys, values and flags as assembled here; its column
variances are population variances, which makes the complement-pair
equality Var(c) = Var(1-c) an exact identity.
"""

from __future__ import annotations

import numpy as np

from . import METRIC_NAMES, MODEL_KINDS
from .metrics import group_metric_vectors


def kind_sort_key(kind: str) -> tuple[int, int, str]:
    """Canonical kinds in fixed order; other names (external audited
    models) sort after them, lexicographically."""
    if kind in MODEL_KINDS:
        return (0, MODEL_KINDS.index(kind), "")
    return (1, 0, kind)


def assemble_matrix(tables: dict[str, tuple[np.ndarray, np.ndarray]],
                    group_order) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Stack each model's metric table into M_p; tables maps model ->
    (values, flags), each with one row per group of group_order.

    Returns the "model:group" row keys, the I x J values and the I x J
    boolean flags.
    """
    if not tables:
        raise ValueError("no model metric tables to assemble")
    models = sorted(tables, key=kind_sort_key)
    shape = (len(group_order), len(METRIC_NAMES))
    for model in models:
        if any(np.shape(part) != shape for part in tables[model]):
            raise ValueError(f"metric table of {model!r} is not {shape}")
    return (tuple(f"{m}:{g}" for m in models for g in group_order),
            np.vstack([tables[m][0] for m in models]),
            np.vstack([tables[m][1] for m in models]))


def per_model_matrix(rows, values: np.ndarray, model: str) -> np.ndarray:
    """One model's G value rows of M_p, in group order."""
    idx = [i for i, r in enumerate(rows) if r.startswith(model + ":")]
    if not idx:
        raise ValueError(f"model {model!r} not present in matrix")
    return values[idx]


def aggregate_over_folds(
    fold_scores: list[np.ndarray],
    fold_labels: list[np.ndarray],
    fold_assignments: list[np.ndarray],
    thresholds: list[float],
    group_labels: tuple[str, ...] | list[str],
    n_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The metric table of the groups, pooled over the test folds.

    The folds' rows are concatenated and each row is judged against its own
    fold's threshold, so a group's confusion counts are the sums of its
    per-fold counts (micro aggregation). AUC ranks the group's pooled rows,
    kept in fold order. A group absent from every fold gets the fully
    imputed row; an audit is the case of a single fold.
    """
    if not fold_scores:
        raise ValueError("need at least one fold")
    row_thresholds = np.repeat(np.asarray(thresholds, dtype=np.float64),
                               [len(s) for s in fold_scores])
    return group_metric_vectors(
        np.concatenate(fold_scores), np.concatenate(fold_labels),
        np.concatenate(fold_assignments), group_labels, row_thresholds,
        n_total)


def matrix_csv_text(rec: dict) -> str:
    """CSV export of a cell record: one line per row key "model:group",
    17-sig-digit values."""
    lines = ["row," + ",".join(METRIC_NAMES)]
    for key, row in zip(rec["rows"], rec["values"]):
        cells = ",".join("%.17g" % v for v in row)
        lines.append(f"{key},{cells}")
    return "\n".join(lines) + "\n"
