"""Metrics-matrix assembly, fold pooling and column variances.

The matrix M_p for protected feature p stacks one 13-entry metric row per
(model, group) pair: models outer in canonical kind order, groups inner in
their canonical order (descending size, then label). Flags ride along cell
by cell. Column variances are population variances, which makes the
complement-pair equality Var(c) = Var(1-c) an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import METRIC_NAMES, MODEL_KINDS
from .metrics import MetricVector, group_metric_vectors


def kind_sort_key(kind: str) -> tuple[int, int, str]:
    """Canonical kinds in fixed order; other names (external audited
    models) sort after them, lexicographically."""
    if kind in MODEL_KINDS:
        return (0, MODEL_KINDS.index(kind), "")
    return (1, 0, kind)


@dataclass(frozen=True)
class RowKey:
    group: str
    model: str
    protected_feature: str

    def __str__(self) -> str:
        return f"{self.model}:{self.group}"


@dataclass(frozen=True)
class Provenance:
    dataset: str
    feature: str
    seed: int


@dataclass
class MetricsMatrix:
    rows: tuple[RowKey, ...]
    metric_names: tuple[str, ...]
    values: np.ndarray            # I x J
    flags: np.ndarray             # I x J bool
    column_variances: np.ndarray  # J
    provenance: Provenance


def _column_variances(values: np.ndarray) -> np.ndarray:
    return np.var(values, axis=0, ddof=0)


def assemble_matrix(
    vectors: dict[str, dict[str, MetricVector]],
    feature: str,
    group_order: tuple[str, ...] | list[str],
    provenance: Provenance,
) -> MetricsMatrix:
    """Stack per-(model, group) metric vectors into M_p.

    vectors maps model kind -> group label -> MetricVector; every model must
    cover every group in group_order.
    """
    if not vectors:
        raise ValueError("no model vectors to assemble")
    models = sorted(vectors, key=kind_sort_key)
    rows: list[RowKey] = []
    data: list[np.ndarray] = []
    flag_rows: list[np.ndarray] = []
    for model in models:
        by_group = vectors[model]
        for group in group_order:
            if group not in by_group:
                raise ValueError(f"missing metric vector for ({model!r}, {group!r})")
            v = by_group[group]
            rows.append(RowKey(group=group, model=model, protected_feature=feature))
            data.append(v.values)
            flag_rows.append(v.flags)
    values = np.vstack(data)
    return MetricsMatrix(
        rows=tuple(rows),
        metric_names=METRIC_NAMES,
        values=values,
        flags=np.vstack(flag_rows),
        column_variances=_column_variances(values),
        provenance=provenance,
    )


def per_model_matrix(m: MetricsMatrix, model: str) -> MetricsMatrix:
    """Restrict M_p to one model's G rows, preserving group order."""
    idx = [i for i, r in enumerate(m.rows) if r.model == model]
    if not idx:
        raise ValueError(f"model {model!r} not present in matrix")
    values = m.values[idx]
    return MetricsMatrix(
        rows=tuple(m.rows[i] for i in idx),
        metric_names=m.metric_names,
        values=values,
        flags=m.flags[idx],
        column_variances=_column_variances(values),
        provenance=m.provenance,
    )


def aggregate_over_folds(
    fold_scores: list[np.ndarray],
    fold_labels: list[np.ndarray],
    fold_assignments: list[np.ndarray],
    thresholds: list[float],
    group_labels: tuple[str, ...] | list[str],
    n_total: int,
) -> dict[str, MetricVector]:
    """One MetricVector per group, pooled over the test folds.

    The folds' rows are concatenated and each row is judged against its own
    fold's threshold, so a group's confusion counts are the sums of its
    per-fold counts (micro aggregation). AUC ranks the group's pooled rows,
    kept in fold order. A group absent from every fold gets the fully
    imputed vector; an audit is the case of a single fold.
    """
    if not fold_scores:
        raise ValueError("need at least one fold")
    row_thresholds = np.repeat(np.asarray(thresholds, dtype=np.float64),
                               [len(s) for s in fold_scores])
    return group_metric_vectors(
        np.concatenate(fold_scores), np.concatenate(fold_labels),
        np.concatenate(fold_assignments), group_labels, row_thresholds,
        n_total)


def matrix_csv_text(m: MetricsMatrix) -> str:
    """CSV export: one line per row key "model:group", 17-sig-digit values."""
    lines = ["row," + ",".join(m.metric_names)]
    for key, row in zip(m.rows, m.values):
        cells = ",".join("%.17g" % v for v in row)
        lines.append(f"{key},{cells}")
    return "\n".join(lines) + "\n"
