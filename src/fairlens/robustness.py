"""Cross-condition stability of the metric-relationship structure.

Each (dataset, protected feature) condition yields a column-axis distance
vector over the 13 metrics (length 78). Correlating those vectors across
conditions asks whether the metric relationships generalize; aggregating the
per-seed correlation matrices gives the mean/std summary, which the bundle's
robustness record holds and the robustness heatmap reads. Only column-axis
vectors are comparable across datasets: row-axis vectors have
dataset-dependent length.
"""

from __future__ import annotations

import numpy as np

from .cluster import DistanceVector, pearson


def distance_vector_correlation(d_a: DistanceVector, d_b: DistanceVector) -> float:
    """Pearson correlation of two condensed metric-distance vectors.

    Identical vectors correlate 1.0 even when constant; otherwise a constant
    vector correlates 0.0 by convention (same degeneracy rule as the
    clustering distances).
    """
    if d_a.axis != "columns" or d_b.axis != "columns":
        raise ValueError("cross-condition correlation is defined for column-axis "
                         f"vectors, got {d_a.axis!r} and {d_b.axis!r}")
    if d_a.condensed.shape != d_b.condensed.shape:
        raise ValueError(f"length mismatch: {d_a.condensed.shape} vs {d_b.condensed.shape}")
    if np.array_equal(d_a.condensed, d_b.condensed):
        return 1.0
    for v in (d_a.condensed, d_b.condensed):
        if np.all(v == v[0]):
            return 0.0
    return pearson(d_a.condensed, d_b.condensed)


def correlation_matrix(vectors: list[DistanceVector]) -> np.ndarray:
    """Symmetric condition-by-condition correlation matrix, unit diagonal."""
    n = len(vectors)
    if n < 1:
        raise ValueError("no distance vectors")
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = distance_vector_correlation(vectors[i], vectors[j])
    return out


def aggregate_over_seeds(
    conditions: list[tuple[str, str]],
    matrices: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise mean and population std of per-seed correlation matrices
    over the (dataset, feature) conditions; the mean is symmetric with a
    unit diagonal, the std symmetric with a zero diagonal."""
    if not matrices:
        raise ValueError("need at least one seed matrix")
    n = len(conditions)
    for k, m in enumerate(matrices):
        if m.shape != (n, n):
            raise ValueError(
                f"seed {k}: matrix shape {m.shape} does not match "
                f"{n} conditions"
            )
    stack = np.stack(matrices)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=0)
    # cells identical across seeds (the diagonal always is) are exactly
    # constant; pin them so rounding noise cannot leak into the summary
    same = np.all(stack == stack[0], axis=0)
    mean[same] = stack[0][same]
    std[same] = 0.0
    return mean, std
