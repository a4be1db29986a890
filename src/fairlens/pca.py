"""PCA over metric matrices with shared eigenvectors and reference alignment.

The eigenvector source is one chosen model's G x J matrix; every other
model's matrix is projected with those same eigenvectors (and the source's
column means), then each model's projection is translated so the reference
group sits at the origin. Sign ambiguity of the SVD is fixed by requiring
each eigenvector's largest-magnitude entry to be non-negative, which keeps
repeated runs byte-identical. The aligned coordinates go straight into the
bundle's pca record (pipeline.pca_record), which the scatter plot reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PcaModel:
    eigenvectors: np.ndarray              # K x J, orthonormal rows
    column_means: np.ndarray              # J
    explained_variance_ratios: np.ndarray  # K, descending, sums <= 1

    @property
    def k(self) -> int:
        return self.eigenvectors.shape[0]


def component_cap(n_groups: int) -> int:
    """Plot dimensionality: a centered G-row matrix has rank <= G-1,
    and more than 3 components stop being drawable."""
    return max(1, min(n_groups - 1, 3))


def fit_pca(matrix: np.ndarray, k: int) -> PcaModel:
    """Column-mean-centered SVD; top-k right singular rows as eigenvectors.

    Ratios are squared singular values over their total, so they measure
    each component's share of the matrix's full centered variance.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, j = matrix.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to fit, got {n}")
    cap = min(n - 1, j)
    if not 1 <= k <= cap:
        raise ValueError(f"k={k} out of range [1, {cap}] for a {n}x{j} matrix")
    means = matrix.mean(axis=0)
    centered = matrix - means
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(s ** 2))
    if total == 0.0:
        raise ValueError("all rows identical; PCA undefined on zero variance")
    vectors = vt[:k].copy()
    for row in vectors:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    ratios = (s[:k] ** 2) / total
    return PcaModel(eigenvectors=vectors, column_means=means,
                    explained_variance_ratios=ratios)


def project(matrix: np.ndarray, pca: PcaModel) -> np.ndarray:
    """Scores (rows - fit means) @ E^T; standard PCA scores for the fit matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != pca.column_means.shape[0]:
        raise ValueError(
            f"matrix width {matrix.shape} does not match fitted dimension "
            f"{pca.column_means.shape[0]}"
        )
    return (matrix - pca.column_means) @ pca.eigenvectors.T


def align_to_reference(
    projections: dict[str, np.ndarray],
    group_labels: tuple[str, ...] | list[str],
    reference: str,
) -> dict[str, np.ndarray]:
    """Translate each model's G x K projection so the reference group is
    the origin."""
    if reference not in group_labels:
        raise ValueError(f"reference group {reference!r} not among groups")
    r = list(group_labels).index(reference)
    aligned: dict[str, np.ndarray] = {}
    for model, coords in projections.items():
        if coords.shape[0] != len(group_labels):
            raise ValueError(
                f"model {model!r}: {coords.shape[0]} rows for "
                f"{len(group_labels)} groups"
            )
        aligned[model] = coords - coords[r]
    return aligned


def full_matrix_pca(matrix: np.ndarray) -> PcaModel:
    """PCA of the whole I x J stack, full rank, for variance reporting."""
    matrix = np.asarray(matrix, dtype=np.float64)
    k = min(matrix.shape[0] - 1, matrix.shape[1])
    return fit_pca(matrix, k)
