"""k-nearest-neighbors scoring with tie-aware neighbor averaging.

Score = expected positive fraction among the k nearest training rows. Rows
tied exactly at the k-th distance are averaged collectively (each
boundary row contributes its share of the remaining slots), which makes
predictions invariant under any permutation of the training data even when
encoded rows collide.

Encoded features are mostly discrete, so training rows, query rows and the
values of each feature repeat. Scoring works on distinct rows and values
and gives the same bits as comparing every query row with every training
row:

- Training rows are kept once each, with their count and positive count.
  Equal rows have equal distances to any query, and the neighbor sums
  (rows closer than the k-th distance, rows at it, positives among both)
  become count-weighted sums of integers, which float64 holds exactly.
  The k-th distance is the first sorted distinct distance whose
  cumulative count reaches k.
- Each distinct query row is scored once and its score copied to every
  row equal to it.
- For a block of query rows, the per-feature terms d = |q - v|, d * d or
  np.power(d, 3) (the ufunc call d ** 3 makes) are computed once per
  distinct feature value v and gathered into a (block, distinct rows,
  features) array. Every element comes from the same operands and
  operations as when each pair of rows is compared, and the same np.sum
  over the last axis, sqrt and cbrt follow, so each distance keeps its
  summation order and its bits. The cube stays np.power: d * d * d
  rounds differently.

Both work arrays are allocated once per call and reused by every
block, so memory is O(block x distinct training rows x features) however
many query rows there are and whether or not any value repeats.
"""

from __future__ import annotations

import numpy as np

from .base import KNN_METRICS

# distinct query rows per block; the gathered block x rows x features
# array then stays small enough for the cache even with no repeated rows
_BLOCK = 32


def _terms(diff: np.ndarray, metric: str) -> None:
    """Turn absolute differences into per-feature distance terms, in place."""
    if metric == "euclidean":
        np.multiply(diff, diff, out=diff)
    elif metric == "minkowski":  # exponent 3, distinct from the other two
        np.power(diff, 3, out=diff)
    elif metric != "manhattan":
        raise ValueError(f"unknown metric {metric!r}")


def _finish(summed: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return np.sqrt(summed)
    if metric == "minkowski":
        return np.cbrt(summed)
    return summed


class Knn:
    def __init__(self, n_neighbors: int, metric: str = "euclidean"):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if metric not in KNN_METRICS:
            raise ValueError(f"metric must be one of {KNN_METRICS}")
        self.n_neighbors = n_neighbors
        self.metric = metric
        self._n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Knn":
        X = np.asarray(X, dtype=np.float64)
        rows, inverse, counts = np.unique(X, axis=0, return_inverse=True,
                                          return_counts=True)
        inverse = inverse.reshape(-1)
        self._n_train, self._n_features = X.shape
        self._counts = counts
        self._positives = np.bincount(
            inverse, weights=np.asarray(y, dtype=np.float64),
            minlength=rows.shape[0])
        # all features' distinct values in one vector; _index[r, j] is the
        # position of distinct row r's value of feature j in it
        values, owner, index = [], [], np.empty(rows.shape, dtype=np.intp)
        offset = 0
        for j in range(rows.shape[1]):
            v, inv = np.unique(rows[:, j], return_inverse=True)
            values.append(v)
            owner.append(np.full(v.size, j))
            index[:, j] = inv.reshape(-1) + offset
            offset += v.size
        self._values = np.concatenate(values)
        self._owner = np.concatenate(owner)
        self._index = index
        return self

    def _distances(self, block: np.ndarray, table: np.ndarray,
                   gathered: np.ndarray) -> np.ndarray:
        """Distances from each block row to each distinct training row.

        table (one column per distinct feature value) and gathered
        (distinct rows x features) are work space with one row per
        block row, reused across blocks.
        """
        # the indices are in range; mode="clip" lets take write straight
        # into out instead of through a buffer
        np.take(block, self._owner, axis=1, out=table, mode="clip")
        np.subtract(table, self._values, out=table)
        np.abs(table, out=table)
        _terms(table, self.metric)
        np.take(table, self._index, axis=1, out=gathered, mode="clip")
        return _finish(np.sum(gathered, axis=2), self.metric)

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self._n_features is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {X.shape[1]}")
        X = np.asarray(X, dtype=np.float64)
        queries, inverse = np.unique(X, axis=0, return_inverse=True)
        k = min(self.n_neighbors, self._n_train)
        counts, positives = self._counts, self._positives
        # each distinct row counts at least once, so the k-th distance is
        # among the `near` smallest distinct distances
        near = min(k, counts.size)
        rows = min(_BLOCK, queries.shape[0])
        table = np.empty((rows, self._values.size))
        gathered = np.empty((rows,) + self._index.shape)
        out = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], _BLOCK):
            block = queries[start:start + _BLOCK]
            b = block.shape[0]
            d = self._distances(block, table[:b], gathered[:b])
            part = np.argpartition(d, near - 1, axis=1)[:, :near]
            nearest = np.take_along_axis(
                part, np.argsort(np.take_along_axis(d, part, axis=1), axis=1),
                axis=1)
            first = np.argmax(np.cumsum(counts[nearest], axis=1) >= k, axis=1)
            at = np.arange(b)
            kth = d[at, nearest[at, first]]

            closer = d < kth[:, None]
            boundary = d == kth[:, None]
            n_closer = closer @ counts
            pos_closer = closer @ positives
            n_bound = boundary @ counts
            pos_bound = boundary @ positives
            out[start:start + b] = (
                pos_closer + (k - n_closer) * pos_bound / n_bound
            ) / k
        return out[inverse.reshape(-1)]
