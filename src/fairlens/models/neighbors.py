"""k-nearest-neighbors scoring with tie-aware neighbor averaging.

Score = expected positive fraction among the k nearest training rows. Rows
tied exactly at the k-th distance are averaged collectively (each
boundary row contributes its share of the remaining slots), which makes
predictions invariant under any permutation of the training data even when
encoded rows collide.

A distance is the sum over the features, in feature order, of the terms
d (manhattan), d * d (euclidean) or d * d * d (minkowski), where d is
|q - v| for query value q and training value v. No root is taken: the root is monotone, so the sums rank the
neighbors as the distances would, and only order and ties at the k-th
distance enter the score. Every operation is an elementwise IEEE
subtract, abs, multiply or add, so the bits do not depend on the CPU or on
numpy's SIMD level.

Encoded features are mostly discrete, so training rows, query rows and the
values of each feature repeat. Scoring works on distinct rows and values
and gives the same bits as comparing every query row with every training
row:

- Training rows are kept once each, with their count and positive count.
  Equal rows have equal distances to any query, and the neighbor sums
  (rows closer than the k-th distance, rows at it, positives among both)
  become count-weighted sums of whole numbers, which float64 holds
  exactly in any order. The k-th distance is the first sorted distinct
  distance whose cumulative count reaches k.
- Each distinct query row is scored once and its score copied to every
  row equal to it.
- For a block of query rows, the terms are computed once per distinct
  feature value v, into a value-major (distinct values, block) table.
  Each feature's terms for every distinct training row are then one row
  gather from that table, a (distinct rows, block) slab, added in place
  into the running sum.

The table and the two slabs (the sum and the gathered terms) are
allocated once per call, and a smaller last block uses the head of the
same buffers, so memory is O(block x (distinct values + distinct training
rows)) however many query rows and features there are.
"""

from __future__ import annotations

import numpy as np

from .base import KNN_METRICS

# distinct query rows per block; the (distinct rows, block) slabs then stay
# small enough for the cache even with no repeated rows
_BLOCK = 32


def _terms(diff: np.ndarray, metric: str, scratch: np.ndarray) -> None:
    """Turn absolute differences into per-feature distance terms, in place;
    the cube goes through scratch, len(scratch) rows at a time."""
    if metric == "euclidean":
        np.multiply(diff, diff, out=diff)
    elif metric == "minkowski":  # exponent 3, distinct from the other two
        for lo in range(0, len(diff), len(scratch)):
            d = diff[lo:lo + len(scratch)]
            np.multiply(d, np.multiply(d, d, out=scratch[:len(d)]), out=d)
    elif metric != "manhattan":
        raise ValueError(f"unknown metric {metric!r}")


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
        # all features' distinct values in one vector; _index[j, r] is the
        # position of distinct row r's value of feature j in it
        values, owner = [], []
        index = np.empty(rows.shape[::-1], dtype=np.intp)
        offset = 0
        for j in range(rows.shape[1]):
            v, inv = np.unique(rows[:, j], return_inverse=True)
            values.append(v)
            owner.append(np.full(v.size, j))
            index[j] = inv.reshape(-1) + offset
            offset += v.size
        self._values = np.concatenate(values)
        self._owner = np.concatenate(owner)
        self._index = index
        return self

    def _distances(self, block: np.ndarray, table: np.ndarray,
                   slabs: np.ndarray) -> np.ndarray:
        """Summed terms from each distinct training row to each block row.

        table (distinct values x block) and slabs (2 x distinct rows x
        block) are contiguous work space; the result is slabs[0].
        """
        # the indices are in range; mode="clip" lets take write straight
        # into out instead of through a buffer
        np.take(block.T, self._owner, axis=0, out=table, mode="clip")
        np.subtract(table, self._values[:, None], out=table)
        np.abs(table, out=table)
        summed, term = slabs
        _terms(table, self.metric, term)
        np.take(table, self._index[0], axis=0, out=summed, mode="clip")
        for index in self._index[1:]:
            np.take(table, index, axis=0, out=term, mode="clip")
            summed += term
        return summed

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self._n_features is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {X.shape[1]}")
        X = np.asarray(X, dtype=np.float64)
        queries, inverse = np.unique(X, axis=0, return_inverse=True)
        k = min(self.n_neighbors, self._n_train)
        counts, positives = self._counts, self._positives
        n_rows, n_values = counts.size, self._values.size
        # each distinct row counts at least once, so the k-th distance is
        # among the `near` smallest distinct distances
        near = min(k, n_rows)
        rows = min(_BLOCK, queries.shape[0])
        table_space = np.empty(n_values * rows)
        # slabs[1] ends up holding the query-major copy of the sums
        slab_space = np.empty(2 * n_rows * rows)
        out = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], _BLOCK):
            block = queries[start:start + _BLOCK]
            b = block.shape[0]
            slabs = slab_space[:2 * n_rows * b].reshape(2, n_rows, b)
            summed = self._distances(
                block, table_space[:n_values * b].reshape(n_values, b), slabs)
            d = slabs[1].reshape(b, n_rows)
            np.copyto(d, summed.T)
            part = np.argpartition(d, near - 1, axis=1)[:, :near]
            nearest = np.take_along_axis(
                part, np.argsort(np.take_along_axis(d, part, axis=1), axis=1),
                axis=1)
            d_near = np.take_along_axis(d, nearest, axis=1)
            near_counts = counts[nearest]
            first = np.argmax(np.cumsum(near_counts, axis=1) >= k, axis=1)
            kth = d_near[np.arange(b), first]

            # every row closer than the k-th distance is among the nearest;
            # rows at it may lie beyond them
            closer = d_near < kth[:, None]
            n_closer = np.sum(near_counts * closer, axis=1)
            pos_closer = np.sum(positives[nearest] * closer, axis=1)
            at_kth = np.flatnonzero(d == kth[:, None])
            query, row = np.divmod(at_kth, n_rows)
            n_bound = np.bincount(query, weights=counts[row], minlength=b)
            pos_bound = np.bincount(query, weights=positives[row], minlength=b)
            out[start:start + b] = (
                pos_closer + (k - n_closer) * pos_bound / n_bound
            ) / k
        return out[inverse.reshape(-1)]
