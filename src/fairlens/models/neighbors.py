"""k-nearest-neighbors scoring with tie-aware neighbor averaging.

Score = expected positive fraction among the k nearest training rows. Rows
tied exactly at the k-th distance are averaged collectively (each
boundary row contributes its share of the remaining slots), which makes
predictions invariant under any permutation of the training data even when
encoded rows collide.

Encoded features are mostly discrete, so training rows, query rows and the
values of each feature repeat. Scoring works on distinct rows and values
and gives the same bits as comparing every query row with every training
row and summing each pair's terms with np.sum over the features:

- Training rows are kept once each, with their count and positive count.
  Equal rows have equal distances to any query, and the neighbor sums
  (rows closer than the k-th distance, rows at it, positives among both)
  become count-weighted sums of whole numbers, which float64 holds
  exactly in any order. The k-th distance is the first sorted distinct
  distance whose cumulative count reaches k.
- Each distinct query row is scored once and its score copied to every
  row equal to it.
- For a block of query rows, the per-feature terms d = |q - v|, d * d or
  np.power(d, 3) (the ufunc call d ** 3 makes) are computed once per
  distinct feature value v, into a value-major (distinct values, block)
  table. Each feature's terms for every distinct training row are then
  one row gather from that table, a (distinct rows, block) slab, and the
  slabs are added in place in the order numpy's pairwise summation adds
  a contiguous row of F values (_pairwise_sum). Every term comes from the
  same operands and operations as when each pair of rows is compared,
  and every sum adds them in the same order, so each distance keeps its
  bits. sqrt and cbrt then run on the contiguous sums, as before. The
  cube stays np.power: d * d * d rounds differently.

The table and the slabs are allocated once per call, and a smaller last
block uses the head of the same buffers. Up to 128 features the sum needs
at most five slabs, so memory is O(block x (distinct values + distinct
training rows)) however many query rows and features there are.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import KNN_METRICS

# distinct query rows per block; the (distinct rows, block) slabs then stay
# small enough for the cache even with no repeated rows
_BLOCK = 32

# numpy's pairwise summation: below 8 terms it adds in order, up to this
# many it runs 8 interleaved accumulators, above it splits in two
_PW_BLOCKSIZE = 128


def _sum_depth(n: int) -> int:
    """Slabs _pairwise_sum needs for n terms."""
    if n < 8:
        return min(n, 2)
    if n <= _PW_BLOCKSIZE:
        # four for the accumulator tree, one more to add a lane's later terms
        return 4 if n < 16 else 5
    n2 = n // 2 - (n // 2) % 8
    return max(_sum_depth(n2), 1 + _sum_depth(n - n2))


def _pairwise_sum(term: Callable[[int, np.ndarray], object], n: int,
                  slabs: np.ndarray, lo: int = 0) -> np.ndarray:
    """Sum terms lo .. lo + n - 1 into slabs[0], in numpy's order.

    term(i, out) writes term i into out. The additions are those numpy's
    pairwise_sum makes for an np.sum over a contiguous axis of length n,
    so every element gets the same bits; slabs[1:] (_sum_depth(n) slabs
    in all) is scratch. Accumulator j of the 8-way loop sums terms j,
    j + 8, j + 16, ... in order, so each is built whole, one after the
    other, and the tree ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    holds at most one partial sum per level.
    """
    acc = slabs[0]
    if n > _PW_BLOCKSIZE:
        n2 = n // 2 - (n // 2) % 8
        _pairwise_sum(term, n2, slabs, lo)
        _pairwise_sum(term, n - n2, slabs[1:], lo + n2)
        acc += slabs[1]
        return acc
    if n < 8:
        term(lo, acc)
        rest = range(lo + 1, lo + n)
    else:
        lanes_end = lo + n - n % 8

        def tree(j: int, width: int, s: int) -> None:
            if width > 1:
                tree(j, width // 2, s)
                tree(j + width // 2, width // 2, s + 1)
                slabs[s] += slabs[s + 1]
                return
            term(lo + j, slabs[s])
            for i in range(lo + j + 8, lanes_end, 8):
                term(i, slabs[s + 1])
                slabs[s] += slabs[s + 1]

        tree(0, 8, 0)
        rest = range(lanes_end, lo + n)
    for i in rest:
        term(i, slabs[1])
        acc += slabs[1]
    return acc


def _terms(diff: np.ndarray, metric: str) -> None:
    """Turn absolute differences into per-feature distance terms, in place."""
    if metric == "euclidean":
        np.multiply(diff, diff, out=diff)
    elif metric == "minkowski":  # exponent 3, distinct from the other two
        np.power(diff, 3, out=diff)
    elif metric != "manhattan":
        raise ValueError(f"unknown metric {metric!r}")


def _finish(summed: np.ndarray, metric: str) -> None:
    """Turn summed terms into distances, in place."""
    if metric == "euclidean":
        np.sqrt(summed, out=summed)
    elif metric == "minkowski":
        np.cbrt(summed, out=summed)


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
        """Distances from each distinct training row to each block row.

        table (distinct values x block) and slabs (_sum_depth(features) x
        distinct rows x block) are contiguous work space; the result is
        slabs[0].
        """
        # the indices are in range; mode="clip" lets take write straight
        # into out instead of through a buffer
        np.take(block.T, self._owner, axis=0, out=table, mode="clip")
        np.subtract(table, self._values[:, None], out=table)
        np.abs(table, out=table)
        _terms(table, self.metric)
        index = self._index
        summed = _pairwise_sum(
            lambda j, out: np.take(table, index[j], axis=0, out=out,
                                   mode="clip"),
            index.shape[0], slabs)
        _finish(summed, self.metric)
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
        # slabs[1] then takes the query-major copy of the distances
        depth = max(_sum_depth(self._n_features), 2)
        rows = min(_BLOCK, queries.shape[0])
        table_space = np.empty(n_values * rows)
        slab_space = np.empty(depth * n_rows * rows)
        out = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], _BLOCK):
            block = queries[start:start + _BLOCK]
            b = block.shape[0]
            slabs = slab_space[:depth * n_rows * b].reshape(depth, n_rows, b)
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
