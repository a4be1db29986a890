"""Pearson-correlation distances and UPGMA (average-linkage) clustering.

Distances are 1 - rho with signed Pearson correlation, so exact complements
(rho = -1) sit at distance 2 and collinear items at 0. The agglomeration
uses the size-weighted Lance-Williams update, which is algebraically the
mean over all cross pairs of original leaf distances; the test suite checks
it against a naive direct-averaging reimplementation.

Merge list convention: leaves are 0..n-1, the cluster created by merge
step s gets id n+s; each merge records (left, right, height, size) with
left < right. Heights are the merge distances and are non-decreasing. A
tree over n leaves has n - 1 merges, so the functions that read one take
n from its length; a bundle's col_linkage and row_linkage are such lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class DistanceVector:
    axis: str                 # "columns" or "rows"
    condensed: np.ndarray     # length n(n-1)/2, pair order (0,1),(0,2)...
    labels: tuple[str, ...]
    degenerate_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def n_items(self) -> int:
        return len(self.labels)


def condensed_index(n: int, i: int, j: int) -> int:
    if i == j:
        raise ValueError("no self-distance in condensed form")
    if i > j:
        i, j = j, i
    return n * i - i * (i + 1) // 2 + (j - i - 1)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ZeroDivisionError("constant vector")
    return float(xc @ yc) / denom


def correlation_distance(matrix: np.ndarray, axis: str,
                         labels: tuple[str, ...] | list[str]) -> DistanceVector:
    """Condensed 1 - rho distances between columns or rows of a matrix.

    Degenerate pairs (a constant vector involved) get distance 1.0, except
    two equal constant vectors, which get 0.0; both cases are recorded in
    degenerate_pairs.
    """
    if axis not in ("columns", "rows"):
        raise ValueError(f"axis must be 'columns' or 'rows', got {axis!r}")
    items = matrix.T if axis == "columns" else matrix
    n = items.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 items along {axis}, got {n}")
    if items.shape[1] < 2:
        raise ValueError("each item needs at least 2 entries for correlation")
    if len(labels) != n:
        raise ValueError("label count does not match item count")
    condensed = np.empty(n * (n - 1) // 2, dtype=np.float64)
    degenerate: list[tuple[int, int]] = []
    constant = [bool(np.all(row == row[0])) for row in items]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if constant[i] or constant[j]:
                if constant[i] and constant[j] and items[i][0] == items[j][0]:
                    d = 0.0
                else:
                    d = 1.0  # rho treated as 0
                degenerate.append((i, j))
            else:
                d = 1.0 - pearson(items[i], items[j])
            condensed[pos] = min(2.0, max(0.0, d))
            pos += 1
    return DistanceVector(axis=axis, condensed=condensed, labels=tuple(labels),
                          degenerate_pairs=tuple(degenerate))


def upgma(d: DistanceVector) -> list[tuple[int, int, float, int]]:
    """Average-linkage agglomeration over a condensed distance vector; the
    merge list over its n items has n - 1 entries.

    Ties on merge distance go to the smallest (left, right) cluster-id pair.
    """
    if not np.all(np.isfinite(d.condensed)):
        raise ValueError("non-finite distances")
    n = d.n_items
    total = 2 * n - 1
    dist = np.full((total, total), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = d.condensed[condensed_index(n, i, j)]
    size = [1] * n + [0] * (n - 1)
    active = list(range(n))
    merges: list[tuple[int, int, float, int]] = []
    for step in range(n - 1):
        best = (math.inf, -1, -1)
        for a_pos in range(len(active)):
            for b_pos in range(a_pos + 1, len(active)):
                a, b = active[a_pos], active[b_pos]
                dd = dist[a, b]
                if dd < best[0]:
                    best = (dd, a, b)
        h, a, b = best
        new = n + step
        size[new] = size[a] + size[b]
        merges.append((a, b, float(h), size[new]))
        for c in active:
            if c in (a, b):
                continue
            dist[new, c] = dist[c, new] = (
                size[a] * dist[a, c] + size[b] * dist[b, c]
            ) / (size[a] + size[b])
        active.remove(a)
        active.remove(b)
        active.append(new)
        active.sort()
    return merges


def cut_clusters(merges, k: int) -> np.ndarray:
    """Flat assignment of leaves to k clusters, labeled 0..k-1 by first leaf.

    Applying the first n-k merges (the lowest, by monotonicity) leaves
    exactly k connected clusters.
    """
    n = len(merges) + 1
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n - k):
        a, b, _, _ = merges[step]
        new = n + step
        parent[find(a)] = new
        parent[find(b)] = new
    labels = np.empty(n, dtype=np.int64)
    seen: dict[int, int] = {}
    for leaf in range(n):
        root = find(leaf)
        if root not in seen:
            seen[root] = len(seen)
        labels[leaf] = seen[root]
    return labels


def leaf_order(merges) -> list[int]:
    """Display order: recursively place the smaller subtree first.

    Size ties are broken by the smaller minimum leaf index.
    """
    n = len(merges) + 1
    children: dict[int, tuple[int, int]] = {}
    for step, (a, b, _, _) in enumerate(merges):
        children[n + step] = (a, b)

    def leaves(node: int) -> list[int]:
        if node < n:
            return [node]
        a, b = children[node]
        la, lb = leaves(a), leaves(b)
        if (len(la), min(la)) <= (len(lb), min(lb)):
            return la + lb
        return lb + la

    root = 2 * n - 2 if n > 1 else 0
    return leaves(root)
