"""CART decision tree (Gini impurity) and a bootstrap random forest.

Tree score = positive fraction in the reached leaf. Forest score = mean of
hard per-tree votes (a tree votes positive when its leaf fraction is at
least 0.5), which is what makes a 10-tree forest with 7 positive votes
score exactly 0.7.

Split search is exhaustive over midpoints of consecutive distinct values;
rows with value <= threshold go left. Ties in impurity keep the first
candidate in (feature order, ascending threshold) order, so trees are
deterministic. A split must respect min_leaf on both sides and stay within
max_depth. Zero-gain splits are accepted (Gini is concave, so weighted child
impurity never exceeds the parent's); problems like XOR need them at the
root. Growth still ends via depth, purity and min_leaf.

Rank encoding: once per fit, each cell is coded as rank << 1 | label, where
the rank is the cell's position in its sorted feature column, so equal
values share a rank and the rank indexes the sorted column.

Batched split search: one integer sort of (node, feature, code) keys scores
a whole batch of open nodes. Inside each (node, feature) segment, the
boundaries between runs of equal rank are the candidate cuts, their offsets
are the left sizes, and a running count of label bits gives the left
positives. Each candidate then gets the same Gini arithmetic as a one-node
search, and each node keeps its first minimum in (feature, threshold)
order, so batching changes no bit. A threshold is the midpoint of the two
distinct values; rows are routed by value, not by rank, because the
midpoint of two adjacent floats can round onto the upper one. A batch holds
at most _BATCH_KEYS keys (or one node that alone has more), and a child's
rows are copied out of the batch's buffer; both bound a fit's memory.

Growth order: a tree that tries every feature scores its whole open
frontier in each step. A tree that subsamples features draws them from its
stream at each node in depth-first preorder, so it contributes only its next
preorder node to each step. A forest advances all of its trees in lockstep,
and every tree draws its features in the same order as when grown alone.

Fitted nodes are flat arrays; a leaf has feature -1 and is its own child.
Prediction moves all rows, for all trees of a forest, one level per gather.
"""

from __future__ import annotations

import numpy as np

from ..rand import Stream

_BATCH_KEYS = 1 << 16  # sort keys (node rows x features) per batch


def _gini(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    frac = n_pos / n  # n >= 1: a cut leaves rows on both sides
    return 2.0 * frac * (1.0 - frac)


def _best_splits(sorted_X, code, shift, rows, feats, min_leaf):
    """(batch positions, features, thresholds) of the nodes that can split;
    node i holds rows[i] and tries the ascending features feats[i]."""
    S, m = feats.shape
    sizes = np.array([r.size for r in rows])
    keys = code.take(np.repeat(feats * code.shape[1], sizes, axis=0).ravel()
                     + np.repeat(np.concatenate(rows), m))
    keys |= np.repeat((np.arange(S * m) << shift).reshape(S, m), sizes, axis=0).ravel()
    keys = np.sort(keys.astype(np.int32) if S * m << shift < 2**31 else keys)
    run, seg = keys >> 1, keys >> shift
    cut = np.flatnonzero(run[1:] != run[:-1]) + 1
    cut = cut[seg[cut] == seg[cut - 1]]  # boundaries inside one (node, feature)
    g = seg[cut]
    i = g // m
    start = (np.cumsum(sizes) - sizes)[i] * m + (g % m) * sizes[i]
    seen = np.concatenate(([0], np.cumsum(keys & 1)))
    n, n_left, pos_left, pos_total = (a.astype(np.float64) for a in (
        sizes[i], cut - start, seen[cut] - seen[start],
        seen[start + sizes[i]] - seen[start]))
    g_left = _gini(pos_left, n_left)
    g_right = _gini(pos_total - pos_left, n - n_left)
    weighted = (n_left * g_left + (n - n_left) * g_right) / n
    ok = np.flatnonzero((n_left >= min_leaf) & (n - n_left >= min_leaf))
    order = ok[np.lexsort((weighted[ok], i[ok]))]  # stable: first minimum first
    best = order[np.diff(i[order], prepend=-1) != 0]
    f = feats[i[best], g[best] % m]
    rank = (keys[[cut[best] - 1, cut[best]]] & ((1 << shift) - 1)) >> 1
    return i[best], f, (sorted_X[rank[0], f] + sorted_X[rank[1], f]) / 2.0


class DecisionTree:
    """One tree, or a forest's trees grown together (tree t's root is node t)."""

    def __init__(self, max_depth: int, min_leaf: int = 1,
                 max_features: int | None = None):
        if max_depth < 1 or min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_trees = 0

    def fit(self, X: np.ndarray, y: np.ndarray,
            stream: Stream | None = None) -> "DecisionTree":
        if self.max_features is not None and stream is None:
            raise ValueError("feature subsampling needs a random stream")
        streams = None if self.max_features is None else [stream]
        return self.grow(X, y, [np.arange(X.shape[0])], streams)

    def grow(self, X, y, roots, streams=None) -> "DecisionTree":
        """Grow one tree per root row set; with streams, tree t draws
        max_features per node from streams[t], else tries every feature."""
        n, F = X.shape
        y = y.astype(np.int64)
        # feature-major: cell (row r, feature f) is item f * n + r of cols and code
        sorted_X, cols = np.sort(X, axis=0), np.ascontiguousarray(X.T)
        code = np.array([np.searchsorted(s, x) for s, x in zip(sorted_X.T, cols)],
                        dtype=np.int64).reshape(F, n) << 1 | y
        shift = int(code.max(initial=0)).bit_length()
        roots = [r.astype(np.int32 if n < 2**31 else np.int64) for r in roots]
        score = [y[r].sum() / max(r.size, 1) for r in roots]  # 0.0 when empty
        stacks = [[(t, r, 0)] for t, r in enumerate(roots)]
        splits = []  # per batch: parent ids, features, thresholds, left child ids
        m = F if streams is None else min(self.max_features, F)
        while any(stacks):
            step = []  # (tree, node id, rows, depth, features) per open node
            for t, stack in enumerate(stacks):
                while stack:
                    k, r, depth = stack.pop()
                    if not (depth >= self.max_depth or r.size < 2 * self.min_leaf
                            or score[k] in (0.0, 1.0)):
                        step.append((t, k, r, depth, np.arange(F) if streams is None
                                     else streams[t].permutation(F)[:m]))
                        if streams is not None:
                            break
            chunks, keys = [], 0  # at most _BATCH_KEYS keys each, or one node
            for b in step:
                if not chunks or keys + b[2].size * m > _BATCH_KEYS:
                    chunks.append([])
                    keys = 0
                chunks[-1].append(b)
                keys += b[2].size * m
            for batch in chunks:
                i, f, thr = _best_splits(sorted_X, code, shift, [b[2] for b in batch],
                                         np.sort([b[4] for b in batch], axis=1),
                                         self.min_leaf)
                if not i.size:
                    continue
                batch, K, kid = [batch[j] for j in i], i.size, len(score)
                sizes = np.array([b[2].size for b in batch])
                cat = np.concatenate([b[2] for b in batch])
                go = cols.take(np.repeat(f * n, sizes) + cat) <= np.repeat(thr, sizes)
                counts = np.stack((go, y[cat] & go, y[cat]))
                n_left, pos_left, pos = np.add.reduceat(
                    counts, np.cumsum(sizes) - sizes, axis=1)
                n_kid = np.concatenate((n_left, sizes - n_left))
                pos_kid = np.concatenate((pos_left, pos - pos_left))
                score += (pos_kid / np.maximum(n_kid, 1)).tolist()  # 0.0 when empty
                splits.append(([b[1] for b in batch], f, thr, kid + np.arange(K)))
                routed = np.concatenate((cat[go], cat[~go]))  # lefts, then rights
                edges = np.concatenate(([0], np.cumsum(n_kid))).tolist()
                for j, (t, _, _, depth, _) in enumerate(batch):
                    for c in (K + j, j):  # the left child is popped next
                        # a copy, so a waiting node does not pin the whole buffer
                        rows = routed[edges[c]:edges[c + 1]].copy()
                        stacks[t].append((kid + c, rows, depth + 1))
        self.score = np.array(score)
        self.feature, self.threshold = np.full(len(score), -1), np.zeros(len(score))
        self.left, self.right = np.arange(len(score)), np.arange(len(score))
        for ks, f, thr, kids in splits:
            self.feature[ks], self.threshold[ks] = f, thr
            self.left[ks], self.right[ks] = kids, kids + kids.size
        self.n_features, self.n_trees = F, len(roots)
        return self

    def leaf_scores(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) score of the leaf each row reaches."""
        if not self.n_trees:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        out = np.empty((self.n_trees, X.shape[0]))
        step = max(1, _BATCH_KEYS // self.n_trees)
        for lo in range(0, X.shape[0], step):
            rows = np.arange(lo, min(lo + step, X.shape[0]))
            node = np.repeat(np.arange(self.n_trees)[:, None], rows.size, axis=1)
            while (f := self.feature[node]).max(initial=-1) >= 0:
                node = np.where(X[rows, f] <= self.threshold[node],
                                self.left[node], self.right[node])
            out[:, rows] = self.score[node]
        return out

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_scores(X)[0]


class RandomForest:
    """Bootstrap-aggregated CART trees with sqrt(F) features per split."""

    def __init__(self, n_estimators: int, max_depth: int, min_leaf: int = 1):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.trees = DecisionTree(max_depth, min_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray, stream: Stream) -> "RandomForest":
        n = X.shape[0]
        streams = [stream.child("tree", t) for t in range(self.n_estimators)]
        self.trees.max_features = max(1, int(np.sqrt(X.shape[1])))
        self.trees.grow(X, y, [s.choice_indices(n, n) for s in streams], streams)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return (self.trees.leaf_scores(X) >= 0.5).sum(axis=0) / self.n_estimators
