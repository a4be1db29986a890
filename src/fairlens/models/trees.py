"""CART decision tree (Gini impurity) and a bootstrap random forest.

Tree score = positive fraction in the reached leaf. Forest score = mean of
hard per-tree votes (a tree votes positive when its leaf fraction is at
least 0.5), which is what makes a 10-tree forest with 7 positive votes
score exactly 0.7.

Split search is exhaustive over midpoints of consecutive distinct values;
rows with value <= threshold go left. Ties in impurity keep the first
candidate in (feature order, ascending threshold) order, so trees are
deterministic. A split must strictly reduce weighted impurity, respect
min_leaf on both sides, and stay within max_depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rand import Stream


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    score: float = 0.0  # leaf positive fraction

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    frac = np.where(n > 0, n_pos / np.maximum(n, 1), 0.0)
    return 2.0 * frac * (1.0 - frac)


def _best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray,
                min_leaf: int):
    """(weighted impurity, feature, threshold) of the best valid split.

    Zero-gain splits are accepted (Gini is concave, so weighted child
    impurity never exceeds the parent's); problems like XOR need them at
    the root. Recursion still terminates via depth, purity, and min_leaf.
    """
    n = y.size
    pos_total = float(y.sum())
    best = None
    for f in features:
        vals = X[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order]
        cut = np.flatnonzero(sv[1:] != sv[:-1]) + 1  # left sizes at each boundary
        if cut.size == 0:
            continue
        n_left = cut.astype(np.float64)
        ok = (cut >= min_leaf) & (n - cut >= min_leaf)
        if not ok.any():
            continue
        pos_prefix = np.cumsum(sy)[cut - 1].astype(np.float64)
        g_left = _gini(pos_prefix, n_left)
        g_right = _gini(pos_total - pos_prefix, n - n_left)
        weighted = (n_left * g_left + (n - n_left) * g_right) / n
        weighted[~ok] = np.inf
        j = int(np.argmin(weighted))
        thr = (sv[cut[j] - 1] + sv[cut[j]]) / 2.0
        cand = (float(weighted[j]), int(f), float(thr))
        if best is None or cand[0] < best[0]:  # exact ties keep the earlier feature
            best = cand
    return best


class DecisionTree:
    def __init__(self, max_depth: int, min_leaf: int = 1,
                 max_features: int | None = None):
        if max_depth < 1 or min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.root: _Node | None = None
        self.n_features = 0

    def fit(self, X: np.ndarray, y: np.ndarray,
            stream: Stream | None = None) -> "DecisionTree":
        self.n_features = X.shape[1]
        if self.max_features is not None and stream is None:
            raise ValueError("feature subsampling needs a random stream")
        self.root = self._build(X, y.astype(np.int64), depth=0, stream=stream)
        return self

    def _build(self, X, y, depth, stream) -> _Node:
        node = _Node(score=float(np.mean(y)) if y.size else 0.0)
        if (depth >= self.max_depth or y.size < 2 * self.min_leaf
                or node.score in (0.0, 1.0)):
            return node
        if self.max_features is None:
            features = np.arange(self.n_features)
        else:
            m = min(self.max_features, self.n_features)
            features = np.sort(stream.permutation(self.n_features)[:m])
        best = _best_split(X, y, features, self.min_leaf)
        if best is None:
            return node
        _, f, thr = best
        mask = X[:, f] <= thr
        node.feature = f
        node.threshold = thr
        node.left = self._build(X[mask], y[mask], depth + 1, stream)
        node.right = self._build(X[~mask], y[~mask], depth + 1, stream)
        return node

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        out = np.empty(X.shape[0])
        self._route(self.root, X, np.arange(X.shape[0]), out)
        return out

    def _route(self, node: _Node, X, idx, out) -> None:
        if idx.size == 0:
            return
        if node.is_leaf:
            out[idx] = node.score
            return
        mask = X[idx, node.feature] <= node.threshold
        self._route(node.left, X, idx[mask], out)
        self._route(node.right, X, idx[~mask], out)


class RandomForest:
    """Bootstrap-aggregated CART trees with sqrt(F) features per split."""

    def __init__(self, n_estimators: int, max_depth: int, min_leaf: int = 1):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.trees: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray, stream: Stream) -> "RandomForest":
        n = X.shape[0]
        m = max(1, int(np.sqrt(X.shape[1])))
        self.trees = []
        for t in range(self.n_estimators):
            tree_stream = stream.child("tree", t)
            idx = tree_stream.choice_indices(n, n)
            tree = DecisionTree(max_depth=self.max_depth, min_leaf=self.min_leaf,
                                max_features=m)
            tree.fit(X[idx], y[idx], stream=tree_stream)
            self.trees.append(tree)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("not fitted")
        votes = np.zeros(X.shape[0])
        for tree in self.trees:
            votes += (tree.predict_scores(X) >= 0.5).astype(np.float64)
        return votes / len(self.trees)
