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

Weighted distinct rows: once per fit, the training rows are reduced to
their distinct (x, y) pairs, and each tree weights every distinct row by
its multiplicity in the tree's bootstrap sample (or in the training set,
for a plain tree). Every count the search and the stopping tests use (node
size, left size, positives, min_leaf and 2 * min_leaf) is a sum of these
integer weights, so it equals the count over the repeated rows, and every
Gini value, cut, tie and leaf score keeps its bits.

Rank encoding: each cell is coded by its rank among its feature's sorted
distinct values, so equal values share a rank and the rank indexes the
feature's value table. A sort key holds, from the high bits down, the
(node, feature) segment, the rank, the label and the weight; it is an
int32 whenever (segments << (rank, label and weight bits)) fits, else an
int64.

Batched split search: one integer sort of the keys scores a whole batch of
open nodes. Runs of equal (segment, rank, label) are summed into weights,
and running sums from each segment's start give the left size and left
positives at every rank change inside a segment: the candidate cuts. Each
candidate then gets the same Gini arithmetic as a one-node search, and
each node keeps its first minimum in (feature, threshold) order, so
batching changes no bit. A threshold is the midpoint of the two distinct
values; rows are routed by value, not by rank, because the midpoint of two
adjacent floats can round onto the upper one. A batch holds at most
_BATCH_KEYS keys (or one node that alone has more).

Flat row buffer: the distinct rows of every tree sit in one buffer, tree
after tree, with their label and weight words beside them, and a node is a
contiguous range of it. A split partitions its node's range in place,
lefts first, so children are subranges and no rows are copied per node.
Open nodes are rows of one integer array (tree, id, range, depth, weight,
positive weight).

Growth order: a tree that tries every feature scores its whole open
frontier in each step. A tree that subsamples features uses one
permutation of its stream per node in depth-first preorder, so it
contributes only its next preorder node (the top of its stack) to each
step. A forest advances all of its trees in lockstep: a tree is open from
the first step until its stack runs out, so in step k every open tree
scores its preorder node k. Each tree's permutations are drawn in blocks
(Stream.permutations), whose rows are the draws that one permutation call
per node would make, so every tree uses the same features as when grown
alone; the unused rest of its last block is never read.

Fitted nodes are flat arrays; a leaf has feature -1 and is its own child,
and a left child's id is its right sibling's + 1. Prediction routes the
rows through all trees of a forest one level per gather; a leaf's routing
threshold is NaN, which no row is <= of, so a leaf keeps its rows.
"""

from __future__ import annotations

import copy

import numpy as np

from ..rand import Stream

_BATCH_KEYS = 1 << 16  # sort keys (node rows x features) per batch
_ROUTE_KEYS = 1 << 14  # (tree, row) pairs routed per batch in leaf_scores
_FIRST_BLOCK = 64      # permutations per tree drawn first; later blocks double
_LOW32 = (1 << 32) - 1
# columns of an open node: tree, node id, buffer range, depth, weight and
# positive weight
_TREE, _ID, _LO, _HI, _DEPTH, _N, _POS = range(7)
_BELOW_AT = np.array([[1], [0]])  # the runs below and above a cut


def _gini(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    frac = n_pos / n  # n >= 1: a cut leaves weight on both sides
    return 2.0 * frac * (1.0 - frac)


def _dense_rows(n, codes, widths):
    """(a column of each class, each column's class) for the classes of
    equal tuples among n columns of the non-negative ints codes[k][j] <
    2**widths[k], in ascending order of the tuples packed into one int64
    (renumbered whenever it would overflow)."""
    key, bits = np.zeros(n, dtype=np.int64), 0
    for row, width in zip(codes, widths):
        if bits + width > 62:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            bits = int(key.max(initial=0)).bit_length()
        key, bits = key << width | row, bits + width
    order = key.argsort()
    new = np.ones(n, dtype=bool)
    np.not_equal(key.take(order[1:]), key.take(order[:-1]), out=new[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


class _Coded:
    """A fit's distinct rows: rank tables, values, and each tree's rows."""

    def __init__(self, X, y, roots):
        n, F = X.shape
        values, ranks = [], []
        for col, ordered in zip(X.T, np.sort(X, axis=0).T):
            new = np.ones(n, dtype=bool)
            np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
            values.append(ordered[new])
            ranks.append(values[-1].searchsorted(col))
        first, distinct = _dense_rows(
            n, ranks + [y], [(v.size - 1).bit_length() for v in values] + [1])
        self.d = d = first.size
        ranks, label = np.array(ranks).reshape(F, n)[:, first], y[first]
        held = []  # per tree: sample size, distinct rows and their weights
        for r in roots:  # each root sample is dropped once counted
            w = np.bincount(distinct.take(r), minlength=d)
            kept = w.nonzero()[0]
            held.append((r.size, kept.astype(np.int32), w.take(kept).astype(np.int32)))
        T = len(held)
        self.wbits = max(int(w.max(initial=0)) for _, _, w in held).bit_length()
        self.width = width = max(v.size for v in values)
        self.low = (width - 1).bit_length() + self.wbits + 1
        # cell (distinct row r, feature f) at f * d + r
        self.rank = (ranks.reshape(-1) << (self.wbits + 1)).astype(
            np.int32 if self.low < 32 else np.int64)
        self.values = np.zeros(F * width)  # feature f's value of rank k at f * width + k
        for f, v in enumerate(values):
            self.values[f * width:f * width + v.size] = v
        self.cols = self.values.take(ranks + np.arange(F)[:, None] * width).reshape(-1)
        # the flat row buffer: tree t's rows, then tree t + 1's
        count = np.array([r.size for _, r, _ in held])
        self.rows = np.concatenate([r for _, r, _ in held]).astype(np.intp)
        self.lw = np.empty(self.rows.size, dtype=self.rank.dtype)
        for (_, r, w), end in zip(held, np.cumsum(count).tolist()):
            self.lw[end - r.size:end] = label.take(r) << self.wbits | w
        self.roots = np.column_stack((
            np.arange(T), np.arange(T), np.cumsum(count) - count, np.cumsum(count),
            np.zeros(T, dtype=np.intp), [size for size, _, _ in held],
            [w @ label.take(r) for _, r, w in held]))


def _best_splits(coded, rows, lw, nodes, feats, min_leaf):
    """(batch positions, features, thresholds) of the nodes that can split;
    node i is the open node nodes[i], whose distinct rows and
    label-and-weight words are the next nodes[i, _HI] - nodes[i, _LO] of
    rows and lw, and it tries the ascending features feats[i]."""
    S, m = feats.shape
    sizes = nodes[:, _HI] - nodes[:, _LO]
    low, wbits = coded.low, coded.wbits
    dtype = np.int32 if S * m << low < 2**31 else np.int64
    # feature-major: segment j * S + i is node i's rows in its feature j
    keys = coded.rank.take(np.repeat(feats.T * coded.d, sizes, axis=1)
                           + rows).astype(dtype, copy=False)
    keys |= np.repeat((np.arange(S * m, dtype=dtype) << low).reshape(m, S),
                      sizes, axis=1)
    keys |= lw.astype(dtype, copy=False)
    keys = keys.reshape(-1)
    keys.sort()
    # runs of one (segment, rank, label) and their weights
    head = keys >> wbits
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(head[1:], head[:-1], out=new[1:])
    at = new.nonzero()[0]
    head = head.take(at)
    # their (weight, positive weight) packed in one int64, and the running
    # sums before each run, counted from its segment's start: the sums
    # grow, so a segment start's own sums are the largest so far
    w = np.add.reduceat(keys & ((1 << wbits) - 1), at).astype(np.int64)
    w += (w * (head & 1)) << 32
    before = np.zeros(at.size, dtype=np.int64)
    np.cumsum(w[:-1], out=before[1:])
    seg = head >> (low - wbits)
    new = np.ones(at.size, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    # a cut is a rank change inside one segment
    cut = (((head[1:] >> 1) != (head[:-1] >> 1)) > new[1:]).nonzero()[0] + 1
    left = (before - np.maximum.accumulate(before * new)).take(cut)
    j, i = np.divmod(seg.take(cut), S)
    n, pos = (nodes[:, c].astype(np.float64).take(i) for c in (_N, _POS))
    n_left, pos_left = (left & _LOW32).astype(np.float64), (left >> 32).astype(np.float64)
    g_left = _gini(pos_left, n_left)
    g_right = _gini(pos - pos_left, n - n_left)
    weighted = (n_left * g_left + (n - n_left) * g_right) / n
    ok = ((n_left >= min_leaf) & (n - n_left >= min_leaf)).nonzero()[0]
    # stable, and cuts come in (feature, threshold) order: first minimum first
    order = ok.take(np.lexsort((weighted.take(ok), i.take(ok))))
    node = i.take(order)
    new = np.ones(node.size, dtype=bool)
    np.not_equal(node[1:], node[:-1], out=new[1:])
    best = order[new]
    cut, i, f = cut.take(best), i.take(best), feats[i.take(best), j.take(best)]
    rank = (head.take(cut - _BELOW_AT) >> 1) & ((1 << (low - wbits - 1)) - 1)
    value = coded.values.take(rank + f * coded.width)
    return i, f, (value[0] + value[1]) / 2.0


def _partition(coded, at, rows, lw, ends, i, f, thr):
    """Route the rows, lw found at buffer places at (node k's are items
    ends[k] to ends[k + 1]) and move each node's lefts before its rights.
    Node i[k] splits on feature f[k] at thr[k]; the others send every row
    left. Returns, for nodes i, the rows sent left and their packed
    (weight, positive weight)."""
    sizes = ends[1:] - ends[:-1]
    fs, ts = np.zeros(sizes.size, dtype=np.intp), np.full(sizes.size, np.inf)
    fs[i], ts[i] = f * coded.d, thr
    go = (coded.cols.take(np.repeat(fs, sizes) + rows)
          <= np.repeat(ts, sizes)).astype(np.intp)
    c = np.zeros(at.size + 1, dtype=np.intp)  # lefts before each row
    np.cumsum(go, out=c[1:])
    before = c.take(ends)
    n_go = before[1:] - before[:-1]
    before, c = before[:-1], c[1:]
    to = at + np.repeat(n_go + before, sizes) - c  # the rights' places
    to += go * (c + np.repeat(at.take(ends[:-1]) - before - 1, sizes) - to)
    coded.rows[to], coded.lw[to] = rows, lw
    w = (lw & ((1 << coded.wbits) - 1)) * go  # the lefts' (weight, positive weight)
    left = np.add.reduceat(w + ((w * (lw >> coded.wbits)) << 32), ends[:-1])
    return n_go.take(i), left.take(i)


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
        """With max_features, draws one permutation of the stream per node
        it tries, in depth-first preorder."""
        if self.max_features is None:
            return self.grow(X, y, [np.arange(X.shape[0])])
        if stream is None:
            raise ValueError("feature subsampling needs a random stream")
        # the blocks run ahead on a copy; the stream moves past the used ones
        self.grow(X, y, [np.arange(X.shape[0])], [copy.deepcopy(stream)])
        stream.raw(self.steps * X.shape[1])
        return self

    def _tried(self, nodes: np.ndarray) -> np.ndarray:
        """The nodes that pass the depth, size and purity tests."""
        n, pos = nodes[:, _N], nodes[:, _POS]
        return ((nodes[:, _DEPTH] < self.max_depth) & (n >= 2 * self.min_leaf)
                & (pos > 0) & (pos < n))

    def grow(self, X, y, roots, streams=None) -> "DecisionTree":
        """Grow one tree per root sample (row indices, repeats allowed) that
        the iterable roots yields; with streams, tree t draws max_features
        per node from streams[t], else tries every feature."""
        coded = _Coded(X, y.astype(np.int64), roots)
        F, T = X.shape[1], len(coded.roots)
        rows, lw = coded.rows, coded.lw
        # per node: feature and left child (-1 for a leaf), threshold and
        # score; doubled whenever a batch's children do not fit
        split = np.full((max(1024, 4 * T), 2), -1)
        value = np.zeros((len(split), 2))
        value[:T, 1] = coded.roots[:, _POS] / np.maximum(coded.roots[:, _N], 1)
        m = F if streams is None else min(self.max_features, F)
        block = np.zeros((0, T, m), dtype=np.intp)  # step, tree: sorted features
        open_, kid, steps = coded.roots[self._tried(coded.roots)], T, 0
        levels = 0  # the depth of the deepest leaf
        while open_.size:
            if streams is None:
                step, rest = open_, open_[:0]
                feats = np.broadcast_to(np.arange(F), (len(step), F))
            else:
                # a tree is open from step 0 until its stack runs out, so in
                # step k each open tree tries its node k of preorder
                if steps == len(block):
                    more = max(_FIRST_BLOCK, steps)
                    block = np.concatenate((block, np.stack([np.sort(
                        s.permutations(more, F)[:, :m], axis=1) for s in streams], axis=1)))
                top = np.ones(len(open_), dtype=bool)  # the last row of each tree
                np.not_equal(open_[1:, _TREE], open_[:-1, _TREE], out=top[:-1])
                step, rest = open_[top], open_[~top]
                feats = block[steps].take(step[:, _TREE], axis=0)
                steps += 1
            sizes = step[:, _HI] - step[:, _LO]
            total = np.cumsum(sizes * m)  # keys up to each node
            kids, lo = [rest], 0
            while lo < len(step):  # batches of at most _BATCH_KEYS keys, or one node
                hi = max(lo + 1, int(np.searchsorted(
                    total, (total[lo - 1] if lo else 0) + _BATCH_KEYS, "right")))
                batch, sz = step[lo:hi], sizes[lo:hi]
                ends = np.zeros(hi - lo + 1, dtype=np.intp)
                np.cumsum(sz, out=ends[1:])
                at = np.repeat(batch[:, _LO] - ends[:-1], sz) + np.arange(ends[-1])
                r, w = rows.take(at), lw.take(at)
                i, f, thr = _best_splits(coded, r, w, batch, feats[lo:hi], self.min_leaf)
                lo = hi
                if not i.size:
                    continue
                n_go, left = _partition(coded, at, r, w, ends, i, f, thr)
                parent, K = batch[i], i.size
                levels = max(levels, int(parent[:, _DEPTH].max()) + 1)
                child = np.repeat(parent, 2, axis=0)  # each parent's right, then left
                child[:, _ID] = kid + np.arange(2 * K)
                child[0::2, _LO] = child[1::2, _HI] = parent[:, _LO] + n_go
                child[:, _DEPTH] += 1
                child[1::2, _N], child[1::2, _POS] = left & _LOW32, left >> 32
                child[0::2, _N] -= child[1::2, _N]
                child[0::2, _POS] -= child[1::2, _POS]
                if kid + 2 * K > len(split):  # at least double
                    more = max(len(split), kid + 2 * K - len(split))
                    split = np.concatenate((split, np.full((more, 2), -1)))
                    value = np.concatenate((value, np.zeros((more, 2))))
                split[parent[:, _ID], 0], split[parent[:, _ID], 1] = f, child[1::2, _ID]
                value[parent[:, _ID], 0] = thr
                value[kid:kid + 2 * K, 1] = child[:, _POS] / np.maximum(child[:, _N], 1)
                kid += 2 * K
                kids.append(child[self._tried(child)])
            open_ = np.concatenate(kids)
            if streams is not None:  # the left child tops its tree's stack
                open_ = open_[np.argsort(open_[:, _TREE], kind="stable")]
        self.feature, self.threshold = split[:kid, 0].copy(), value[:kid, 0].copy()
        self.score, leaf = value[:kid, 1].copy(), self.feature < 0
        self.left = np.where(leaf, np.arange(kid), split[:kid, 1])
        self.right = np.where(leaf, self.left, self.left - 1)
        # what routing reads: no row is <= NaN, so a leaf keeps every row
        self._read, self._cut = np.maximum(self.feature, 0), np.where(leaf, np.nan, self.threshold)
        self.n_features, self.n_trees, self.levels = F, T, levels
        self.steps = steps  # with streams: the most permutations a tree used
        return self

    def leaf_scores(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) score of the leaf each row reaches."""
        if not self.n_trees:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        queries = X.reshape(-1)
        out = np.empty((self.n_trees, X.shape[0]))
        step = max(1, _ROUTE_KEYS // self.n_trees)
        for lo in range(0, X.shape[0], step):
            at = np.arange(lo, min(lo + step, X.shape[0])) * self.n_features
            node = np.arange(self.n_trees)[:, None]
            for _ in range(self.levels):  # a left child is its right sibling + 1
                node = self.right.take(node) + (
                    queries.take(self._read.take(node) + at) <= self._cut.take(node))
            out[:, lo:lo + step] = self.score.take(node)
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
        self.trees.grow(X, y, (s.choice_indices(n, n) for s in streams), streams)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return (self.trees.leaf_scores(X) >= 0.5).sum(axis=0) / self.n_estimators
