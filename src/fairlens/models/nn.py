"""Two-hidden-layer perceptron trained by minibatch SGD.

Architecture: F -> hidden1 (ReLU) -> hidden2 (ReLU) -> 1 (sigmoid), with
hidden widths supplied by the caller (the search maps a width multiplier P
to P*F and (P+1)*F). The loss is mean binary cross-entropy per batch plus
an L2 weight penalty whose gradient contribution is l2 * W (biases
unpenalized); it defines the gradient a step takes and is never computed
itself. Constant learning rate; epoch order reshuffled per epoch from the
caller's stream, so a (data, hyperparameters, stream key) triple pins
every weight bit.

One draw trains on all of its folds in lockstep (fit_folds): each step
sends every fold's next full batch through one stacked matmul or ufunc per
operation, into buffers allocated once, and each fold's parameters are a
row of one (folds, params) array, so the L2 term, the learning-rate scale
and the update are whole-array operations. A fold's short last batch runs
on its own slice. Each fold draws its init and epoch orders from its own
stream and computes every product and sum exactly as a fit on its rows
alone would, so its weights are those bits. Mlp.fit is the one-fold case.
"""

from __future__ import annotations

import numpy as np

from ..rand import Stream
from .base import TrainingError
from .linear import sigmoid

LEARNING_RATE = 0.05
DIVERGED = "mlp diverged to non-finite weights or biases"


class Mlp:
    def __init__(self, hidden1: int, hidden2: int, epochs: int = 100,
                 batch_size: int = 64, l2: float = 0.01):
        if hidden1 < 1 or hidden2 < 1:
            raise ValueError("hidden widths must be >= 1")
        self.hidden1 = hidden1
        self.hidden2 = hidden2
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.weights: list[np.ndarray] | None = None
        self.biases: list[np.ndarray] | None = None

    def _shapes(self, n_features: int) -> list[tuple[int, int]]:
        return [(n_features, self.hidden1), (self.hidden1, self.hidden2),
                (self.hidden2, 1)]

    def _init_params(self, n_features: int, stream: Stream) -> None:
        self.weights = []
        self.biases = []
        for fan_in, fan_out in self._shapes(n_features):
            scale = np.sqrt(2.0 / fan_in)  # He init for the ReLU stack
            w = stream.normal(fan_in * fan_out).reshape(fan_in, fan_out) * scale
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def diverged(self) -> bool:
        """Whether any weight or bias is non-finite."""
        return not all(np.all(np.isfinite(p)) for p in self.weights + self.biases)

    def fit(self, X: np.ndarray, y: np.ndarray, stream: Stream) -> "Mlp":
        fit_folds([self], [X], [y], [stream])
        if self.diverged:
            raise TrainingError(DIVERGED)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected {self.weights[0].shape[0]} features, got {X.shape[1]}")
        w, b = self.weights, self.biases
        a1 = X @ w[0]
        a1 += b[0]
        np.maximum(a1, 0.0, out=a1)
        a2 = a1 @ w[1]
        a2 += b[1]
        np.maximum(a2, 0.0, out=a2)
        z3 = a2 @ w[2]
        z3 += b[2]
        return sigmoid(z3).ravel()


def fit_folds(nets: list[Mlp], Xs: list[np.ndarray], ys: list[np.ndarray],
              streams: list[Stream]) -> None:
    """Train nets[i] on (Xs[i], ys[i]) with streams[i], all in one loop.

    The nets are one draw's: the same widths, epochs, batch size and L2,
    and the Xs have the same width. Afterwards each net's weights and
    biases are views of its row of one parameter array; a net that
    diverged is left non-finite for the caller to check.
    """
    first = nets[0]
    m, l2 = first.batch_size, first.l2
    shapes = first._shapes(Xs[0].shape[1])
    sizes = [r * c for r, c in shapes] + [c for _, c in shapes]
    ends = np.cumsum(sizes).tolist()
    starts = [e - s for e, s in zip(ends, sizes)]
    n_weights = ends[2]

    # folds with more full batches first, so each step's folds are a prefix
    rank = sorted(range(len(nets)), key=lambda i: -(Xs[i].shape[0] // m))
    k = len(rank)
    rows = [Xs[i].shape[0] for i in rank]
    full = [n // m for n in rows]
    offsets = np.cumsum([0] + rows[:-1]).tolist()
    X_all = np.concatenate([Xs[i] for i in rank])
    y_all = np.concatenate([ys[i] for i in rank]).astype(np.float64).reshape(-1, 1)

    P = np.empty((k, ends[-1]))
    G = np.empty_like(P)
    W = [P[:, starts[j]:ends[j]].reshape(k, *shapes[j]) for j in range(3)]
    B = [P[:, starts[3 + j]:ends[3 + j]].reshape(k, 1, shapes[j][1])
         for j in range(3)]
    GW = [G[:, starts[j]:ends[j]].reshape(k, *shapes[j]) for j in range(3)]
    GB = [G[:, starts[3 + j]:ends[3 + j]] for j in range(3)]
    for r, i in enumerate(rank):
        net = nets[i]
        net._init_params(shapes[0][0], streams[i])
        for j, p in enumerate(net.weights + net.biases):
            P[r, starts[j]:ends[j]] = p.ravel()
        net.weights = [w[r] for w in W]
        net.biases = [P[r, starts[3 + j]:ends[3 + j]] for j in range(3)]

    (_, h1), (_, h2) = shapes[0], shapes[1]
    XB = np.empty((k, m, shapes[0][0]))
    YB = np.empty((k, m, 1))
    Z3 = np.empty((k, m, 1))
    # each layer's deltas overwrite its activations once they are used; the
    # L2 term's scratch T shares that memory, which is dead by the update
    S = np.empty(max(k * m * (h1 + h2), k * n_weights))
    A1 = S[:k * m * h1].reshape(k, m, h1)
    A2 = S[k * m * h1:k * m * (h1 + h2)].reshape(k, m, h2)
    T = S[:k * n_weights].reshape(k, n_weights)
    M1, M2 = np.empty((k, m, h1), dtype=bool), np.empty((k, m, h2), dtype=bool)

    def slab(lo: int, hi: int, n: int) -> tuple:
        """Views of folds lo:hi for a batch of n rows."""
        f = slice(lo, hi)
        x, a1, a2 = XB[f, :n], A1[f, :n], A2[f, :n]
        return (x, YB[f, :n], a1, a2, Z3[f, :n], M1[f, :n], M2[f, :n],
                [w[f] for w in W], [b[f] for b in B],
                W[1][f].transpose(0, 2, 1), W[2][f].transpose(0, 2, 1),
                x.transpose(0, 2, 1), a1.transpose(0, 2, 1),
                a2.transpose(0, 2, 1), [g[f] for g in GW], [g[f] for g in GB],
                P[f, :n_weights], G[f, :n_weights], T[f], P[f], G[f])

    def step(views: tuple, idx: np.ndarray) -> None:
        (x, yb, a1, a2, z3, m1, m2, (w0, w1, w2), (b0, b1, b2),
         w1t, w2t, xt, a1t, a2t, gw, gb, pw, gww, t, p, g) = views
        np.take(X_all, idx, axis=0, out=x, mode="clip")
        np.take(y_all, idx, axis=0, out=yb, mode="clip")
        np.matmul(x, w0, out=a1)
        a1 += b0
        np.maximum(a1, 0.0, out=a1)
        np.matmul(a1, w1, out=a2)
        a2 += b1
        np.maximum(a2, 0.0, out=a2)
        np.matmul(a2, w2, out=z3)
        z3 += b2
        dz3 = sigmoid(z3)
        dz3 -= yb
        dz3 /= x.shape[1]
        np.matmul(a2t, dz3, out=gw[2])
        # np.add.reduce is np.sum's reduction, without its Python wrapper
        np.add.reduce(dz3, axis=1, out=gb[2])
        np.greater(a2, 0.0, out=m2)  # a ReLU output is positive where its input is
        dz2 = np.multiply(dz3, w2t, out=a2)  # a one-term product, so dz3 @ w2.T
        dz2 *= m2
        np.matmul(a1t, dz2, out=gw[1])
        np.add.reduce(dz2, axis=1, out=gb[1])
        np.greater(a1, 0.0, out=m1)
        dz1 = np.matmul(dz2, w1t, out=a1)
        dz1 *= m1
        np.matmul(xt, dz1, out=gw[0])
        np.add.reduce(dz1, axis=1, out=gb[0])
        np.multiply(pw, l2, out=t)
        gww += t
        g *= LEARNING_RATE
        p -= g

    # fold r takes part in the first full[r] steps of an epoch
    active = [sum(f > s for f in full) for s in range(max(full))]
    full_views = {a: slab(0, a, m) for a in set(active)}
    tails = [(r, n - f * m) for r, (n, f) in enumerate(zip(rows, full))
             if n > f * m]
    tail_views = {r: slab(r, r + 1, n) for r, n in tails}
    idx = np.empty((max(full), k, m), dtype=np.intp)
    tail_idx = [None] * k
    for _ in range(first.epochs):
        for r, i in enumerate(rank):
            order = streams[i].permutation(rows[r])
            order += offsets[r]
            idx[:full[r], r] = order[:full[r] * m].reshape(full[r], m)
            tail_idx[r] = order[full[r] * m:].reshape(1, -1)
        for s, a in enumerate(active):
            step(full_views[a], idx[s, :a])
        for r, _ in tails:
            step(tail_views[r], tail_idx[r])
