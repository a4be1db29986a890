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
row of one (folds, params) array, so the update is two whole-array
operations. A fold's short last batch runs on its own slice. Each epoch
gathers all of its batches' rows with one take. Each fold draws its init
and epoch orders from its own stream and computes every product and sum
exactly as a fit on its rows alone would, so its weights are those bits.
Mlp.fit is the one-fold case.

Each layer's bias is the last row of its weight block. The rows and each
hidden layer's activations carry a ones column, so the matrix products
add the biases, and the products that give the weight gradients also sum
the bias gradients. The training sigmoid is 1 / (1 + exp(-z)); exp
overflows to inf below z = -88, which gives the right 0. The learning rate
over the batch size scales the output deltas, so the gradients come out
scaled, and the L2 term is a decay: a step is w * (1 - lr * l2) - g on a
weight and b - g on a bias. For plain SGD, L2 and weight decay are the
same update (Loshchilov & Hutter 2019).

Training runs in float32: the rows, labels, parameters, gradients and
step buffers. The He-uniform init is drawn in float64 and rounded once as
it is copied into the parameter array; the step's scalars are float32, so
every step stays in float32. predict_scores takes float64 rows, which
promote the float32 weights exactly, so scores are a float64 forward pass
with the float64 linear.sigmoid.
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
            limit = np.sqrt(6.0 / fan_in)  # He-uniform, variance 2 / fan_in
            u = stream.uniforms(fan_in * fan_out).reshape(fan_in, fan_out)
            self.weights.append(limit * (2.0 * u - 1.0))
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


@np.errstate(over="ignore")  # the training sigmoid's exp, below z = -88
def fit_folds(nets: list[Mlp], Xs: list[np.ndarray], ys: list[np.ndarray],
              streams: list[Stream]) -> None:
    """Train nets[i] on (Xs[i], ys[i]) with streams[i], all in one loop.

    The nets are one draw's: the same widths, epochs, batch size and L2,
    and the Xs have the same width. Afterwards each net's weights and
    biases are float32 views of its row of one parameter array; a net
    that diverged is left non-finite for the caller to check.
    """
    first = nets[0]
    m, f = first.batch_size, Xs[0].shape[1]
    shapes = first._shapes(f)
    (_, h1), (_, h2) = shapes[0], shapes[1]
    sizes = [(r + 1) * c for r, c in shapes]  # each block's bias is a row
    ends = np.cumsum(sizes).tolist()
    starts = [e - s for e, s in zip(ends, sizes)]

    # folds with more full batches first, so each step's folds are a prefix
    rank = sorted(range(len(nets)), key=lambda i: -(Xs[i].shape[0] // m))
    k = len(rank)
    rows = [Xs[i].shape[0] for i in rank]
    full = [n // m for n in rows]
    offsets = np.cumsum([0] + rows[:-1]).tolist()
    data = np.ones((sum(rows), f + 2), dtype=np.float32)  # [x | 1 | y]
    data[:, :f] = np.concatenate([Xs[i] for i in rank])
    data[:, f + 1] = np.concatenate([ys[i] for i in rank])

    # the blocks, then a zero row under the last one (a column, so w2.T)
    P = np.zeros((k, ends[-1] + h2 + 1), dtype=np.float32)
    G = np.zeros_like(P)
    W = [P[:, s:e].reshape(k, r + 1, c)
         for s, e, (r, c) in zip(starts, ends, shapes)]
    GW = [G[:, s:e].reshape(k, r + 1, c)
          for s, e, (r, c) in zip(starts, ends, shapes)]
    W2T_PAD = P[:, starts[2]:].reshape(k, 2, h2 + 1)  # [w2.T ; 0]
    # weights decay by 1 - lr * l2; biases, each block's last row, do not
    decay = np.full(P.shape[1], 1.0 - LEARNING_RATE * first.l2, dtype=np.float32)
    for e, (_, c) in zip(ends, shapes):
        decay[e - c:e] = 1.0
    for r, i in enumerate(rank):
        net = nets[i]
        net._init_params(f, streams[i])
        for w, wi, bi in zip(W, net.weights, net.biases):
            w[r, :-1] = wi
            w[r, -1] = bi
        net.weights = [w[r, :-1] for w in W]
        net.biases = [w[r, -1] for w in W]

    # Both hidden layers' activations, each with its ones column, are one
    # buffer, so one pass over it gives both layers' ReLU masks. A layer's
    # deltas have a column more than its width (from the bias row; never
    # read), so the ReLUs, masks and deltas run on contiguous blocks, which
    # is several times faster than on column slices.
    A = np.ones(k * m * (h1 + h2 + 2), dtype=np.float32)
    M = np.empty_like(A)
    # np.maximum(a, zeros) runs about twice as fast as np.maximum(a, 0.0)
    zeros = np.zeros_like(A)

    def layers(buf: np.ndarray) -> list[np.ndarray]:
        """buf as its (k, m, h1 + 1) and (k, m, h2 + 1) blocks."""
        return [b.reshape(k, m, -1) for b in np.split(buf, [k * m * (h1 + 1)])]

    (A1, A2), (M1, M2), (Z1, Z2) = layers(A), layers(M), layers(zeros)
    D1, D2 = np.empty_like(A1), np.empty_like(A2)
    # row 0 is z3 and then dz3, row 1 zeros: the outer product dz3 * w2.T
    # runs faster as the sgemm of [dz3 | 0] and [w2.T ; 0] than as a
    # broadcast multiply. Its products are the same, and the sign of a
    # zero, which alone can differ, never reaches a parameter.
    Z3 = np.zeros((2, k, m), dtype=np.float32)
    W1T = np.empty((k, h2, h1 + 1), dtype=np.float32)  # contiguous: faster
    one = np.ones((), dtype=np.float32)  # a Python float converts per call

    def views(lo: int, hi: int, batch: np.ndarray) -> tuple:
        """A step's views for folds lo:hi and batch, their (folds, n, f + 2)
        gathered rows."""
        g, n = slice(lo, hi), batch.shape[1]
        x, a1, a2 = batch[..., :f + 1], A1[g, :n], A2[g, :n]
        d1, d2 = D1[g, :n], D2[g, :n]
        return (x, x.transpose(0, 2, 1), batch[..., f + 1:],
                a1, a1[..., :h1], a1.transpose(0, 2, 1), Z1[g, :n], M1[g, :n],
                a2, a2[..., :h2], a2.transpose(0, 2, 1), Z2[g, :n], M2[g, :n],
                Z3[0, g, :n, None], Z3[:, g, :n].transpose(1, 2, 0),
                d1, d1[..., :h1], d2, d2[..., :h2],
                [w[g] for w in W], W[1][g].transpose(0, 2, 1), W1T[g],
                W2T_PAD[g], [gw[g] for gw in GW], P[g], G[g],
                np.array(LEARNING_RATE / n, dtype=np.float32))

    def step(x, xt, y, a1, z1, a1t, zeros1, m1, a2, z2, a2t, zeros2, m2, z3,
             z3_pad, d1, dz1, d2, dz2, w, w1t_view, w1t, w2t_pad, gw, p, g,
             scale) -> None:
        np.matmul(x, w[0], out=z1)
        np.maximum(a1, zeros1, out=a1)  # the ones column stays 1
        np.matmul(a1, w[1], out=z2)
        np.maximum(a2, zeros2, out=a2)
        np.matmul(a2, w[2], out=z3)
        np.negative(z3, out=z3)
        np.exp(z3, out=z3)
        np.add(z3, one, out=z3)
        np.reciprocal(z3, out=z3)
        np.subtract(z3, y, out=z3)
        np.multiply(z3, scale, out=z3)  # dz3, scaled by lr / n
        np.matmul(a2t, z3, out=gw[2])
        np.greater(A, 0.0, out=M)  # a ReLU output is positive where its input is
        np.matmul(z3_pad, w2t_pad, out=d2)
        np.multiply(d2, m2, out=d2)
        np.matmul(a1t, dz2, out=gw[1])
        np.copyto(w1t, w1t_view)
        np.matmul(dz2, w1t, out=d1)
        np.multiply(d1, m1, out=d1)
        np.matmul(xt, dz1, out=gw[0])
        np.multiply(p, decay, out=p)
        np.subtract(p, g, out=p)

    # fold r takes part in the first full[r] steps of an epoch; each epoch
    # gathers the rows of all its steps, the short last batches after the
    # full ones, with one take
    S = max(full)
    tails = [(r, n - c * m) for r, (n, c) in enumerate(zip(rows, full))
             if n > c * m]
    idx = np.zeros(S * k * m + sum(n for _, n in tails), dtype=np.intp)
    gathered = np.empty((idx.size, f + 2), dtype=np.float32)
    batches = gathered[:S * k * m].reshape(S, k, m, f + 2)
    active = [sum(c > s for c in full) for s in range(S)]
    steps = [views(0, a, batches[s, :a]) for s, a in enumerate(active)]
    full_idx = idx[:S * k * m].reshape(S, k, m)
    tail_idx = [None] * k
    at = S * k * m
    for r, n in tails:
        tail_idx[r] = idx[at:at + n]
        steps.append(views(r, r + 1, gathered[at:at + n].reshape(1, n, f + 2)))
        at += n
    for _ in range(first.epochs):
        for r, i in enumerate(rank):
            order = streams[i].permutation(rows[r])
            order += offsets[r]
            c = full[r] * m
            full_idx[:full[r], r] = order[:c].reshape(full[r], m)
            if c < rows[r]:
                tail_idx[r][:] = order[c:]
        np.take(data, idx, axis=0, out=gathered, mode="clip")
        for v in steps:
            step(*v)
