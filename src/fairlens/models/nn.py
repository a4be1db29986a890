"""Two-hidden-layer perceptron trained by minibatch SGD.

Architecture: F -> hidden1 (ReLU) -> hidden2 (ReLU) -> 1 (sigmoid), with
hidden widths supplied by the caller (the search maps a width multiplier P
to P*F and (P+1)*F). The loss is mean binary cross-entropy per batch plus
an L2 weight penalty whose gradient contribution is l2 * W (biases
unpenalized); it defines the gradient a step takes and is never computed
itself. Constant learning rate; epoch order reshuffled per epoch from the
caller's stream, so a (data, hyperparameters, stream key) triple pins
every weight bit.
"""

from __future__ import annotations

import numpy as np

from ..rand import Stream
from .base import TrainingError
from .linear import sigmoid

LEARNING_RATE = 0.05


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

    def _init_params(self, n_features: int, stream: Stream) -> None:
        shapes = [(n_features, self.hidden1),
                  (self.hidden1, self.hidden2),
                  (self.hidden2, 1)]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in shapes:
            scale = np.sqrt(2.0 / fan_in)  # He init for the ReLU stack
            w = stream.normal(fan_in * fan_out).reshape(fan_in, fan_out) * scale
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    def _forward(self, X: np.ndarray):
        """ReLU activations a1, a2 (positive exactly where their inputs
        are, so they give the backward masks) and the (n, 1) scores."""
        w, b = self.weights, self.biases
        a1 = X @ w[0]
        a1 += b[0]
        np.maximum(a1, 0.0, out=a1)
        a2 = a1 @ w[1]
        a2 += b[1]
        np.maximum(a2, 0.0, out=a2)
        z3 = a2 @ w[2]
        z3 += b[2]
        return a1, a2, sigmoid(z3)

    def _grads(self, X: np.ndarray, y: np.ndarray):
        """Weight and bias gradients of the loss on one batch (y is an
        (m, 1) float column of 0/1)."""
        w = self.weights
        a1, a2, dz3 = self._forward(X)
        dz3 -= y
        dz3 /= X.shape[0]
        dz2 = dz3 * w[2].T  # a one-term product, so equal to dz3 @ w[2].T
        dz2 *= a2 > 0
        dz1 = dz2 @ w[1].T
        dz1 *= a1 > 0
        gws = [X.T @ dz1, a1.T @ dz2, a2.T @ dz3]
        for g, wi in zip(gws, w):
            g += self.l2 * wi
        return gws, [dz1.sum(axis=0), dz2.sum(axis=0), dz3.sum(axis=0)]

    def fit(self, X: np.ndarray, y: np.ndarray, stream: Stream) -> "Mlp":
        n = X.shape[0]
        yc = y.reshape(-1, 1).astype(np.float64)
        self._init_params(X.shape[1], stream)
        params = self.weights + self.biases
        for _ in range(self.epochs):
            order = stream.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                gws, gbs = self._grads(X[idx], yc[idx])
                for p, g in zip(params, gws + gbs):
                    g *= LEARNING_RATE
                    p -= g
        if not all(np.all(np.isfinite(p)) for p in params):
            raise TrainingError("mlp diverged to non-finite weights or biases")
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected {self.weights[0].shape[0]} features, got {X.shape[1]}")
        return self._forward(X)[2].ravel()
