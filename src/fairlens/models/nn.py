"""Two-hidden-layer perceptron trained by minibatch SGD.

Architecture: F -> hidden1 (ReLU) -> hidden2 (ReLU) -> 1 (sigmoid), with
hidden widths supplied by the caller (the search maps a width multiplier P
to P*F and (P+1)*F). Loss is mean binary cross-entropy per batch plus an
L2 weight penalty whose gradient contribution is l2 * W (biases
unpenalized). Constant learning rate; epoch order reshuffled per epoch
from the caller's stream, so a (data, hyperparameters, stream key) triple
pins every weight bit.
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
        w, b = self.weights, self.biases
        z1 = X @ w[0] + b[0]
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w[1] + b[1]
        a2 = np.maximum(z2, 0.0)
        z3 = a2 @ w[2] + b[2]
        return z1, a1, z2, a2, z3, sigmoid(z3)

    def _loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean-BCE-plus-L2 loss and gradients on one batch (y is 0/1)."""
        m = X.shape[0]
        w = self.weights
        z1, a1, z2, a2, z3, p = self._forward(X)
        yc = y.reshape(-1, 1).astype(np.float64)
        ce = np.maximum(z3, 0.0) - yc * z3 + np.log1p(np.exp(-np.abs(z3)))
        loss = float(np.mean(ce))
        loss += 0.5 * self.l2 * sum(float(np.sum(wi * wi)) for wi in w)

        dz3 = (p - yc) / m
        gw3 = a2.T @ dz3 + self.l2 * w[2]
        gb3 = dz3.sum(axis=0)
        da2 = dz3 @ w[2].T
        dz2 = da2 * (z2 > 0)
        gw2 = a1.T @ dz2 + self.l2 * w[1]
        gb2 = dz2.sum(axis=0)
        da1 = dz2 @ w[1].T
        dz1 = da1 * (z1 > 0)
        gw1 = X.T @ dz1 + self.l2 * w[0]
        gb1 = dz1.sum(axis=0)
        return loss, [gw1, gw2, gw3], [gb1, gb2, gb3]

    def fit(self, X: np.ndarray, y: np.ndarray, stream: Stream) -> "Mlp":
        n = X.shape[0]
        self._init_params(X.shape[1], stream)
        for _ in range(self.epochs):
            order = stream.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                _, gws, gbs = self._loss_and_grads(X[idx], y[idx])
                for wi, gw in zip(self.weights, gws):
                    wi -= LEARNING_RATE * gw
                for bi, gb in zip(self.biases, gbs):
                    bi -= LEARNING_RATE * gb
        for wi in self.weights:
            if not np.all(np.isfinite(wi)):
                raise TrainingError("mlp diverged to non-finite weights")
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected {self.weights[0].shape[0]} features, got {X.shape[1]}")
        return self._forward(X)[5].ravel()
