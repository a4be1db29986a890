"""Logistic regression trained by full-batch gradient descent.

Objective: mean binary cross-entropy plus an L2 penalty of strength 1/C on
the weights (bias unpenalized):

    J(w, b) = mean_i [softplus(z_i) - y_i z_i] + (1 / 2C) ||w||^2

with z = Xw + b. Descent uses backtracking (Armijo) line search and stops
when the gradient norm drops to 1e-8 or the iteration cap is hit. The
regularized optimum is finite and unique, so this is reliable without any
solver dependency.
"""

from __future__ import annotations

import math

import numpy as np

GRADIENT_TOL = 1e-8
MAX_ITER = 500


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp
    overflows; min(z, -z) is -|z| but keeps the sign of a NaN."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logit_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
                    c: float) -> tuple[float, np.ndarray, float]:
    """Value and analytic gradient of the regularized objective."""
    n = X.shape[0]
    z = X @ w + b
    loss = float(np.mean(_softplus(z) - y * z)) + float(w @ w) / (2.0 * c)
    p = sigmoid(z)
    grad_w = X.T @ (p - y) / n + w / c
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


class Logit:
    def __init__(self, c: float):
        if c <= 0:
            raise ValueError("C must be positive")
        self.c = float(c)
        self.w: np.ndarray | None = None
        self.b = 0.0
        self.n_iter = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Logit":
        n, f = X.shape
        w = np.zeros(f)
        b = 0.0
        loss, gw, gb = logit_objective(w, b, X, y, self.c)
        for it in range(MAX_ITER):
            gnorm2 = float(gw @ gw) + gb * gb
            if math.sqrt(gnorm2) <= GRADIENT_TOL:
                break
            step = 1.0
            while step > 1e-16:
                w_new = w - step * gw
                b_new = b - step * gb
                loss_new, gw_new, gb_new = logit_objective(w_new, b_new, X, y, self.c)
                if loss_new <= loss - 1e-4 * step * gnorm2:  # Armijo decrease
                    break
                step *= 0.5
            else:
                break  # no acceptable step left; gradient is numerically flat
            w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
            self.n_iter = it + 1
        self.w = w
        self.b = b
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.w.shape[0]:
            raise ValueError(f"expected {self.w.shape[0]} features, got {X.shape[1]}")
        return sigmoid(X @ self.w + self.b)
