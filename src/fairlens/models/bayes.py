"""Gaussian naive Bayes with variance smoothing.

Per class: feature means, population variances, and the empirical prior.
Variances get a smoothing floor of 1e-9 times the largest feature variance
in the training data (so the floor follows the data's scale); an all-constant
design falls back to an absolute 1e-9. The score is the posterior
P(y=1 | x) from the log joint densities, normalized stably.
"""

from __future__ import annotations

import numpy as np

from .base import TrainingError

VAR_SMOOTHING = 1e-9


class GaussianNb:
    def __init__(self):
        self.means: np.ndarray | None = None  # 2 x F
        self.variances: np.ndarray | None = None
        self.log_priors: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNb":
        # return_counts keeps np.unique off its hash path, which imports numpy.ma
        classes = np.unique(y, return_counts=True)[0]
        if classes.size < 2:
            raise TrainingError("nb: single-class training set")
        eps = VAR_SMOOTHING * float(np.var(X, axis=0).max())
        if eps == 0.0:
            eps = VAR_SMOOTHING
        means, variances, priors = [], [], []
        for c in (0, 1):
            rows = X[y == c]
            means.append(rows.mean(axis=0))
            variances.append(rows.var(axis=0) + eps)
            priors.append(rows.shape[0] / X.shape[0])
        self.means = np.stack(means)
        self.variances = np.stack(variances)
        self.log_priors = np.log(np.array(priors))
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        if self.means is None:
            raise RuntimeError("not fitted")
        if X.shape[1] != self.means.shape[1]:
            raise ValueError(f"expected {self.means.shape[1]} features, got {X.shape[1]}")
        joint = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.means[c]
            joint[:, c] = self.log_priors[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.variances[c]) + diff * diff / self.variances[c],
                axis=1,
            )
        peak = joint.max(axis=1, keepdims=True)
        norm = peak.ravel() + np.log(np.sum(np.exp(joint - peak), axis=1))
        return np.exp(joint[:, 1] - norm)
