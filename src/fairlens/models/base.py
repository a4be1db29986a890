"""Model-zoo common types: hyperparameter draws, trained-model wrapper,
training dispatch.

Hyperparameter ranges: logit C ~ U(0.1, 10); mlp width multiplier P ~
{1..10} with epochs 100, batch 64, L2 0.01 fixed; knn neighbors ~ {3..20}
and metric from {minkowski(p=3), euclidean, manhattan}; rf estimators ~
{10..50} with depth ~ {5..50} and min leaf ~ {1..10}; tree reuses rf's
depth and min-leaf ranges; nb has no hyperparameters, so its search
degenerates to a single fit.

Single-class training data is an error for the parametric kinds (logit,
mlp, nb); the memorizing kinds (knn, tree, rf) tolerate it with a warning
since their predictions remain well-defined.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .. import MODEL_KINDS
from ..rand import Stream

log = logging.getLogger("fairlens.models")

KNN_METRICS = ("minkowski", "euclidean", "manhattan")

PARAMETRIC_KINDS = ("logit", "mlp", "nb")  # these refuse single-class data


class TrainingError(RuntimeError):
    """A draw failed to train; the search skips it and continues."""


# LinAlgError is a ValueError; a ValueError from a kind's fit or predict
# (a bad shape, an out-of-range parameter) fails the draw, not the run
FAILURES = (TrainingError, ArithmeticError, ValueError)


@dataclass
class FoldData:
    """One fold's training and validation slices (already normalized)."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray


@dataclass(frozen=True)
class HyperDraw:
    kind: str
    index: int
    params: tuple[tuple[str, float | int | str], ...]

    def get(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    @property
    def signature(self) -> str:
        """Canonical parameter string; equal signatures mean equal fits."""
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"


@dataclass
class TrainedModel:
    kind: str
    model: object
    draw: HyperDraw

    def predict_scores(self, X) -> np.ndarray:
        return predict_scores(self, X)


def sample_hypers(kind: str, count: int, seed: int) -> list[HyperDraw]:
    """Deterministic draws for one (kind, seed); count is a prefix property,
    so asking for 10 gives the first 10 of the 30-draw sequence."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    stream = Stream("hypers", kind, seed)
    draws = []
    for i in range(count):
        if kind == "logit":
            params = (("C", float(stream.uniform(0.1, 10.0))),)
        elif kind == "mlp":
            params = (("P", stream.randint(1, 10)), ("epochs", 100),
                      ("batch", 64), ("l2", 0.01))
        elif kind == "knn":
            params = (("neighbors", stream.randint(3, 20)),
                      ("metric", KNN_METRICS[stream.randbelow(3)]))
        elif kind == "rf":
            params = (("estimators", stream.randint(10, 50)),
                      ("max_depth", stream.randint(5, 50)),
                      ("min_leaf", stream.randint(1, 10)))
        elif kind == "tree":
            params = (("max_depth", stream.randint(5, 50)),
                      ("min_leaf", stream.randint(1, 10)))
        else:  # nb
            params = ()
        draws.append(HyperDraw(kind=kind, index=i, params=params))
    return draws


def _validate_training_data(kind: str, X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise TrainingError(f"bad training shapes {X.shape} / {y.shape}")
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    if not np.all(np.isfinite(X)):
        raise TrainingError("non-finite feature values")
    # return_counts keeps np.unique off its hash path, which imports numpy.ma
    classes = np.unique(y, return_counts=True)[0]
    if not np.all(np.isin(classes, (0, 1))):
        raise TrainingError(f"labels must be 0/1, got {classes[:5]}")
    if classes.size < 2:
        if kind in PARAMETRIC_KINDS:
            raise TrainingError(f"{kind}: single-class training set")
        log.warning("%s trained on single-class data; scores will be constant", kind)


def _model(draw: HyperDraw, n_features: int):
    """The unfitted model of one draw."""
    from .bayes import GaussianNb
    from .linear import Logit
    from .neighbors import Knn
    from .nn import Mlp
    from .trees import DecisionTree, RandomForest

    if draw.kind == "logit":
        return Logit(c=draw.get("C"))
    if draw.kind == "mlp":
        p = draw.get("P")
        return Mlp(hidden1=p * n_features, hidden2=(p + 1) * n_features,
                   epochs=draw.get("epochs"), batch_size=draw.get("batch"),
                   l2=draw.get("l2"))
    if draw.kind == "knn":
        return Knn(n_neighbors=draw.get("neighbors"), metric=draw.get("metric"))
    if draw.kind == "rf":
        return RandomForest(n_estimators=draw.get("estimators"),
                            max_depth=draw.get("max_depth"),
                            min_leaf=draw.get("min_leaf"))
    if draw.kind == "tree":
        return DecisionTree(max_depth=draw.get("max_depth"),
                            min_leaf=draw.get("min_leaf"))
    if draw.kind == "nb":
        return GaussianNb()
    raise TrainingError(f"unknown kind {draw.kind!r}")


@np.errstate(over="ignore", invalid="ignore")
def train(draw: HyperDraw, folds: list[FoldData], streams: list[Stream | None]
          ) -> tuple[list[TrainedModel], Exception | None]:
    """Fit one draw on each fold's training rows, in fold order.

    streams[i] supplies fold i's randomness (mlp init and batch order, rf
    bootstrap); deterministic kinds ignore it. Returns the fitted models
    and None, or, once a fold fails, the models of the folds before it and
    that fold's error; later folds are not fitted. The mlp folds train
    together in one lockstep loop (nn.fit_folds), each to the weights a fit
    on its rows alone gives. Overflow is silent: the fit fails as diverged.
    """
    from .nn import DIVERGED, fit_folds

    models, Xs, ys, fold_streams, error = [], [], [], [], None
    for fold, stream in zip(folds, streams):
        try:
            X = np.asarray(fold.X_train, dtype=np.float64)
            y = np.asarray(fold.y_train, dtype=np.int64)
            _validate_training_data(draw.kind, X, y)
            if draw.kind in ("mlp", "rf") and stream is None:
                raise TrainingError(f"{draw.kind} requires a random stream")
            model = _model(draw, X.shape[1])
            if draw.kind == "rf":
                model.fit(X, y, stream)
            elif draw.kind != "mlp":
                model.fit(X, y)
        except FAILURES as exc:
            error = exc
            break
        models.append(model)
        Xs.append(X)
        ys.append(y)
        fold_streams.append(stream)
    if draw.kind == "mlp" and models:
        fit_folds(models, Xs, ys, fold_streams)
        for i, net in enumerate(models):
            if net.diverged:
                models, error = models[:i], TrainingError(DIVERGED)
                break
    return [TrainedModel(kind=draw.kind, model=m, draw=draw) for m in models], error


def predict_scores(trained: TrainedModel, X) -> np.ndarray:
    """Scores in [0,1] for each row of X; width must match training.
    Non-finite scores mean a failed fit, so they raise TrainingError."""
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = trained.model.predict_scores(X)
    if not np.all(np.isfinite(scores)):
        raise TrainingError(f"{trained.kind} produced non-finite scores")
    return scores
