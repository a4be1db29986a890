"""Random hyperparameter search across folds with AUC-based selection.

Each draw is trained once per fold and scored by validation AUC; a draw's
search score is its mean across folds. The winner per kind is the draw with
the highest mean, ties broken by earliest draw index. Draws with identical
parameters (common for coarse ranges, and always for nb) are fitted once
and share their result. A draw that fails on any fold is marked failed and
skipped; a kind whose draws all fail is excluded with a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..metrics import auc_or_default
from ..rand import Stream
from .base import HyperDraw, TrainedModel, TrainingError, train

log = logging.getLogger("fairlens.models")

# LinAlgError is a ValueError; a ValueError from a kind's fit or predict
# (a bad shape, an out-of-range parameter) fails the draw, not the run
_FAILURE_KINDS = (TrainingError, ArithmeticError, ValueError)


@dataclass
class FoldData:
    """One fold's training and validation slices (already normalized)."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray


@dataclass
class DrawResult:
    draw: HyperDraw
    fold_val_aucs: list[float] = field(default_factory=list)
    mean_val_auc: float | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class SearchReport:
    kind: str
    results: list[DrawResult]
    winner: DrawResult | None


@dataclass
class KindSearchOutcome:
    report: SearchReport
    winner_models: list[TrainedModel] | None  # one per fold, winner's params
    # per fold, the winner's scores on that fold's validation rows
    winner_val_scores: list[np.ndarray] | None


def select_best_model(results: list[DrawResult]) -> DrawResult | None:
    """Highest mean validation AUC; exact ties keep the earliest draw."""
    winner = None
    for r in results:
        if r.failed:
            continue
        if winner is None or r.mean_val_auc > winner.mean_val_auc:
            winner = r
    return winner


def search_kind(
    kind: str,
    draws: list[HyperDraw],
    folds: list[FoldData],
    base_ids: tuple,
) -> KindSearchOutcome:
    """Evaluate one kind's draws over all folds and pick the winner.

    base_ids (e.g. (dataset, seed)) key the training streams together with
    the fold index and the draw's parameter signature, so a deduplicated
    draw trains identically no matter which index asked first.
    """
    if not draws:
        raise ValueError("no draws to search")
    by_signature: dict[str, DrawResult] = {}
    # signature -> per-fold (models, validation scores) of a draw that trained
    fitted: dict[str, tuple[list[TrainedModel], list[np.ndarray]]] = {}
    results: list[DrawResult] = []

    for draw in draws:
        sig = draw.signature
        if sig in by_signature:
            prior = by_signature[sig]
            results.append(DrawResult(draw=draw,
                                      fold_val_aucs=prior.fold_val_aucs,
                                      mean_val_auc=prior.mean_val_auc,
                                      error=prior.error))
            continue
        result = DrawResult(draw=draw)
        fold_models: list[TrainedModel] = []
        fold_val_scores: list[np.ndarray] = []
        try:
            for f, fold in enumerate(folds):
                stream = Stream(*base_ids, "train", f, kind, sig)
                model = train(draw, fold.X_train, fold.y_train, stream)
                val_scores = model.predict_scores(fold.X_val)
                auc, _ = auc_or_default(val_scores, fold.y_val)
                result.fold_val_aucs.append(auc)
                fold_models.append(model)
                fold_val_scores.append(val_scores)
            result.mean_val_auc = float(np.mean(result.fold_val_aucs))
        except _FAILURE_KINDS as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            result.fold_val_aucs = []
            log.warning("%s draw %d failed: %s", kind, draw.index, result.error)
        else:
            fitted[sig] = (fold_models, fold_val_scores)
        by_signature[sig] = result
        results.append(result)

    winner = select_best_model(results)
    if winner is None:
        log.warning("all %d draws failed for kind %s; excluding it",
                    len(draws), kind)
        return KindSearchOutcome(
            report=SearchReport(kind=kind, results=results, winner=None),
            winner_models=None,
            winner_val_scores=None,
        )
    winner_models, winner_val_scores = fitted[winner.draw.signature]
    return KindSearchOutcome(
        report=SearchReport(kind=kind, results=results, winner=winner),
        winner_models=winner_models,
        winner_val_scores=winner_val_scores,
    )
