"""Seeded k-fold splits with a per-fold validation carve-out.

Rows are permuted once per (dataset, seed) by Stream.permutation and
dealt into k folds by np.array_split (the first n mod k folds get the
extra row). For each fold the test set is the fold itself; the validation
set is the head of the remaining block permuted under a per-fold
sub-seed, sized round-half-away-from-zero(fraction * block), never below
1; the rest is the training set. Index arrays are returned sorted, so
downstream float reductions see a canonical row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rand import Stream


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class FoldSplit:
    fold: int
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def kfold_splits(
    n_rows: int,
    n_folds: int,
    seed: int,
    dataset: str = "",
    validation_fraction: float = 0.1,
) -> list[FoldSplit]:
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    if n_rows < n_folds:
        raise ValueError(f"cannot split {n_rows} rows into {n_folds} folds")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(f"validation fraction out of range: {validation_fraction}")

    order = Stream("split", dataset, seed).permutation(n_rows)
    folds = [np.sort(fold) for fold in np.array_split(order, n_folds)]

    splits: list[FoldSplit] = []
    for f in range(n_folds):
        block = np.concatenate(folds[:f] + folds[f + 1:])
        n_val = max(1, round_half_away(validation_fraction * len(block)))
        if n_val >= len(block):
            raise ValueError(
                f"fold {f}: validation size {n_val} leaves no training rows "
                f"(block of {len(block)})"
            )
        block = block[Stream("validation", dataset, seed, f).permutation(len(block))]
        splits.append(FoldSplit(fold=f, train=np.sort(block[n_val:]),
                                validation=np.sort(block[:n_val]), test=folds[f]))
    return splits
