"""Confusion counts, the 13 classification metrics, AUC, and
balanced-accuracy threshold selection.

Canonical metric order is METRIC_NAMES: AUC, A, BA, FPR, TPR, FNR, TNR, PPV,
NPV, FDR, FOR, PPR, PPREV. FDR is FP/(TP+FP), the complement of PPV. PPREV
divides positive predictions by the group size; PPR divides by the whole
dataset size, so the two differ exactly when the group is a proper subset.

The metrics of a cell's groups form one table, two (groups, 13) arrays of
values and flags, computed from per-group counts in one vectorized pass
(metric_table). Degenerate cases never raise: a rate with a zero
denominator is imputed as 0.0 and flagged (_rates, the one such rule),
single-class AUC as 0.5 and flagged. The flags show which cells are
imputations rather than measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# endpoint candidates for threshold selection; strictly inside (0,1)
_EDGE = 1e-6


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class ThresholdChoice:
    t_max: float
    achieved_ba: float
    n_candidates: int
    degenerate: bool = False  # single-class validation fallback


def confusion_at_threshold(scores, labels, t) -> ConfusionCounts:
    """Tally counts under the inclusive rule: score >= t predicts positive.

    t is one threshold for every row or an array with one per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    pred = scores >= t
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def _rates(num, den) -> tuple[np.ndarray, np.ndarray]:
    """num / den elementwise, and where den == 0 the imputed 0.0 with its
    flag set: the package's one zero-denominator rule. No division by
    zero is ever carried out."""
    num, den = np.broadcast_arrays(num, den)
    zero = den == 0
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=~zero)
    return out, zero


def _balanced(tp, fp, tn, fn):
    """TPR, TNR and BA = (TPR + TNR) / 2, each as (values, flags); BA is
    flagged where either rate is."""
    tpr, f_tpr = _rates(tp, tp + fn)
    tnr, f_tnr = _rates(tn, tn + fp)
    return (tpr, f_tpr), (tnr, f_tnr), ((tpr + tnr) / 2.0, f_tpr | f_tnr)


def metric_table(tp, fp, tn, fn, auc, auc_flags,
                 n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """The 13 metrics of each group's counts: (values, flags), two arrays
    of shape (groups, 13) in METRIC_NAMES order, flags True where imputed.

    auc and auc_flags hold each group's precomputed AUC. n_total is the
    whole-dataset size N and a group has N_g = tp + fp + tn + fn rows, so
    PPR and PPREV share a numerator but not a denominator. An empty group
    (N_g = 0) gets AUC 0.5, zeros elsewhere and every flag set.
    """
    tp, fp, tn, fn = (np.asarray(c, dtype=np.int64) for c in (tp, fp, tn, fn))
    n_g = tp + fp + tn + fn
    if np.any(n_g > n_total):
        raise ValueError(f"n_total={n_total} smaller than group size "
                         f"{int(n_g.max())}")
    empty = n_g == 0
    tpr, tnr, ba = _balanced(tp, fp, tn, fn)
    columns = (
        (np.where(empty, 0.5, auc), empty | auc_flags),
        _rates(tp + tn, n_g),                    # A
        ba,
        _rates(fp, tn + fp),                     # FPR
        tpr,
        _rates(fn, tp + fn),                     # FNR
        tnr,
        _rates(tp, tp + fp),                     # PPV
        _rates(tn, tn + fn),                     # NPV
        _rates(fp, tp + fp),                     # FDR
        _rates(fn, tn + fn),                     # FOR
        (_rates(tp + fp, n_total)[0], empty),    # PPR
        _rates(tp + fp, n_g),                    # PPREV
    )
    return (np.stack([v for v, _ in columns], axis=-1),
            np.stack([f for _, f in columns], axis=-1))


def mann_whitney_auc(scores, labels) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties as 1/2.

    Rank-based: AUC = (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg). Rows
    with equal scores share the midrank of their run in the sorted order:
    a run of c equal scores ending at 1-based rank r has midrank
    r - (c - 1)/2. The positive ranks are summed in row order. Raises on
    single-class labels.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    r_pos = float(midranks[inverse][labels == 1].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_or_default(scores, labels) -> tuple[float, bool]:
    """AUC, or (0.5, flagged) when only one class is present."""
    try:
        return mann_whitney_auc(scores, labels), False
    except ValueError:
        return 0.5, True


def balanced_accuracy(counts: ConfusionCounts) -> float:
    _, _, (ba, _) = _balanced(counts.tp, counts.fp, counts.tn, counts.fn)
    return float(ba)


def select_threshold(scores, labels) -> ThresholdChoice:
    """Pick the threshold maximizing balanced accuracy on a validation set.

    Candidates are the midpoints between consecutive distinct sorted scores
    plus the two near-boundary values _EDGE and 1 - _EDGE, so "(almost) all
    positive" and "(almost) all negative" are always reachable. A candidate
    t predicts positive for every score >= t (the inclusive rule of
    confusion_at_threshold).

    Every candidate is scored in one sweep (the ROC sweep of Fawcett, "An
    introduction to ROC analysis", 2006): the scores are sorted once, the
    number of rows below each candidate is found by binary search, and a
    cumulative count of positives in sorted order splits those rows into
    false negatives and true negatives. The counts are the integers
    confusion_at_threshold would tally and BA comes from them as in
    balanced_accuracy, so each candidate's BA is the same float. Exact
    maximization over this finite set; ties go to the smallest threshold.
    Single-class validation cannot rank thresholds, so it falls back to 0.5
    with the degenerate flag set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise ValueError("empty validation set")
    if np.unique(labels).size < 2:
        return ThresholdChoice(t_max=0.5, achieved_ba=0.5,
                               n_candidates=0, degenerate=True)
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.unique(np.concatenate(([_EDGE], mids, [1.0 - _EDGE])))

    order = np.argsort(scores)
    pos_below = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    below = np.searchsorted(scores[order], candidates, side="left")
    fn = pos_below[below]
    tn = below - fn
    n_pos = int(pos_below[-1])
    n_neg = scores.size - n_pos
    # n_pos is 0 only for labels other than {0, 1}; TPR is then imputed
    _, _, (ba, _) = _balanced(n_pos - fn, n_neg - tn, tn, fn)
    best = int(np.argmax(ba))  # first maximum: the smallest threshold
    return ThresholdChoice(t_max=float(candidates[best]),
                           achieved_ba=float(ba[best]),
                           n_candidates=int(candidates.size))


def group_metric_vectors(scores, labels, assignments, group_labels,
                         t, n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """The metric table of the groups: (values, flags), one row per group
    in group_labels order, each computed on that group's rows only.

    assignments holds each row's index into group_labels. t is one
    threshold for every row or an array with one per row. PPR uses
    n_total (whole dataset); PPREV uses the group's own scored-row count.
    Group AUC ranks the group's own score/label pairs in row order. A
    group with zero rows here gets the fully imputed row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    assignments = np.asarray(assignments, dtype=np.intp)
    if not (scores.shape == labels.shape == assignments.shape):
        raise ValueError("scores, labels, and assignments must align")
    n_groups = len(group_labels)
    pred = scores >= np.asarray(t, dtype=np.float64)
    pos = labels == 1
    # cell 2 * pred + pos: 0 = TN, 1 = FN, 2 = FP, 3 = TP
    cells = np.bincount(4 * assignments + 2 * pred + pos,
                        minlength=4 * n_groups).reshape(n_groups, 4)
    tn, fn, fp, tp = cells.T
    auc, auc_flags = np.full(n_groups, 0.5), np.ones(n_groups, dtype=bool)
    for k in np.flatnonzero(cells.any(axis=1)):
        mask = assignments == k
        auc[k], auc_flags[k] = auc_or_default(scores[mask], labels[mask])
    return metric_table(tp, fp, tn, fn, auc, auc_flags, n_total)
