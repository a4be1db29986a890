"""Confusion counts, the 13 classification metrics, AUC, and
balanced-accuracy threshold selection.

Canonical metric order is METRIC_NAMES: AUC, A, BA, FPR, TPR, FNR, TNR, PPV,
NPV, FDR, FOR, PPR, PPREV. FDR is FP/(TP+FP), the complement of PPV. PPREV
divides positive predictions by the group size; PPR divides by the whole
dataset size, so the two differ exactly when the group is a proper subset.

Degenerate cases never raise inside the vector path: a rate with a zero
denominator is imputed as 0.0 and flagged, single-class AUC is imputed as
0.5 and flagged. Flags ride along with every vector so reports can show
which cells are imputations rather than measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import METRIC_NAMES

# endpoint candidates for threshold selection; strictly inside (0,1)
_EDGE = 1e-6


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ThresholdChoice:
    t_max: float
    achieved_ba: float
    n_candidates: int
    degenerate: bool = False  # single-class validation fallback


@dataclass(frozen=True)
class MetricVector:
    """The 13 metrics in canonical order; flags mark imputed entries."""

    values: np.ndarray  # shape (13,)
    flags: np.ndarray   # shape (13,), bool, True = imputed

    def __getitem__(self, name: str) -> float:
        return float(self.values[METRIC_NAMES.index(name)])

    def flagged(self, name: str) -> bool:
        return bool(self.flags[METRIC_NAMES.index(name)])


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


def _rate(num: int, den: int) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def compute_metric_vector(counts: ConfusionCounts, auc: float, n_total: int,
                          auc_flagged: bool = False) -> MetricVector:
    """All 13 metrics from pooled counts plus a precomputed AUC.

    n_total is the whole-dataset size N; the counts cover one group of size
    N_g = counts.total, so PPR and PPREV share a numerator but not a
    denominator.
    """
    n_g = counts.total
    if n_g == 0:
        raise ValueError("all counts zero; use empty_metric_vector for empty groups")
    if n_total < n_g:
        raise ValueError(f"n_total={n_total} smaller than group size {n_g}")
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn

    a = (tp + tn) / n_g
    tpr, f_tpr = _rate(tp, tp + fn)
    fnr, f_fnr = _rate(fn, tp + fn)
    tnr, f_tnr = _rate(tn, tn + fp)
    fpr, f_fpr = _rate(fp, tn + fp)
    ppv, f_ppv = _rate(tp, tp + fp)
    fdr, f_fdr = _rate(fp, tp + fp)
    npv, f_npv = _rate(tn, tn + fn)
    for_, f_for = _rate(fn, tn + fn)
    ba = (tpr + tnr) / 2.0
    f_ba = f_tpr or f_tnr
    ppr = (tp + fp) / n_total
    pprev = (tp + fp) / n_g

    values = np.array([auc, a, ba, fpr, tpr, fnr, tnr,
                       ppv, npv, fdr, for_, ppr, pprev])
    flags = np.array([auc_flagged, False, f_ba, f_fpr, f_tpr, f_fnr, f_tnr,
                      f_ppv, f_npv, f_fdr, f_for, False, False])
    return MetricVector(values=values, flags=flags)


def empty_metric_vector() -> MetricVector:
    """Fully imputed vector for a group with zero scored rows."""
    values = np.zeros(len(METRIC_NAMES))
    values[METRIC_NAMES.index("AUC")] = 0.5
    flags = np.ones(len(METRIC_NAMES), dtype=bool)
    return MetricVector(values=values, flags=flags)


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
    tpr, _ = _rate(counts.tp, counts.tp + counts.fn)
    tnr, _ = _rate(counts.tn, counts.tn + counts.fp)
    return (tpr + tnr) / 2.0


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
    confusion_at_threshold would tally and BA is computed from them as in
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
    classes = np.unique(labels)
    if classes.size < 2:
        return ThresholdChoice(t_max=0.5, achieved_ba=0.5,
                               n_candidates=0, degenerate=True)
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate(([_EDGE], mids, [1.0 - _EDGE]))
    candidates = np.unique(candidates)

    order = np.argsort(scores)
    pos_below = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    below = np.searchsorted(scores[order], candidates, side="left")
    fn = pos_below[below]
    tn = below - fn
    n_pos = int(pos_below[-1])
    n_neg = scores.size - n_pos
    # n_pos is 0 only for labels other than {0, 1}; TPR is then imputed as 0
    tpr = (n_pos - fn) / n_pos if n_pos else np.zeros(candidates.size)
    ba = (tpr + tn / n_neg) / 2.0
    best = int(np.argmax(ba))  # first maximum: the smallest threshold
    return ThresholdChoice(t_max=float(candidates[best]),
                           achieved_ba=float(ba[best]),
                           n_candidates=int(candidates.size))


def group_metric_vectors(scores, labels, assignments, group_labels,
                         t, n_total: int) -> dict[str, MetricVector]:
    """One MetricVector per group, computed on that group's rows only.

    t is one threshold for every row or an array with one per row. PPR
    uses n_total (whole dataset); PPREV uses the group's own scored-row
    count. Group AUC ranks the group's own score/label pairs in row order.
    A group with zero rows here gets the fully imputed vector.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    assignments = np.asarray(assignments)
    if not (scores.shape == labels.shape == assignments.shape):
        raise ValueError("scores, labels, and assignments must align")
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), scores.shape)
    out: dict[str, MetricVector] = {}
    for k, name in enumerate(group_labels):
        mask = assignments == k
        if not mask.any():
            out[name] = empty_metric_vector()
            continue
        g_scores, g_labels = scores[mask], labels[mask]
        auc, auc_flag = auc_or_default(g_scores, g_labels)
        counts = confusion_at_threshold(g_scores, g_labels, t[mask])
        out[name] = compute_metric_vector(counts, auc, n_total, auc_flag)
    return out
