"""Metric-layer contracts: confusion tallies, the 13-metric table, AUC
against a brute-force pair-counting oracle, threshold selection against
an exhaustive grid sweep, and bit identity of the one-sort threshold
sweep, the vectorised midrank AUC and the group metric table with the
loops they replaced."""

import numpy as np
import pytest

from fairlens import METRIC_NAMES
from fairlens.metrics import (
    _EDGE,
    ConfusionCounts,
    ThresholdChoice,
    auc_or_default,
    balanced_accuracy,
    confusion_at_threshold,
    group_metric_vectors,
    mann_whitney_auc,
    metric_table,
    select_threshold,
)

J = {name: j for j, name in enumerate(METRIC_NAMES)}


def pair_count_auc(scores, labels):
    """Independent oracle: explicit (positive, negative) pair counting."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


# ---------------------------------------------------------------- confusion

def test_confusion_perfect_separation():
    c = confusion_at_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.5)
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)


def test_confusion_degenerate_threshold_all_positive():
    c = confusion_at_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], 0.0)
    assert (c.tp, c.fp) == (2, 2)
    assert c.tn == c.fn == 0


def test_confusion_hand_tally():
    c = confusion_at_threshold([0.6, 0.4, 0.7, 0.3, 0.55], [1, 0, 0, 1, 0], 0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 2, 1, 1)


def test_confusion_boundary_inclusive():
    c = confusion_at_threshold([0.5], [1], 0.5)
    assert c.tp == 1


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion_at_threshold([0.5, 0.5], [1], 0.5)


# -------------------------------------------------------------- metric table

def test_metric_vector_oracle_values():
    values, flags = metric_table(tp=3, fp=1, tn=4, fn=2, auc=0.9,
                                 auc_flags=False, n_total=10)
    expect = {
        "AUC": 0.9, "A": 0.7, "BA": 0.7, "FPR": 0.2, "TPR": 0.6,
        "FNR": 0.4, "TNR": 0.8, "PPV": 0.75, "NPV": 2 / 3,
        "FDR": 0.25, "FOR": 1 / 3, "PPR": 0.4, "PPREV": 0.4,
    }
    for name, want in expect.items():
        assert values[J[name]] == pytest.approx(want, abs=1e-15), name
    assert not flags.any()


def test_ppr_vs_pprev_denominators():
    # group of 5 inside a dataset of 100, two positive predictions
    values, _ = metric_table(1, 1, 2, 1, 0.5, False, n_total=100)
    assert values[J["PPREV"]] == pytest.approx(0.4)
    assert values[J["PPR"]] == pytest.approx(0.02)


def test_no_positive_predictions_imputed_and_flagged():
    values, flags = metric_table(0, 0, 3, 2, 0.5, False, n_total=5)
    assert values[J["PPV"]] == 0.0 and flags[J["PPV"]]
    assert values[J["FDR"]] == 0.0 and flags[J["FDR"]]
    assert values[J["PPREV"]] == 0.0 and not flags[J["PPREV"]]


def test_group_larger_than_n_total_rejected():
    with pytest.raises(ValueError, match="smaller than group size"):
        metric_table([0, 4], [0, 3], [0, 2], [0, 2], [0.5, 0.5],
                     [False, False], n_total=10)


def test_complement_identities_random_counts():
    # one batch of count rows; every 20th is an all-zero (empty) group
    rng = np.random.default_rng(11)
    tp, fp, tn, fn = rng.integers(0, 30, size=(4, 300))
    for c in (tp, fp, tn, fn):
        c[::20] = 0
    values, flags = metric_table(tp, fp, tn, fn, np.full(300, 0.5),
                                 np.zeros(300, dtype=bool), n_total=200)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    v = {name: values[:, j] for name, j in J.items()}
    n_g = tp + fp + tn + fn
    full = n_g > 0
    for a, b, den in (("TPR", "FNR", tp + fn), ("TNR", "FPR", tn + fp),
                      ("PPV", "FDR", tp + fp), ("NPV", "FOR", tn + fn)):
        ok = den > 0
        assert np.all(np.abs(v[a][ok] + v[b][ok] - 1.0) < 1e-12)
        assert np.array_equal(flags[:, J[a]], ~ok)
        assert np.array_equal(flags[:, J[b]], ~ok)
    assert np.all(np.abs(v["BA"] - (v["TPR"] + v["TNR"]) / 2.0) < 1e-12)
    assert np.all(np.abs(v["A"][full] - (tp + tn)[full] / n_g[full]) < 1e-12)
    assert flags[~full].all()


def test_empty_group_vector_fully_flagged():
    # with n_total = 0 every denominator is zero; a division by zero would
    # warn, and the warning filter makes that an error
    for n_total in (10, 0):
        values, flags = metric_table(0, 0, 0, 0, auc=0.9, auc_flags=False,
                                     n_total=n_total)
        assert flags.all()
        assert values[J["AUC"]] == 0.5
        assert values[J["TPR"]] == 0.0
        assert np.all(np.delete(values, J["AUC"]) == 0.0)
    assert balanced_accuracy(ConfusionCounts(0, 0, 0, 0)) == 0.0


# ------------------------------------------------------------------- ROC/AUC

def test_auc_worked_example():
    assert mann_whitney_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_perfect_ranking():
    assert mann_whitney_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert mann_whitney_auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_matches_pair_oracle():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid forces score ties
        scores = rng.integers(0, 6, size=n) / 5.0
        got = mann_whitney_auc(scores, labels)
        want = pair_count_auc(scores, labels)
        assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(6)
    scores = rng.uniform(0.05, 1.0, size=50)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    assert mann_whitney_auc(scores, labels) == pytest.approx(
        mann_whitney_auc(scores ** 2, labels), abs=1e-12)


def test_auc_label_flip_complement():
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 10, size=30) / 9.0
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    a = mann_whitney_auc(scores, labels)
    b = mann_whitney_auc(scores, 1 - labels)
    assert abs(a + b - 1.0) < 1e-12


def test_auc_single_class_raises_and_default():
    with pytest.raises(ValueError, match="single class"):
        mann_whitney_auc([0.1, 0.9], [1, 1])
    auc, flagged = auc_or_default([0.1, 0.9], [1, 1])
    assert auc == 0.5 and flagged


# ----------------------------------------------------------------- threshold

def test_threshold_single_midpoint():
    ch = select_threshold([0.2, 0.8], [0, 1])
    assert ch.t_max == pytest.approx(0.5)
    assert ch.achieved_ba == 1.0
    assert not ch.degenerate


def test_threshold_worked_example():
    ch = select_threshold([0.1, 0.2, 0.3, 0.9], [0, 0, 1, 1])
    assert ch.t_max == pytest.approx(0.25)
    assert ch.achieved_ba == 1.0


def test_threshold_tie_breaks_to_smallest():
    # scores/labels where BA is flat at 1.0 for two midpoints is impossible,
    # so force a tie with interchangeable errors instead
    scores = [0.1, 0.3, 0.5, 0.7]
    labels = [1, 0, 1, 0]
    ch = select_threshold(scores, labels)
    sweep = []
    for t in np.linspace(0.0, 1.0, 10001):
        sweep.append(balanced_accuracy(confusion_at_threshold(scores, labels, t)))
    assert ch.achieved_ba == pytest.approx(max(sweep), abs=1e-12)
    # every candidate achieving the max is >= the returned one
    from fairlens.metrics import _EDGE
    distinct = np.unique(scores)
    cands = np.concatenate(([_EDGE], (distinct[:-1] + distinct[1:]) / 2, [1 - _EDGE]))
    achieving = [t for t in cands
                 if balanced_accuracy(confusion_at_threshold(scores, labels, t))
                 == pytest.approx(ch.achieved_ba, abs=1e-15)]
    assert min(achieving) == pytest.approx(ch.t_max)


def test_threshold_single_class_fallback():
    ch = select_threshold([0.2, 0.9], [1, 1])
    assert ch.t_max == 0.5
    assert ch.degenerate


def grid_sweep_ba(scores, labels, grid):
    """Balanced accuracy at every grid threshold in one broadcast: the
    counts of confusion_at_threshold, then BA in balanced_accuracy's
    operation order."""
    pred = scores[None, :] >= grid[:, None]
    pos = labels == 1
    tp, fn = (pred & pos).sum(axis=1), (~pred & pos).sum(axis=1)
    tn, fp = (~pred & ~pos).sum(axis=1), (pred & ~pos).sum(axis=1)
    tpr = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    tnr = np.where(tn + fp > 0, tn / np.maximum(tn + fp, 1), 0.0)
    return (tpr + tnr) / 2.0


def test_grid_sweep_matches_confusion_counts():
    rng = np.random.default_rng(10)
    scores = np.round(rng.uniform(0.01, 0.99, size=25), 2)
    labels = rng.integers(0, 2, size=25)
    grid = np.linspace(0.0, 1.0, 101)
    loop = [balanced_accuracy(confusion_at_threshold(scores, labels, t)) for t in grid]
    assert grid_sweep_ba(scores, labels, grid).tolist() == loop


def test_threshold_matches_grid_sweep():
    rng = np.random.default_rng(9)
    for trial in range(60):
        n = int(rng.integers(3, 30))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = np.round(rng.uniform(0.01, 0.99, size=n), 2)
        ch = select_threshold(scores, labels)
        grid_best = grid_sweep_ba(scores, labels, np.linspace(0.0, 1.0, 10001)).max()
        assert ch.achieved_ba == pytest.approx(grid_best, abs=1e-12), f"trial {trial}"
        assert 0.0 < ch.t_max < 1.0


# The per-candidate threshold loop and the midrank loop that the one-sort
# implementations replaced, kept as bit-identity oracles.

def loop_select_threshold(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        return ThresholdChoice(t_max=0.5, achieved_ba=0.5,
                               n_candidates=0, degenerate=True)
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.unique(np.concatenate(([_EDGE], mids, [1.0 - _EDGE])))
    best_t = None
    best_ba = -1.0
    for t in candidates:
        ba = balanced_accuracy(confusion_at_threshold(scores, labels, float(t)))
        if ba > best_ba:
            best_ba = ba
            best_t = float(t)
    return ThresholdChoice(t_max=best_t, achieved_ba=best_ba,
                           n_candidates=int(candidates.size))


def loop_mann_whitney_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: labels contain a single class")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    r_pos = float(ranks[labels == 1].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def tied_inputs(seed, trials):
    """Small inputs drawn from a handful of values, so ties are heavy; the
    pool always holds 0, 1, _EDGE and 1 - _EDGE. Some label vectors hold a
    single class, some use {0, 2} (no row labelled 1)."""
    rng = np.random.default_rng(seed)
    edges = np.array([0.0, 1.0, _EDGE, 1.0 - _EDGE])
    for trial in range(trials):
        n = 1 if trial % 50 == 0 else int(rng.integers(2, 40))
        pool = np.concatenate((edges, np.round(rng.uniform(0, 1, size=4), 2)))
        scores = rng.choice(pool[:int(rng.integers(1, pool.size + 1))], size=n)
        labels = rng.integers(0, 2, size=n)
        if trial % 13 == 0:
            labels[:] = trial % 2
        elif trial % 17 == 0:
            labels *= 2
        yield scores, labels


def test_threshold_bit_identical_to_candidate_loop():
    for scores, labels in tied_inputs(seed=21, trials=3000):
        assert select_threshold(scores, labels) == \
            loop_select_threshold(scores, labels), (scores, labels)


def test_threshold_bit_identical_on_large_tied_input():
    rng = np.random.default_rng(4)
    scores = np.round(rng.uniform(0, 1, size=3000), 3)
    labels = (rng.uniform(0, 1, size=3000) < scores).astype(int)
    assert select_threshold(scores, labels) == loop_select_threshold(scores, labels)


def test_auc_bit_identical_to_midrank_loop():
    for scores, labels in tied_inputs(seed=22, trials=3000):
        try:
            want = loop_mann_whitney_auc(scores, labels)
        except ValueError:
            with pytest.raises(ValueError):
                mann_whitney_auc(scores, labels)
            continue
        assert mann_whitney_auc(scores, labels) == want, (scores, labels)


# -------------------------------------------------------------- group-wise

def test_group_vectors_symmetry():
    scores = np.array([0.9, 0.2, 0.7, 0.9, 0.2, 0.7])
    labels = np.array([1, 0, 0, 1, 0, 0])
    groups = np.array([0, 0, 0, 1, 1, 1])
    values, _ = group_metric_vectors(scores, labels, groups, ["a", "b"],
                                     0.5, 6)
    assert np.array_equal(values[0], values[1])


def test_group_vectors_empty_group_flagged():
    values, flags = group_metric_vectors([0.9, 0.2], [1, 0], [0, 0],
                                         ["a", "b"], 0.5, 2)
    assert values.shape == flags.shape == (2, 13)
    assert flags[1].all()
    assert values[1, J["AUC"]] == 0.5


def test_group_ppr_sums_to_total_rate():
    rng = np.random.default_rng(10)
    n = 120
    scores = rng.integers(0, 20, size=n) / 19.0
    labels = rng.integers(0, 2, size=n)
    groups = rng.integers(0, 3, size=n)
    values, _ = group_metric_vectors(scores, labels, groups,
                                     ["g0", "g1", "g2"], 0.4, n)
    total_pos_pred = int(np.sum(scores >= 0.4))
    assert values[:, J["PPR"]].sum() == pytest.approx(total_pos_pred / n, abs=1e-12)
    sizes = [int(np.sum(groups == k)) for k in range(3)]
    weighted = sum(v * s for v, s in zip(values[:, J["PPREV"]], sizes))
    assert weighted == pytest.approx(total_pos_pred, abs=1e-9)


def test_group_auc_is_within_group():
    scores = np.array([0.9, 0.1, 0.6, 0.4])
    labels = np.array([1, 0, 1, 0])
    groups = np.array([0, 0, 1, 1])
    values, _ = group_metric_vectors(scores, labels, groups, ["a", "b"],
                                     0.5, 4)
    assert values[0, J["AUC"]] == 1.0
    assert values[1, J["AUC"]] == 1.0


# The per-group path that the metric table replaced: one MetricVector-like
# (values, flags) pair per group from scalar counts, kept as the
# bit-identity oracle of group_metric_vectors.

def old_rate(num, den):
    if den == 0:
        return 0.0, True
    return num / den, False


def old_compute_metric_vector(counts, auc, n_total, auc_flagged=False):
    n_g = counts.tp + counts.fp + counts.tn + counts.fn
    if n_g == 0:
        raise ValueError("all counts zero; use empty_metric_vector for empty groups")
    if n_total < n_g:
        raise ValueError(f"n_total={n_total} smaller than group size {n_g}")
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    a = (tp + tn) / n_g
    tpr, f_tpr = old_rate(tp, tp + fn)
    fnr, f_fnr = old_rate(fn, tp + fn)
    tnr, f_tnr = old_rate(tn, tn + fp)
    fpr, f_fpr = old_rate(fp, tn + fp)
    ppv, f_ppv = old_rate(tp, tp + fp)
    fdr, f_fdr = old_rate(fp, tp + fp)
    npv, f_npv = old_rate(tn, tn + fn)
    for_, f_for = old_rate(fn, tn + fn)
    ba = (tpr + tnr) / 2.0
    f_ba = f_tpr or f_tnr
    ppr = (tp + fp) / n_total
    pprev = (tp + fp) / n_g
    values = np.array([auc, a, ba, fpr, tpr, fnr, tnr,
                       ppv, npv, fdr, for_, ppr, pprev])
    flags = np.array([auc_flagged, False, f_ba, f_fpr, f_tpr, f_fnr, f_tnr,
                      f_ppv, f_npv, f_fdr, f_for, False, False])
    return values, flags


def old_empty_metric_vector():
    values = np.zeros(len(METRIC_NAMES))
    values[J["AUC"]] = 0.5
    return values, np.ones(len(METRIC_NAMES), dtype=bool)


def old_group_metric_vectors(scores, labels, assignments, group_labels, t,
                             n_total):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    assignments = np.asarray(assignments)
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), scores.shape)
    out = {}
    for k, name in enumerate(group_labels):
        mask = assignments == k
        if not mask.any():
            out[name] = old_empty_metric_vector()
            continue
        g_scores, g_labels = scores[mask], labels[mask]
        auc, auc_flag = auc_or_default(g_scores, g_labels)
        counts = confusion_at_threshold(g_scores, g_labels, t[mask])
        out[name] = old_compute_metric_vector(counts, auc, n_total, auc_flag)
    return out


def test_group_table_bit_identical_to_per_group_loop():
    rng = np.random.default_rng(19)
    for case in range(1500):
        n = int(rng.integers(1, 60))
        n_groups = int(rng.integers(1, 6))
        # few distinct scores, so ties and zero denominators are common
        scores = rng.integers(0, 8, size=n) / 7.0
        labels = rng.integers(0, 2, size=n)
        assign = rng.integers(0, n_groups, size=n)
        if n_groups > 1 and case % 3 == 0:
            assign[assign == n_groups - 1] = 0   # an empty group
        if case % 4 == 0:
            labels[assign == 0] = case % 8 // 4  # a single-class group
        t = (rng.integers(0, 15, size=n) / 14.0 if case % 2
             else float(rng.integers(0, 15)) / 14.0)
        n_total = n + int(rng.integers(0, 20))
        groups = [f"g{k}" for k in range(n_groups)]
        values, flags = group_metric_vectors(scores, labels, assign, groups,
                                             t, n_total)
        want = old_group_metric_vectors(scores, labels, assign, groups, t,
                                        n_total)
        want_values = np.array([want[g][0] for g in groups])
        want_flags = np.array([want[g][1] for g in groups])
        assert np.array_equal(values.view(np.int64),
                              want_values.view(np.int64)), case
        assert np.array_equal(flags.astype(np.int64),
                              want_flags.astype(np.int64)), case


def test_metric_names_order():
    assert METRIC_NAMES == ("AUC", "A", "BA", "FPR", "TPR", "FNR", "TNR",
                            "PPV", "NPV", "FDR", "FOR", "PPR", "PPREV")
