"""Matrix assembly contracts: row order, variances, ratios, fold pooling."""

import numpy as np
import pytest

from fairlens import METRIC_NAMES
from fairlens.fairmatrix import (
    MODEL_KINDS,
    aggregate_over_folds,
    assemble_matrix,
    matrix_csv_text,
    per_model_matrix,
)
from fairlens.metrics import (
    ConfusionCounts,
    auc_or_default,
    confusion_at_threshold,
    group_metric_vectors,
    metric_table,
)
from fairlens.pipeline import cell_record

COMPLEMENT_PAIRS = (("TPR", "FNR"), ("TNR", "FPR"), ("PPV", "FDR"), ("NPV", "FOR"))
J = {name: j for j, name in enumerate(METRIC_NAMES)}


def row_index(rows, model, group):
    """The row of (model, group) among the matrix row keys."""
    return rows.index(f"{model}:{group}")


def fairness_ratio(rows, values, metric, group_g, group_h, model=None):
    """m_g(j) / m_h(j) for one model's rows (the first row's model by
    default); 1.0 signals parity, None an undefined ratio (zero
    denominator)."""
    model = rows[0].split(":")[0] if model is None else model
    j = METRIC_NAMES.index(metric)
    den = values[row_index(rows, model, group_h), j]
    if den == 0.0:
        return None
    return float(values[row_index(rows, model, group_g), j] / den)


def check_complement_variances(rec, tol):
    """Names of complement pairs whose column variances in the cell
    record rec differ beyond tol."""
    var = dict(zip(METRIC_NAMES, rec["column_variances"]))
    return [f"{a}/{b}" for a, b in COMPLEMENT_PAIRS
            if abs(var[a] - var[b]) > tol]


def table(counts, aucs, n_total):
    """The metric table of rows of (tp, fp, tn, fn) counts."""
    tp, fp, tn, fn = np.array(counts).T
    return metric_table(tp, fp, tn, fn, np.asarray(aucs, dtype=float),
                        np.zeros(len(aucs), dtype=bool), n_total)


def random_tables(rng, models, groups, n_total=100):
    out = {}
    for m in models:
        rows = [[rng.integers(1, 20, size=4), rng.uniform(0.3, 1.0)]
                for _ in groups]
        out[m] = table([c for c, _ in rows], [a for _, a in rows], n_total)
    return out


def test_row_order_models_outer_groups_inner():
    rng = np.random.default_rng(0)
    groups = ("big", "mid", "small")
    vecs = random_tables(rng, ["mlp", "logit"], groups)
    rows, values, flags = assemble_matrix(vecs, groups)
    assert list(rows) == [
        "logit:big", "logit:mid", "logit:small",
        "mlp:big", "mlp:mid", "mlp:small",
    ]
    assert values.shape == (6, 13)
    assert flags.shape == (6, 13)
    rec, _ = cell_record(vecs, 0, groups, "big", ["logit", "mlp"])
    assert rec["rows"] == list(rows)
    assert rec["col_distance"]["labels"] == list(METRIC_NAMES)


def test_dimensions_g5_l2():
    rng = np.random.default_rng(1)
    groups = tuple(f"g{i}" for i in range(5))
    vecs = random_tables(rng, ["logit", "mlp"], groups)
    _, values, _ = assemble_matrix(vecs, groups)
    assert values.shape == (10, 13)


def test_missing_pair_rejected():
    rng = np.random.default_rng(2)
    vecs = random_tables(rng, ["logit"], ("a", "b"))
    vecs["logit"] = tuple(part[:1] for part in vecs["logit"])
    with pytest.raises(ValueError, match=r"'logit' is not \(2, 13\)"):
        assemble_matrix(vecs, ("a", "b"))


def test_external_model_names_sort_after_canonical_kinds():
    # audit mode assembles matrices for models trained elsewhere, so
    # arbitrary names are allowed; they order after the built-in kinds
    rng = np.random.default_rng(3)
    vecs = random_tables(rng, ["svm9", "nb", "avendor"], ("a", "b"))
    rows, _, _ = assemble_matrix(vecs, ("a", "b"))
    model_order = [r.split(":")[0] for r in rows[::2]]
    assert model_order == ["nb", "avendor", "svm9"]


def test_complement_column_variances_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        groups = tuple(f"g{i}" for i in range(int(rng.integers(2, 6))))
        kinds = list(rng.choice(MODEL_KINDS, size=2, replace=False))
        vecs = random_tables(rng, kinds, groups)
        rec, _ = cell_record(vecs, 0, groups, groups[0], kinds)
        assert check_complement_variances(rec, tol=1e-12) == []


def test_column_variance_is_population():
    rng = np.random.default_rng(5)
    vecs = random_tables(rng, ["logit"], ("a", "b", "c"))
    rec, _ = cell_record(vecs, 0, ("a", "b", "c"), "a", ["logit"])
    j = METRIC_NAMES.index("TPR")
    col = np.asarray(rec["values"])[:, j]
    assert rec["column_variances"][j] == pytest.approx(
        np.mean((col - col.mean()) ** 2), abs=1e-15)


def test_per_model_restriction_and_restack():
    rng = np.random.default_rng(6)
    groups = ("a", "b", "c")
    vecs = random_tables(rng, ["logit", "mlp", "nb"], groups)
    rows, values, _ = assemble_matrix(vecs, groups)
    sub = per_model_matrix(rows, values, "mlp")
    assert sub.shape == (3, 13)
    assert np.array_equal(sub, vecs["mlp"][0])
    assert [r for r in rows if r.startswith("mlp:")] == [f"mlp:{g}" for g in groups]
    stacked = np.vstack([per_model_matrix(rows, values, k)
                         for k in ("logit", "mlp", "nb")])
    assert np.array_equal(stacked, values)
    with pytest.raises(ValueError, match="not present"):
        per_model_matrix(rows, values, "knn")


def test_flags_propagate_through_restriction():
    vecs = {"logit": table([(0, 0, 3, 2), (2, 1, 3, 2)], [0.5, 0.7], 10)}
    _, _, flags = assemble_matrix(vecs, ("a", "b"))
    assert flags[0, METRIC_NAMES.index("PPV")]
    assert not flags[1, METRIC_NAMES.index("PPV")]


def test_fairness_ratio_identity_and_arithmetic():
    vecs = {"logit": table([(3, 1, 4, 2), (3, 1, 4, 2)], [0.8, 0.8], 20)}
    rows, values, _ = assemble_matrix(vecs, ("a", "b"))
    for name in METRIC_NAMES:
        r = fairness_ratio(rows, values, name, "a", "b")
        assert r == pytest.approx(1.0)
    # TPR 0.6 vs 0.8 -> 0.75
    rows2, values2, _ = assemble_matrix(
        {"logit": table([(3, 1, 4, 2), (4, 1, 4, 1)], [0.8, 0.8], 20)},
        ("a", "b"))
    assert fairness_ratio(rows2, values2, "TPR", "a", "b") == pytest.approx(0.6 / 0.8)


def test_fairness_ratio_zero_denominator_undefined():
    # group b has FPR 0
    rows, values, _ = assemble_matrix(
        {"logit": table([(3, 1, 4, 2), (2, 0, 5, 3)], [0.8, 0.8], 20)},
        ("a", "b"))
    assert fairness_ratio(rows, values, "FPR", "a", "b") is None


def one_group(fold_scores):
    return [np.zeros(len(s), dtype=np.int64) for s in fold_scores]


def pooled(*args, **kwargs):
    """aggregate_over_folds of a one-group cell: its row of values and of
    flags, each by metric name."""
    values, flags = aggregate_over_folds(*args, **kwargs)
    assert values.shape == flags.shape == (1, 13)
    return dict(zip(METRIC_NAMES, values[0])), dict(zip(METRIC_NAMES, flags[0]))


def test_aggregate_pools_counts():
    scores = [np.array([0.9, 0.1]), np.array([0.8, 0.2])]
    labels = [np.array([1, 0]), np.array([1, 0])]
    v, _ = pooled(scores, labels, one_group(scores), [0.5, 0.5], ["g"],
                  n_total=4)
    assert v["TPR"] == 1.0
    assert v["A"] == 1.0
    assert v["AUC"] == 1.0
    # each row is judged against its own fold's threshold
    v, _ = pooled(scores, labels, one_group(scores), [0.5, 0.85], ["g"],
                  n_total=4)
    assert v["TPR"] == 0.5
    assert v["A"] == 0.75
    assert v["AUC"] == 1.0


def test_aggregate_skips_empty_folds():
    scores = [np.array([0.9, 0.7, 0.3, 0.6, 0.2]), np.array([])]
    labels = [np.array([1, 1, 0, 0, 1]), np.array([], dtype=np.int64)]
    v, f = pooled(scores, labels, one_group(scores), [0.5, 0.99], ["g"],
                  n_total=5)
    assert v["A"] == pytest.approx(3 / 5)
    assert not f["A"]


def test_aggregate_all_empty_gives_flagged_vector():
    scores = [np.array([])] * 2
    _, f = pooled(scores, [np.array([], dtype=np.int64)] * 2,
                  one_group(scores), [0.5, 0.5], ["g"], n_total=10)
    assert all(f.values())


def test_aggregate_pooled_auc_matches_pair_oracle():
    from test_metrics import pair_count_auc

    rng = np.random.default_rng(7)
    for _ in range(20):
        scores = [rng.integers(0, 10, size=8) / 9.0 for _ in range(3)]
        labels = [rng.integers(0, 2, size=8) for _ in range(3)]
        labels[0][:2] = [0, 1]
        v, _ = pooled(scores, labels, one_group(scores), [0.5] * 3, ["g"],
                      n_total=24)
        want = pair_count_auc(np.concatenate(scores), np.concatenate(labels))
        assert v["AUC"] == pytest.approx(want, abs=1e-12)


def old_aggregate_over_folds(fold_counts, fold_scores, fold_labels, n_total):
    """Copy of the per-group pooling the fold-pooled aggregate_over_folds
    replaced: sum the fold counts, rank the concatenated fold scores."""
    from test_metrics import (old_compute_metric_vector,
                              old_empty_metric_vector)

    if not fold_counts:
        raise ValueError("need at least one fold")
    total = None
    for c in fold_counts:
        if c is None:
            continue
        total = c if total is None else ConfusionCounts(
            total.tp + c.tp, total.fp + c.fp, total.tn + c.tn, total.fn + c.fn)
    if total is None or total.tp + total.fp + total.tn + total.fn == 0:
        return old_empty_metric_vector()
    nonempty = [s for s in fold_scores if len(s) > 0]
    scores = np.concatenate(nonempty) if nonempty else np.array([])
    labels = np.concatenate([l for l in fold_labels if len(l) > 0]) if nonempty else np.array([])
    auc, auc_flag = auc_or_default(scores, labels)
    return old_compute_metric_vector(total, auc, n_total, auc_flag)


def fold_group_loop(fold_scores, fold_labels, fold_assignments, thresholds,
                    group_labels, n_total):
    """Oracle: copy of the fold x group loop that run used to pool a kind's
    test folds, one confusion tally per (group, fold)."""
    by_group = {}
    for g_idx, label in enumerate(group_labels):
        fold_counts, fold_s, fold_l = [], [], []
        for f in range(len(fold_scores)):
            mask = fold_assignments[f] == g_idx
            s = fold_scores[f][mask]
            yl = fold_labels[f][mask]
            if s.size == 0:
                fold_counts.append(None)
            else:
                fold_counts.append(confusion_at_threshold(s, yl, thresholds[f]))
            fold_s.append(s)
            fold_l.append(yl)
        by_group[label] = old_aggregate_over_folds(fold_counts, fold_s, fold_l,
                                                   n_total)
    return by_group


def test_aggregate_bit_identical_to_fold_group_loop():
    rng = np.random.default_rng(11)
    groups = ("big", "mid", "gone_in_fold0", "one_class", "never")
    for trial in range(200):
        n_folds = int(rng.integers(1, 6))
        sizes = rng.integers(0, 40, size=n_folds)
        sizes[0] = max(sizes[0], 1)
        # few distinct scores, so ties within and across folds are common
        scores = [rng.integers(0, 12, size=n) / 11.0 for n in sizes]
        labels = [rng.integers(0, 2, size=n) for n in sizes]
        assign = [rng.integers(0, 4, size=n) for n in sizes]
        assign[0][assign[0] == 2] = 0  # group 2 is absent from fold 0
        for y, a in zip(labels, assign):
            y[a == 3] = 1              # group 3 holds positives only
        # thresholds on score values too, to exercise the inclusive rule
        thresholds = list(rng.integers(0, 23, size=n_folds) / 22.0)
        n_total = int(sizes.sum()) + 5
        values, flags = aggregate_over_folds(scores, labels, assign,
                                             thresholds, groups, n_total)
        want = fold_group_loop(scores, labels, assign, thresholds, groups,
                               n_total)
        assert values.shape == flags.shape == (len(want), 13)
        for k, g in enumerate(groups):
            assert np.array_equal(values[k].view(np.int64),
                                  want[g][0].view(np.int64)), (trial, g)
            assert np.array_equal(flags[k], want[g][1]), (trial, g)
        assert flags[groups.index("never")].all()
        if np.any(np.concatenate(assign) == 3):
            assert flags[groups.index("one_class"), J["AUC"]]


def test_matrix_csv_round_trips_values():
    rng = np.random.default_rng(8)
    vecs = random_tables(rng, ["logit"], ("a", "b"))
    rec, _ = cell_record(vecs, 0, ("a", "b"), "a", ["logit"])
    text = matrix_csv_text(rec)
    lines = text.strip().split("\n")
    assert lines[0] == "row," + ",".join(METRIC_NAMES)
    assert lines[1].startswith("logit:a,")
    parsed = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    _, values, _ = assemble_matrix(vecs, ("a", "b"))
    assert np.array_equal(parsed, values)  # %.17g is lossless for float64


def test_group_vectors_feed_assembly():
    scores = np.array([0.9, 0.2, 0.7, 0.4, 0.8, 0.3])
    labels = np.array([1, 0, 1, 0, 1, 0])
    groups = np.array([0, 0, 1, 1, 0, 1])
    by_group = group_metric_vectors(scores, labels, groups, ["x", "y"], 0.5, 6)
    _, values, _ = assemble_matrix({"logit": by_group}, ("x", "y"))
    assert values.shape == (2, 13)
    assert np.all(values >= 0) and np.all(values <= 1)
