"""Classifier-zoo contracts: hyperparameter ranges, per-kind behavior,
gradient checks against finite differences, and search selection."""

import numpy as np
import pytest

from fairlens.models import (
    KNN_METRICS,
    MODEL_KINDS,
    FoldData,
    HyperDraw,
    TrainingError,
    sample_hypers,
    search_kind,
    select_best_model,
    train,
)
from fairlens.models.bayes import GaussianNb
from fairlens.models.linear import Logit, logit_objective, sigmoid
from fairlens.models.neighbors import Knn
from fairlens.models.nn import Mlp
from fairlens.models.search import DrawResult
from fairlens.models.trees import DecisionTree, RandomForest
from fairlens.rand import Stream


def blobs(rng, n=60, gap=3.0):
    """Two well-separated Gaussian blobs in 2D."""
    half = n // 2
    X = np.vstack([
        rng.normal(size=(half, 2)),
        rng.normal(size=(n - half, 2)) + gap,
    ])
    y = np.array([0] * half + [1] * (n - half))
    return X, y


# -------------------------------------------------------------- sample_hypers

def test_hyper_ranges():
    for seed in range(5):
        for d in sample_hypers("logit", 30, seed):
            assert 0.1 <= d.get("C") <= 10.0
        for d in sample_hypers("mlp", 30, seed):
            assert 1 <= d.get("P") <= 10
            assert d.get("epochs") == 100 and d.get("batch") == 64
            assert d.get("l2") == 0.01
        for d in sample_hypers("knn", 30, seed):
            assert 3 <= d.get("neighbors") <= 20
            assert d.get("metric") in KNN_METRICS
        for d in sample_hypers("rf", 30, seed):
            assert 10 <= d.get("estimators") <= 50
            assert 5 <= d.get("max_depth") <= 50
            assert 1 <= d.get("min_leaf") <= 10
        for d in sample_hypers("tree", 30, seed):
            assert 5 <= d.get("max_depth") <= 50
            assert 1 <= d.get("min_leaf") <= 10


def test_nb_draws_are_identical_empty():
    draws = sample_hypers("nb", 30, 7)
    assert len(draws) == 30
    assert all(d.params == () for d in draws)
    assert len({d.signature for d in draws}) == 1


def test_hyper_determinism_and_prefix():
    a = sample_hypers("logit", 30, 3)
    b = sample_hypers("logit", 30, 3)
    assert [d.params for d in a] == [d.params for d in b]
    prefix = sample_hypers("logit", 10, 3)
    assert [d.params for d in prefix] == [d.params for d in a[:10]]


def test_hyper_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        sample_hypers("lsvm", 5, 0)
    with pytest.raises(ValueError, match="count"):
        sample_hypers("logit", 0, 0)


# ---------------------------------------------------------------------- logit

def test_logit_separable_perfect_training_accuracy():
    X = np.array([[-2.0, 0.0], [-1.5, 0.5], [-1.0, -0.5],
                  [1.0, 0.2], [1.5, -0.3], [2.0, 0.4]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = Logit(c=10.0).fit(X, y)
    pred = (model.predict_scores(X) >= 0.5).astype(int)
    assert np.array_equal(pred, y)


def test_logit_zero_weights_score_half():
    m = Logit(c=1.0)
    m.w = np.zeros(3)
    m.b = 0.0
    assert np.allclose(m.predict_scores(np.ones((4, 3))), 0.5)


def test_logit_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, f = 12, 3
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(size=f) * 0.5
        b = float(rng.normal()) * 0.5
        c = float(rng.uniform(0.5, 5.0))
        _, gw, gb = logit_objective(w, b, X, y, c)
        h = 1e-6
        for j in range(f):
            e = np.zeros(f)
            e[j] = h
            up, _, _ = logit_objective(w + e, b, X, y, c)
            dn, _, _ = logit_objective(w - e, b, X, y, c)
            fd = (up - dn) / (2 * h)
            assert gw[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        up, _, _ = logit_objective(w, b + h, X, y, c)
        dn, _, _ = logit_objective(w, b - h, X, y, c)
        assert gb == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-8)


def test_logit_converges_to_small_gradient():
    rng = np.random.default_rng(1)
    X, y = blobs(rng)
    m = Logit(c=1.0).fit(X, y)
    _, gw, gb = logit_objective(m.w, m.b, X, y, m.c)
    assert np.sqrt(gw @ gw + gb * gb) < 1e-6


def test_logit_regularization_shrinks_weights():
    rng = np.random.default_rng(2)
    X, y = blobs(rng)
    loose = Logit(c=10.0).fit(X, y)
    tight = Logit(c=0.1).fit(X, y)
    assert np.linalg.norm(tight.w) < np.linalg.norm(loose.w)


# ------------------------------------------------------------------------ mlp

def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, size=8)
    net = Mlp(hidden1=3, hidden2=4, l2=0.01)
    net._init_params(2, Stream("gradcheck"))
    # Zero biases leave rows with all-dead ReLUs sitting exactly on the
    # kink, where two-sided finite differences are meaningless. Nudge every
    # parameter to a generic point before comparing.
    for b in net.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    _, gws, gbs = net._loss_and_grads(X, y)
    h = 1e-6
    for layer in range(3):
        W = net.weights[layer]
        for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
            orig = W[idx]
            W[idx] = orig + h
            up, _, _ = net._loss_and_grads(X, y)
            W[idx] = orig - h
            dn, _, _ = net._loss_and_grads(X, y)
            W[idx] = orig
            fd = (up - dn) / (2 * h)
            assert gws[layer][idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        B = net.biases[layer]
        orig = B[0]
        B[0] = orig + h
        up, _, _ = net._loss_and_grads(X, y)
        B[0] = orig - h
        dn, _, _ = net._loss_and_grads(X, y)
        B[0] = orig
        assert gbs[layer][0] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-7)


def test_mlp_learns_separable_blobs():
    rng = np.random.default_rng(4)
    X, y = blobs(rng, n=80)
    # models always see standardized features in the pipeline
    Xz = (X - X.mean(axis=0)) / X.std(axis=0)
    net = Mlp(hidden1=4, hidden2=6, epochs=60).fit(Xz, y, Stream("mlp-blob"))
    acc = np.mean((net.predict_scores(Xz) >= 0.5) == y)
    assert acc >= 0.95


def test_mlp_deterministic_given_stream_key():
    rng = np.random.default_rng(5)
    X, y = blobs(rng, n=40)
    a = Mlp(hidden1=3, hidden2=4, epochs=5).fit(X, y, Stream("k", 1))
    b = Mlp(hidden1=3, hidden2=4, epochs=5).fit(X, y, Stream("k", 1))
    assert all(np.array_equal(x, z) for x, z in zip(a.weights, b.weights))
    c = Mlp(hidden1=3, hidden2=4, epochs=5).fit(X, y, Stream("k", 2))
    assert not all(np.array_equal(x, z) for x, z in zip(a.weights, c.weights))


# ------------------------------------------------------------------------ knn

def test_knn_unanimous_neighbors():
    X = np.array([[0.0], [0.1], [0.2], [5.0]])
    y = np.array([1, 1, 1, 0])
    m = Knn(n_neighbors=3).fit(X, y)
    assert m.predict_scores(np.array([[0.05]]))[0] == 1.0


def test_knn_fraction_score():
    X = np.array([[0.0], [0.2], [0.4], [9.0]])
    y = np.array([1, 0, 1, 0])
    m = Knn(n_neighbors=3).fit(X, y)
    assert m.predict_scores(np.array([[0.1]]))[0] == pytest.approx(2 / 3)


def test_knn_permutation_invariance_with_ties():
    rng = np.random.default_rng(6)
    # duplicated rows force exact distance ties at the k-th position
    base = rng.integers(0, 3, size=(30, 2)).astype(float)
    X = np.vstack([base, base[:10]])
    y = rng.integers(0, 2, size=40)
    test = rng.integers(0, 3, size=(15, 2)).astype(float)
    for metric in KNN_METRICS:
        m = Knn(n_neighbors=5, metric=metric).fit(X, y)
        ref = m.predict_scores(test)
        perm = rng.permutation(40)
        mp = Knn(n_neighbors=5, metric=metric).fit(X[perm], y[perm])
        assert np.allclose(mp.predict_scores(test), ref, atol=1e-12), metric


def test_knn_metrics_differ():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    test = rng.normal(size=(20, 3))
    scores = {m: Knn(n_neighbors=7, metric=m).fit(X, y).predict_scores(test)
              for m in KNN_METRICS}
    assert not np.allclose(scores["euclidean"], scores["manhattan"])
    assert not np.allclose(scores["euclidean"], scores["minkowski"])


def _oracle_knn_distances(block, train, metric):
    diff = np.abs(block[:, None, :] - train[None, :, :])
    if metric == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=2))
    if metric == "manhattan":
        return np.sum(diff, axis=2)
    return np.cbrt(np.sum(diff ** 3, axis=2))


def _oracle_knn_scores(X, y, test, n_neighbors, metric):
    """The blockwise all-pairs predictor that Knn replaced, as the oracle."""
    y = y.astype(np.float64)
    k = min(n_neighbors, X.shape[0])
    out = np.empty(test.shape[0])
    for start in range(0, test.shape[0], 256):
        block = test[start:start + 256]
        d = _oracle_knn_distances(block, X, metric)
        kth = np.sort(d, axis=1)[:, k - 1]
        closer = d < kth[:, None]
        boundary = d == kth[:, None]
        n_closer = closer.sum(axis=1)
        pos_closer = closer @ y
        n_bound = boundary.sum(axis=1)
        pos_bound = boundary @ y
        out[start:start + 256] = (
            pos_closer + (k - n_closer) * pos_bound / n_bound
        ) / k
    return out


def _assert_knn_matches_oracle(X, y, test, ks):
    for k in ks:
        for metric in KNN_METRICS:
            got = Knn(n_neighbors=k, metric=metric).fit(X, y).predict_scores(test)
            want = _oracle_knn_scores(X, y, test, k, metric)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                (k, metric)


def test_knn_distances_bit_identical():
    # neighbor choices rarely hinge on the last bit of a distance, so the
    # distances themselves are compared, on data whose cubes and sums round
    rng = np.random.default_rng(29)
    for F in (1, 3, 10, 13):
        X = np.vstack([rng.normal(size=(150, F)),
                       np.round(rng.normal(size=(150, F)), 1)])
        y = rng.integers(0, 2, size=300)
        test = np.vstack([rng.normal(size=(40, F)), X[::7]])
        rows = np.unique(X, axis=0)
        for metric in KNN_METRICS:
            m = Knn(n_neighbors=5, metric=metric).fit(X, y)
            got = m._distances(test, np.empty((len(test), m._values.size)),
                               np.empty((len(test),) + rows.shape))
            want = _oracle_knn_distances(test, rows, metric)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                (F, metric)


def test_knn_bit_identical_on_duplicated_grid():
    rng = np.random.default_rng(30)
    # few values per feature: heavy row duplication and ties at the k-th
    # distance; 70 queries span several blocks of distinct rows
    X = rng.integers(0, 3, size=(300, 4)).astype(float)
    y = rng.integers(0, 2, size=300)
    test = rng.integers(0, 3, size=(70, 4)).astype(float)
    n_distinct = np.unique(X, axis=0).shape[0]
    _assert_knn_matches_oracle(X, y, test, ks=(1, 5, 20, n_distinct + 7))


def test_knn_bit_identical_on_continuous_data():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(120, 10))
    y = rng.integers(0, 2, size=120)
    test = rng.normal(size=(90, 10))
    _assert_knn_matches_oracle(X, y, test, ks=(1, 5, 20, 500))


def test_knn_bit_identical_on_mixed_encoded_features():
    rng = np.random.default_rng(32)
    # standardized-looking columns with many repeated values, like the
    # encoded recidivism features
    X = np.column_stack([
        np.round(rng.normal(size=400), 1),
        rng.integers(0, 2, size=400) * 1.7 - 0.6,
        rng.integers(0, 52, size=400) / 7.0,
        rng.poisson(0.3, size=400).astype(float),
    ])
    y = rng.integers(0, 2, size=400)
    test = np.vstack([X[:50], X[:50], X[200:260] + 0.05])
    _assert_knn_matches_oracle(X, y, test, ks=(1, 5, 20))


def test_knn_bit_identical_on_single_class_and_training_queries():
    rng = np.random.default_rng(33)
    X = rng.integers(0, 4, size=(60, 3)).astype(float)
    test = np.vstack([X, rng.integers(0, 4, size=(10, 3)).astype(float)])
    for label in (0, 1):
        y = np.full(60, label)
        _assert_knn_matches_oracle(X, y, test, ks=(1, 5, 20, 100))
    y = rng.integers(0, 2, size=60)
    _assert_knn_matches_oracle(X, y, X, ks=(1, 5, 20, 100))


def test_knn_terms_computed_once_per_distinct_value(monkeypatch):
    from fairlens.models import neighbors

    shapes = []
    real_terms = neighbors._terms

    def counting_terms(diff, metric):
        shapes.append(diff.shape)
        real_terms(diff, metric)

    monkeypatch.setattr(neighbors, "_terms", counting_terms)
    rng = np.random.default_rng(34)
    X = rng.integers(0, 5, size=(2000, 6)).astype(float)
    y = rng.integers(0, 2, size=2000)
    test = rng.integers(0, 5, size=(500, 6)).astype(float)
    Knn(n_neighbors=9, metric="minkowski").fit(X, y).predict_scores(test)
    n_queries = np.unique(test, axis=0).shape[0]
    n_values = sum(np.unique(X[:, j]).size for j in range(6))
    # one table per block of distinct query rows, one column per distinct
    # (feature, value) pair: 30 columns, not 2000 x 6 terms per query row
    assert all(s[0] <= neighbors._BLOCK and s[1] == n_values for s in shapes)
    assert sum(s[0] for s in shapes) == n_queries
    assert len(shapes) == -(-n_queries // neighbors._BLOCK)


# ----------------------------------------------------------------- tree / rf

def test_tree_depth_one_cannot_solve_xor():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
    y = np.array([0, 1, 1, 0] * 5)
    m = DecisionTree(max_depth=1).fit(X, y)
    acc = np.mean((m.predict_scores(X) >= 0.5) == y)
    assert acc <= 0.75


def test_tree_fits_xor_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
    y = np.array([0, 1, 1, 0] * 5)
    m = DecisionTree(max_depth=2).fit(X, y)
    assert np.array_equal((m.predict_scores(X) >= 0.5).astype(int), y)


def test_tree_min_leaf_respected():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 2, size=40)
    m = DecisionTree(max_depth=10, min_leaf=5).fit(X, y)

    def leaf_sizes(node, X, idx):
        if node.is_leaf:
            return [idx.size]
        mask = X[idx, node.feature] <= node.threshold
        return (leaf_sizes(node.left, X, idx[mask])
                + leaf_sizes(node.right, X, idx[~mask]))

    sizes = leaf_sizes(m.root, X, np.arange(40))
    assert min(sizes) >= 5
    assert sum(sizes) == 40


def test_tree_leaf_scores_are_fractions():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    m = DecisionTree(max_depth=3, min_leaf=4).fit(X, y)
    s = m.predict_scores(X)
    assert np.all((s >= 0) & (s <= 1))


def test_rf_vote_fraction():
    rng = np.random.default_rng(10)
    X, y = blobs(rng, n=50)
    m = RandomForest(n_estimators=10, max_depth=3).fit(X, y, Stream("rf", 0))
    s = m.predict_scores(X)
    # every score is a multiple of 1/10
    assert np.allclose(s * 10, np.round(s * 10), atol=1e-12)


def test_rf_single_tree_equals_tree_on_its_bootstrap_sample():
    # a forest is a bag of trees: tree t is fit on a bootstrap sample drawn
    # from stream child ("tree", t), which then picks its split features
    rng = np.random.default_rng(11)
    n, f = 60, 4
    X = rng.normal(size=(n, f))
    y = rng.integers(0, 2, size=n)
    forest = RandomForest(n_estimators=1, max_depth=6, min_leaf=2)
    forest.fit(X, y, Stream("rf-eq"))
    child = Stream("rf-eq").child("tree", 0)
    idx = child.choice_indices(n, n)
    tree = DecisionTree(max_depth=6, min_leaf=2,
                        max_features=max(1, int(np.sqrt(f))))
    tree.fit(X[idx], y[idx], stream=child)
    test = rng.normal(size=(25, f))
    votes = (tree.predict_scores(test) >= 0.5).astype(float)
    assert (forest.predict_scores(test) == votes).all()


def test_rf_deterministic_per_stream():
    rng = np.random.default_rng(12)
    X, y = blobs(rng, n=40)
    t = rng.normal(size=(10, 2))
    a = RandomForest(5, 4).fit(X, y, Stream("rf-det", 0)).predict_scores(t)
    b = RandomForest(5, 4).fit(X, y, Stream("rf-det", 0)).predict_scores(t)
    assert np.array_equal(a, b)


# ------------------------------------------------------------------------- nb

def test_nb_gaussian_boundary_near_midpoint():
    rng = np.random.default_rng(13)
    n = 4000
    X = np.concatenate([rng.normal(0.0, 1.0, n), rng.normal(3.0, 1.0, n)])[:, None]
    y = np.array([0] * n + [1] * n)
    m = GaussianNb().fit(X, y)
    grid = np.linspace(0.5, 2.5, 2001)[:, None]
    s = m.predict_scores(grid)
    boundary = grid[np.argmin(np.abs(s - 0.5)), 0]
    # equal priors and equal variances put the analytic boundary at 1.5
    assert boundary == pytest.approx(1.5, abs=0.1)


def test_nb_handles_constant_feature():
    X = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
    y = (np.linspace(-1, 1, 20) > 0).astype(int)
    s = GaussianNb().fit(X, y).predict_scores(X)
    assert np.all(np.isfinite(s))
    assert np.all((s >= 0) & (s <= 1))


# -------------------------------------------------------------- train dispatch

def test_scores_in_unit_interval_for_all_kinds():
    rng = np.random.default_rng(14)
    X, y = blobs(rng, n=50)
    test = rng.normal(size=(20, 2)) + 1.5
    for kind in MODEL_KINDS:
        draw = sample_hypers(kind, 1, 0)[0]
        if kind == "mlp":  # full-size mlp is slow; shrink epochs via params
            draw = HyperDraw(kind="mlp", index=0,
                             params=(("P", 2), ("epochs", 5), ("batch", 16),
                                     ("l2", 0.01)))
        model = train(draw, X, y, Stream("zoo", kind))
        s = model.predict_scores(test)
        assert np.all((s >= 0.0) & (s <= 1.0)), kind
        assert s.shape == (20,)


def test_single_class_policy():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(20, 2))
    y = np.ones(20, dtype=int)
    for kind in ("logit", "mlp", "nb"):
        draw = sample_hypers(kind, 1, 0)[0]
        with pytest.raises(TrainingError, match="single-class"):
            train(draw, X, y, Stream("sc", kind))
    for kind in ("knn", "tree", "rf"):
        draw = sample_hypers(kind, 1, 0)[0]
        model = train(draw, X, y, Stream("sc", kind))
        assert np.allclose(model.predict_scores(X), 1.0)


def test_nonfinite_features_rejected():
    X = np.array([[1.0, np.nan], [0.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(TrainingError, match="non-finite"):
        train(sample_hypers("logit", 1, 0)[0], X, y)


def test_dimension_mismatch_on_predict():
    rng = np.random.default_rng(16)
    X, y = blobs(rng, n=30)
    model = train(sample_hypers("logit", 1, 0)[0], X, y)
    with pytest.raises(ValueError, match="features"):
        model.predict_scores(np.ones((5, 7)))


# --------------------------------------------------------------------- search

def result(idx, auc):
    return DrawResult(draw=HyperDraw("logit", idx, (("C", float(idx)),)),
                      fold_val_aucs=[auc], mean_val_auc=auc)


def test_select_best_argmax():
    rs = [result(0, 0.61), result(1, 0.74), result(2, 0.70)]
    assert select_best_model(rs).draw.index == 1


def test_select_best_tie_earliest():
    rs = [result(0, 0.7), result(1, 0.7)]
    assert select_best_model(rs).draw.index == 0


def test_select_best_all_failed():
    rs = [DrawResult(draw=HyperDraw("logit", 0, ()), error="boom")]
    assert select_best_model(rs) is None


def make_folds(rng, n_folds=3):
    folds = []
    for _ in range(n_folds):
        X, y = blobs(rng, n=40)
        Xv, yv = blobs(rng, n=16)
        folds.append(FoldData(X_train=X, y_train=y, X_val=Xv, y_val=yv))
    return folds


def test_search_kind_selects_and_returns_fold_models():
    rng = np.random.default_rng(17)
    folds = make_folds(rng)
    draws = sample_hypers("logit", 4, 0)
    outcome = search_kind("logit", draws, folds, base_ids=("toy", 0))
    assert outcome.report.winner is not None
    assert len(outcome.winner_models) == 3
    aucs = [r.mean_val_auc for r in outcome.report.results]
    assert outcome.report.winner.mean_val_auc == max(aucs)
    # separable blobs: every draw should rank validation well
    assert outcome.report.winner.mean_val_auc > 0.9


def test_search_kind_keeps_winner_validation_scores():
    rng = np.random.default_rng(20)
    folds = make_folds(rng)
    draws = sample_hypers("knn", 3, 0)
    outcome = search_kind("knn", draws, folds, base_ids=("toy", 0))
    assert len(outcome.winner_val_scores) == len(folds)
    for model, scores, fold in zip(outcome.winner_models,
                                   outcome.winner_val_scores, folds):
        assert np.array_equal(scores, model.predict_scores(fold.X_val))


def test_search_kind_dedupes_identical_draws():
    rng = np.random.default_rng(18)
    folds = make_folds(rng, n_folds=2)
    draws = sample_hypers("nb", 5, 0)  # all identical
    outcome = search_kind("nb", draws, folds, base_ids=("toy", 0))
    assert len(outcome.report.results) == 5
    first = outcome.report.results[0]
    assert all(r.mean_val_auc == first.mean_val_auc
               for r in outcome.report.results)
    assert outcome.report.winner.draw.index == 0


def test_search_kind_all_failed_excluded():
    rng = np.random.default_rng(19)
    folds = make_folds(rng, n_folds=2)
    # single-class training data fails every parametric draw
    for f in folds:
        f.y_train = np.ones_like(f.y_train)
    draws = sample_hypers("logit", 3, 0)
    outcome = search_kind("logit", draws, folds, base_ids=("toy", 0))
    assert outcome.report.winner is None
    assert outcome.winner_models is None
    assert outcome.winner_val_scores is None
    assert all(r.failed for r in outcome.report.results)
