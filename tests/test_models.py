"""Classifier-zoo contracts: hyperparameter ranges, per-kind behavior,
gradient checks against finite differences, and search selection."""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from fairlens.metrics import auc_or_default
from fairlens.models.base import (FAILURES, KNN_METRICS, MODEL_KINDS,
                                  HyperDraw, TrainingError, sample_hypers,
                                  train)
from fairlens.models.bayes import GaussianNb
from fairlens.models.linear import Logit, logit_objective, sigmoid
from fairlens.models.neighbors import Knn
from fairlens.models.nn import LEARNING_RATE, Mlp, fit_folds
from fairlens.models.search import (DrawResult, FoldData, search_kind,
                                    select_best_model)
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

# The earlier Mlp step and sigmoid, kept as bit-for-bit oracles: the step
# computed each batch's loss, sent the one-term outer product through
# matmul and built new arrays for every update; sigmoid picked its two
# branches by boolean masks.


def oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_forward(net, X):
    w, b = net.weights, net.biases
    z1 = X @ w[0] + b[0]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w[1] + b[1]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w[2] + b[2]
    return z1, a1, z2, a2, z3, oracle_sigmoid(z3)


def oracle_loss_and_grads(net, X, y):
    """Mean-BCE-plus-L2 loss and gradients on one batch (y is 0/1)."""
    m = X.shape[0]
    w = net.weights
    z1, a1, z2, a2, z3, p = oracle_forward(net, X)
    yc = y.reshape(-1, 1).astype(np.float64)
    ce = np.maximum(z3, 0.0) - yc * z3 + np.log1p(np.exp(-np.abs(z3)))
    loss = float(np.mean(ce))
    loss += 0.5 * net.l2 * sum(float(np.sum(wi * wi)) for wi in w)

    dz3 = (p - yc) / m
    gw3 = a2.T @ dz3 + net.l2 * w[2]
    gb3 = dz3.sum(axis=0)
    da2 = dz3 @ w[2].T
    dz2 = da2 * (z2 > 0)
    gw2 = a1.T @ dz2 + net.l2 * w[1]
    gb2 = dz2.sum(axis=0)
    da1 = dz2 @ w[1].T
    dz1 = da1 * (z1 > 0)
    gw1 = X.T @ dz1 + net.l2 * w[0]
    gb1 = dz1.sum(axis=0)
    return loss, [gw1, gw2, gw3], [gb1, gb2, gb3]


def oracle_fit(net, X, y, stream):
    n = X.shape[0]
    net._init_params(X.shape[1], stream)
    for _ in range(net.epochs):
        order = stream.permutation(n)
        for start in range(0, n, net.batch_size):
            idx = order[start:start + net.batch_size]
            _, gws, gbs = oracle_loss_and_grads(net, X[idx], y[idx])
            for wi, gw in zip(net.weights, gws):
                wi -= LEARNING_RATE * gw
            for bi, gb in zip(net.biases, gbs):
                bi -= LEARNING_RATE * gb
    return net


def bits(a):
    return a.view(np.int64)


def test_sigmoid_bits_match_masked_oracle():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        800.0, -800.0, 5e-324, -5e-324, 709.8, -745.2])
    rng = np.random.default_rng(21)
    for z in (special, special.reshape(3, 4), special.reshape(-1, 1),
              rng.normal(scale=30.0, size=10_000),
              rng.normal(size=(64, 1))):
        assert np.array_equal(bits(sigmoid(z)), bits(oracle_sigmoid(z)))


@pytest.mark.parametrize("n, f, hidden", [
    (15, 3, (4, 5)),    # below one batch
    (16, 3, (4, 5)),    # exactly one batch
    (17, 3, (4, 5)),    # one row past a batch
    (45, 3, (4, 5)),    # partial tail batch
    (40, 1, (2, 3)),    # single-column X
    (70, 10, (90, 100)),  # the search's widths at P = 9
])
def test_mlp_weight_bits_match_oracle(n, f, hidden):
    rng = np.random.default_rng(n * f)
    X = rng.normal(size=(n, f))
    y = (rng.random(n) < 0.4).astype(np.int64)
    y[:2] = (0, 1)
    kw = dict(hidden1=hidden[0], hidden2=hidden[1], epochs=4, batch_size=16)
    net = Mlp(**kw).fit(X, y, Stream("oracle", n))
    old = oracle_fit(Mlp(**kw), X, y, Stream("oracle", n))
    for got, want in zip(net.weights + net.biases, old.weights + old.biases):
        assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(net.predict_scores(X)),
                          bits(oracle_forward(old, X)[5].ravel()))


def test_mlp_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2))
    y = rng.integers(0, 2, size=8)
    init = Mlp._init_params
    start = {}

    def nudged_init(self, n_features, stream):
        # Zero biases leave rows with all-dead ReLUs sitting exactly on the
        # kink, where two-sided finite differences are meaningless. Nudge
        # every parameter to a generic point before comparing.
        init(self, n_features, stream)
        for b in self.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        start["w"] = [w.copy() for w in self.weights]
        start["b"] = [b.copy() for b in self.biases]

    # one epoch of one batch holding every row is one SGD step, so the
    # gradient it took is (start - end) / LEARNING_RATE
    monkeypatch.setattr(Mlp, "_init_params", nudged_init)
    net = Mlp(hidden1=3, hidden2=4, l2=0.01, epochs=1, batch_size=8)
    net.fit(X, y, Stream("gradcheck"))
    ws, bs = start["w"], start["b"]
    gws = [(w0 - w1) / LEARNING_RATE for w0, w1 in zip(ws, net.weights)]
    gbs = [(b0 - b1) / LEARNING_RATE for b0, b1 in zip(bs, net.biases)]

    def loss():
        """Mean BCE plus the L2 weight penalty: the loss training descends."""
        a1 = np.maximum(X @ ws[0] + bs[0], 0.0)
        a2 = np.maximum(a1 @ ws[1] + bs[1], 0.0)
        z3 = a2 @ ws[2] + bs[2]
        yc = y.reshape(-1, 1)
        ce = np.maximum(z3, 0.0) - yc * z3 + np.log1p(np.exp(-np.abs(z3)))
        return float(np.mean(ce)) + 0.5 * net.l2 * sum(
            float(np.sum(wi * wi)) for wi in ws)

    h = 1e-6
    for layer in range(3):
        W = ws[layer]
        for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
            orig = W[idx]
            W[idx] = orig + h
            up = loss()
            W[idx] = orig - h
            dn = loss()
            W[idx] = orig
            fd = (up - dn) / (2 * h)
            assert gws[layer][idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        B = bs[layer]
        orig = B[0]
        B[0] = orig + h
        up = loss()
        B[0] = orig - h
        dn = loss()
        B[0] = orig
        assert gbs[layer][0] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-7)


def test_mlp_non_finite_bias_is_a_training_error(monkeypatch):
    # finite weights but a NaN bias used to pass and give NaN scores; with
    # no epochs the init is what training leaves
    init = Mlp._init_params

    def nan_bias_init(self, n_features, stream):
        init(self, n_features, stream)
        for b in self.biases:
            b[:] = np.nan

    monkeypatch.setattr(Mlp, "_init_params", nan_bias_init)
    X, y = blobs(np.random.default_rng(22), n=20)
    net = Mlp(hidden1=3, hidden2=4, epochs=0)
    with pytest.raises(TrainingError, match="non-finite"):
        net.fit(X, y, Stream("nan-bias"))
    assert all(np.all(np.isfinite(w)) for w in net.weights)
    assert all(np.all(np.isnan(b)) for b in net.biases)


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


# A draw's folds train in lockstep (fit_folds): each fold must still get
# the bits of a fit on its rows alone.

@pytest.mark.parametrize("sizes, batch", [
    ((45, 33, 15), 16),      # unequal: 2, 2 and 0 full batches, all with tails
    ((7, 3, 15), 16),        # every fold shorter than one batch
    ((32, 64, 16), 16),      # exact multiples of the batch, no tails
    ((17, 48, 5, 40), 16),   # full-batch counts 1, 3, 0, 2: folds reordered
])
@pytest.mark.parametrize("f, hidden", [(3, (4, 5)), (1, (1, 2))])
def test_lockstep_folds_match_oracle(sizes, batch, f, hidden):
    rng = np.random.default_rng(sum(sizes) * f)
    Xs = [rng.normal(size=(n, f)) for n in sizes]
    ys = [(rng.random(n) < 0.4).astype(np.int64) for n in sizes]
    kw = dict(hidden1=hidden[0], hidden2=hidden[1], epochs=3, batch_size=batch)
    nets = [Mlp(**kw) for _ in sizes]
    fit_folds(nets, Xs, ys, [Stream("lockstep", i) for i in range(len(sizes))])
    for i, net in enumerate(nets):
        old = oracle_fit(Mlp(**kw), Xs[i], ys[i], Stream("lockstep", i))
        for got, want in zip(net.weights + net.biases, old.weights + old.biases):
            assert np.array_equal(bits(got), bits(want))


def test_one_fold_train_equals_mlp_fit():
    rng = np.random.default_rng(24)
    X, y = blobs(rng, n=70)
    draw = HyperDraw(kind="mlp", index=0,
                     params=(("P", 2), ("epochs", 3), ("batch", 16), ("l2", 0.01)))
    model = train_one(draw, X, y, Stream("one-fold"))
    net = Mlp(hidden1=4, hidden2=6, epochs=3, batch_size=16).fit(
        X, y, Stream("one-fold"))
    got, want = model.model, net
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(bits(a), bits(b))


def fold_order_results(kind, draws, folds, base_ids):
    """(fold AUCs, mean, error) per draw from a loop that trains and scores
    one fold at a time and stops at a draw's first failing fold."""
    out = []
    for draw in draws:
        aucs = []
        try:
            for f, fold in enumerate(folds):
                stream = Stream(*base_ids, "train", f, kind, draw.signature)
                model = train_one(draw, fold.X_train, fold.y_train, stream)
                scores = model.predict_scores(fold.X_val)
                aucs.append(auc_or_default(scores, fold.y_val)[0])
        except FAILURES as exc:
            out.append(([], None, f"{type(exc).__name__}: {exc}"))
        else:
            out.append((aucs, float(np.mean(aucs)), None))
    return out


def small_mlp_draws():
    return [HyperDraw(kind="mlp", index=i,
                      params=(("P", p), ("epochs", 3), ("batch", 16), ("l2", 0.01)))
            for i, p in enumerate((1, 2))]


def broken_folds(how):
    folds = make_folds(np.random.default_rng(25))
    if how in ("diverges", "both"):
        folds[1].X_train = folds[1].X_train * 1e200  # finite, but overflows
    if how in ("invalid", "both"):
        folds[2].y_train = np.ones_like(folds[2].y_train)
    if how == "scores-first":
        # fold 0 scores NaN before fold 2 fails validation
        folds[0].X_val = np.full_like(folds[0].X_val, np.nan)
        folds[2].y_train = np.ones_like(folds[2].y_train)
    return folds


# the diverging fold and the NaN validation rows overflow on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("how", ["diverges", "invalid", "both", "scores-first"])
def test_failing_fold_records_the_fold_order_error(how):
    folds = broken_folds(how)
    for kind in MODEL_KINDS:
        draws = small_mlp_draws() if kind == "mlp" else sample_hypers(kind, 2, 0)
        outcome = search_kind(kind, draws, folds, base_ids=("toy", 0))
        got = [(r.fold_val_aucs, r.mean_val_auc, r.error)
               for r in outcome.report.results]
        assert got == fold_order_results(kind, draws, folds, ("toy", 0)), kind
    errors = {r.error for r in search_kind("mlp", small_mlp_draws(), folds,
                                           ("toy", 0)).report.results}
    want = {"diverges": "TrainingError: mlp diverged to non-finite weights or biases",
            "invalid": "TrainingError: mlp: single-class training set",
            "scores-first": "TrainingError: mlp produced non-finite scores"}
    assert errors == {want["diverges" if how == "both" else how]}


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
    """All pairs, each pair's terms added in feature order, with no root."""
    diff = np.abs(block[:, None, :] - train[None, :, :])
    if metric == "euclidean":
        diff = diff * diff
    elif metric == "minkowski":
        diff = diff * diff * diff
    summed = diff[:, :, 0].copy()
    for j in range(1, diff.shape[2]):
        summed += diff[:, :, j]
    return summed


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
    for F in (1, 3, 7, 8, 9, 10, 13, 17, 130):
        X = np.vstack([rng.normal(size=(150, F)),
                       np.round(rng.normal(size=(150, F)), 1)])
        y = rng.integers(0, 2, size=300)
        test = np.vstack([rng.normal(size=(40, F)), X[::7]])
        rows = np.unique(X, axis=0)
        for metric in KNN_METRICS:
            m = Knn(n_neighbors=5, metric=metric).fit(X, y)
            got = m._distances(
                test, np.empty((m._values.size, len(test))),
                np.empty((2, len(rows), len(test)))).T
            want = _oracle_knn_distances(test, rows, metric)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                (F, metric)


def _spread_terms(rng, n_terms, n_sums):
    """Terms whose magnitudes span 16 decades, so the order of adding them
    shows in the bits of most sums."""
    return (rng.random((n_terms, n_sums))
            * 10.0 ** rng.uniform(-8, 8, size=(n_terms, n_sums)))


@pytest.mark.parametrize("n", range(1, 8))
def test_pairwise_sum_matches_numpy_sum_bits(n):
    # below 8 terms numpy's pairwise sum is a plain in-order loop, so the
    # manhattan distance from the zero row to a query row has the bits of
    # np.sum over that row
    terms = _spread_terms(np.random.default_rng(n), n, 500)
    m = Knn(n_neighbors=1, metric="manhattan").fit(np.zeros((1, n)), [0])
    got = m._distances(terms.T, np.empty((n, 500)), np.empty((2, 1, 500)))[0]
    want = np.sum(np.ascontiguousarray(terms.T), axis=-1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# prints, per metric, the sha256 of Knn._distances on fixed normal data
_DISTANCE_DIGESTS = """
import hashlib
import numpy as np
from fairlens.models.base import KNN_METRICS
from fairlens.models.neighbors import Knn
rng = np.random.default_rng(52)
X, test = rng.normal(size=(400, 9)), rng.normal(size=(32, 9))
y = rng.integers(0, 2, size=400)
for metric in KNN_METRICS:
    m = Knn(n_neighbors=5, metric=metric).fit(X, y)
    d = m._distances(test, np.empty((m._values.size, 32)),
                     np.empty((2, m._counts.size, 32)))
    print(metric, hashlib.sha256(d.tobytes()).hexdigest())
"""


def test_knn_distances_do_not_depend_on_numpy_simd_level():
    # numpy's AVX-512 power and cbrt round differently from its AVX2 and
    # baseline paths; on a CPU without AVX-512 both runs take one path
    import fairlens

    package_root = str(Path(fairlens.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = package_root

    def digests(**extra):
        done = subprocess.run([sys.executable, "-c", _DISTANCE_DIGESTS],
                              env={**env, **extra}, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    default = digests()
    assert len(default) == len(KNN_METRICS)
    assert default == digests(
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")


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


@pytest.mark.parametrize("F", [7, 8, 9, 17])
def test_knn_bit_identical_at_each_pairwise_sum_branch(F):
    # feature counts around 8, where numpy's pairwise sum leaves its
    # in-order loop; the scores still follow the in-order oracle
    rng = np.random.default_rng(35 + F)
    X = np.vstack([rng.normal(size=(100, F)),
                   rng.integers(0, 3, size=(100, F)).astype(float)])
    y = rng.integers(0, 2, size=200)
    test = np.vstack([rng.normal(size=(30, F)), X[::9]])
    _assert_knn_matches_oracle(X, y, test, ks=(1, 5, 20))


def test_knn_work_space_is_reused_for_the_last_block():
    import tracemalloc

    from fairlens.models import neighbors

    rng = np.random.default_rng(36)
    n, F = 3000, 10
    X = rng.normal(size=(n, F))
    y = rng.integers(0, 2, size=n)
    # a full block and a last block one row short of full
    test = rng.normal(size=(2 * neighbors._BLOCK - 1, F))
    m = Knn(n_neighbors=9, metric="minkowski").fit(X, y)
    n_values = m._values.size
    # the work space of gathering every term into a (block, distinct rows,
    # features) array from a (block, distinct values) table
    bound = 8 * neighbors._BLOCK * (n * F + n_values)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m.predict_scores(test)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * bound, (peak, bound)


def test_knn_terms_computed_once_per_distinct_value(monkeypatch):
    from fairlens.models import neighbors

    shapes = []
    real_terms = neighbors._terms

    def counting_terms(diff, metric, scratch):
        shapes.append(diff.shape)
        real_terms(diff, metric, scratch)

    monkeypatch.setattr(neighbors, "_terms", counting_terms)
    rng = np.random.default_rng(34)
    X = rng.integers(0, 5, size=(2000, 6)).astype(float)
    y = rng.integers(0, 2, size=2000)
    test = rng.integers(0, 5, size=(500, 6)).astype(float)
    Knn(n_neighbors=9, metric="minkowski").fit(X, y).predict_scores(test)
    n_queries = np.unique(test, axis=0).shape[0]
    n_values = sum(np.unique(X[:, j]).size for j in range(6))
    # one table per block of distinct query rows, one row per distinct
    # (feature, value) pair: 30 rows, not 2000 x 6 terms per query row
    assert all(s[0] == n_values and s[1] <= neighbors._BLOCK for s in shapes)
    assert sum(s[1] for s in shapes) == n_queries
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

    def leaf_sizes(node, idx):
        if m.feature[node] < 0:
            return [idx.size]
        mask = X[idx, m.feature[node]] <= m.threshold[node]
        return (leaf_sizes(m.left[node], idx[mask])
                + leaf_sizes(m.right[node], idx[~mask]))

    sizes = leaf_sizes(0, np.arange(40))
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
    tree = DecisionTree(max_depth=6, min_leaf=2).grow(
        X[idx], y[idx], [np.arange(n)], [child])
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


# One-node-at-a-time CART, kept as a bit-identity oracle for the batched
# grower: recursive for a plain tree, breadth first for a forest, whose
# trees, thresholds, leaf scores and order of feature draws must all be
# equal.

class OracleNode:
    def __init__(self, score):
        self.feature, self.threshold, self.score = -1, 0.0, score
        self.left = self.right = None


def oracle_gini(n_pos, n):
    frac = np.where(n > 0, n_pos / np.maximum(n, 1), 0.0)
    return 2.0 * frac * (1.0 - frac)


def oracle_best_split(X, y, features, min_leaf):
    n = y.size
    pos_total = float(y.sum())
    best = None
    for f in features:
        vals = X[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order]
        cut = np.flatnonzero(sv[1:] != sv[:-1]) + 1
        if cut.size == 0:
            continue
        n_left = cut.astype(np.float64)
        ok = (cut >= min_leaf) & (n - cut >= min_leaf)
        if not ok.any():
            continue
        pos_prefix = np.cumsum(sy)[cut - 1].astype(np.float64)
        g_left = oracle_gini(pos_prefix, n_left)
        g_right = oracle_gini(pos_total - pos_prefix, n - n_left)
        weighted = (n_left * g_left + (n - n_left) * g_right) / n
        weighted[~ok] = np.inf
        j = int(np.argmin(weighted))
        thr = (sv[cut[j] - 1] + sv[cut[j]]) / 2.0
        cand = (float(weighted[j]), int(f), float(thr))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def oracle_tried(y, depth, max_depth, min_leaf):
    """A node is scored when it passes the depth, size and purity tests."""
    return depth < max_depth and y.size >= 2 * min_leaf and 0 < y.sum() < y.size


def oracle_build(X, y, depth, max_depth, min_leaf):
    node = OracleNode(float(np.mean(y)) if y.size else 0.0)
    if not oracle_tried(y, depth, max_depth, min_leaf):
        return node
    best = oracle_best_split(X, y, np.arange(X.shape[1]), min_leaf)
    if best is None:
        return node
    _, node.feature, node.threshold = best
    mask = X[:, node.feature] <= node.threshold
    node.left = oracle_build(X[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = oracle_build(X[~mask], y[~mask], depth + 1, max_depth,
                              min_leaf)
    return node


def oracle_route(node, X, idx, out):
    if idx.size == 0:
        return
    if node.left is None:
        out[idx] = node.score
        return
    mask = X[idx, node.feature] <= node.threshold
    oracle_route(node.left, X, idx[mask], out)
    oracle_route(node.right, X, idx[~mask], out)


def oracle_scores(root, X):
    out = np.empty(X.shape[0])
    oracle_route(root, X, np.arange(X.shape[0]), out)
    return out


def oracle_forest(X, y, n_trees, max_depth, min_leaf, stream):
    """Each tree grown breadth first: a node that passes the tests draws the
    next permutation of its tree's stream, and a split queues the node's
    right child, then its left."""
    (n, F), m = X.shape, max(1, int(np.sqrt(X.shape[1])))
    roots = []
    for t in range(n_trees):
        child = stream.child("tree", t)
        idx = child.choice_indices(n, n)
        yt = y[idx].astype(np.int64)
        roots.append(OracleNode(float(np.mean(yt))))
        queue = deque([(roots[-1], X[idx], yt, 0)])
        while queue:
            node, Xn, yn, depth = queue.popleft()
            if not oracle_tried(yn, depth, max_depth, min_leaf):
                continue
            features = np.sort(child.permutation(F)[:m])
            best = oracle_best_split(Xn, yn, features, min_leaf)
            if best is None:
                continue
            _, node.feature, node.threshold = best
            mask = Xn[:, node.feature] <= node.threshold
            node.left = OracleNode(float(np.mean(yn[mask])))
            node.right = OracleNode(float(np.mean(yn[~mask])))
            queue.append((node.right, Xn[~mask], yn[~mask], depth + 1))
            queue.append((node.left, Xn[mask], yn[mask], depth + 1))
    return roots


def preorder_oracle(node):
    if node.left is None:
        return [(-1, 0.0, node.score)]
    return ([(node.feature, node.threshold, node.score)]
            + preorder_oracle(node.left) + preorder_oracle(node.right))


def preorder_flat(tree, k):
    if tree.feature[k] < 0:
        return [(-1, 0.0, tree.score[k])]
    return ([(int(tree.feature[k]), tree.threshold[k], tree.score[k])]
            + preorder_flat(tree, tree.left[k]) + preorder_flat(tree, tree.right[k]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_tree_matches(tree, k, oracle_root):
    assert same_bits(preorder_flat(tree, k), preorder_oracle(oracle_root))


def standin_like(rng, n):
    """Few distinct values per feature, like the encoded stand-in design."""
    X = np.column_stack([rng.integers(18, 70, n), rng.integers(0, 2, n),
                         rng.integers(0, 5, n), rng.poisson(0.3, n),
                         rng.poisson(3.0, n), rng.integers(0, 2, n)]).astype(float)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (rng.random(n) < 1 / (1 + np.exp(X[:, 4] - 0.5 * X[:, 0]))).astype(int)
    return X, y


def continuous(rng, n):
    """No repeated value in any feature."""
    X = rng.normal(size=(n, 5))
    return X, (X[:, 0] + rng.normal(size=n) > 0).astype(int)


@pytest.mark.parametrize("data", [standin_like, continuous])
@pytest.mark.parametrize("max_depth, min_leaf", [(30, 1), (10, 5), (45, 2), (5, 10)])
def test_tree_bits_match_recursive_oracle(data, max_depth, min_leaf):
    rng = np.random.default_rng(40)
    X, y = data(rng, 600)
    tree = DecisionTree(max_depth, min_leaf).fit(X, y)
    root = oracle_build(X, y, 0, max_depth, min_leaf)
    assert_tree_matches(tree, 0, root)
    test = np.vstack([X, data(rng, 200)[0]])
    assert same_bits(tree.predict_scores(test), oracle_scores(root, test))


@pytest.mark.parametrize("data", [standin_like, continuous])
@pytest.mark.parametrize("n_trees, max_depth, min_leaf",
                         [(12, 30, 1), (8, 12, 4), (5, 5, 10)])
def test_forest_bits_and_draw_order_match_oracle(monkeypatch, data, n_trees,
                                                 max_depth, min_leaf):
    from fairlens.models import trees

    rng = np.random.default_rng(41)
    X, y = data(rng, 400)
    draws = {}
    real = Stream.permutation

    def recording(self, n):
        out = real(self, n)
        draws.setdefault(self.ids, []).append(out)
        return out

    monkeypatch.setattr(Stream, "permutation", recording)
    roots = oracle_forest(X, y, n_trees, max_depth, min_leaf, Stream("rf-o", 1))
    oracle_draws, draws = draws, {}
    # the forest draws its permutations in blocks, and uses one per node
    # it scores, in the order of its _best_splits calls
    real_block, real_search, used = Stream.permutations, trees._best_splits, {}

    def recording_block(self, count, n):
        out = real_block(self, count, n)
        draws.setdefault(self.ids, []).extend(out)
        return out

    def counting(coded, rows, lw, nodes, feats, min_leaf):
        for t in nodes[:, trees._TREE].tolist():
            used[t] = used.get(t, 0) + 1
        return real_search(coded, rows, lw, nodes, feats, min_leaf)

    monkeypatch.setattr(Stream, "permutations", recording_block)
    monkeypatch.setattr(trees, "_best_splits", counting)
    forest = RandomForest(n_trees, max_depth, min_leaf).fit(X, y, Stream("rf-o", 1))
    # each tree uses its split features in the oracle's level order; the
    # permutations it drew ahead and never used are not compared
    assert oracle_draws
    for t in range(n_trees):
        ids = Stream("rf-o", 1).child("tree", t).ids
        seq = oracle_draws.get(ids, [])
        assert used.get(t, 0) == len(seq) <= len(draws.get(ids, []))
        assert all(np.array_equal(a.astype(np.int64), b.astype(np.int64))
                   for a, b in zip(draws.get(ids, [])[:len(seq)], seq))
    for t, root in enumerate(roots):
        assert_tree_matches(forest.trees, t, root)
    test = np.vstack([X, data(rng, 100)[0]])
    votes = sum((oracle_scores(root, test) >= 0.5).astype(float) for root in roots)
    assert same_bits(forest.predict_scores(test), votes / n_trees)


def test_forest_node_k_uses_permutation_k_in_level_order(monkeypatch):
    from fairlens.models import trees

    scored = []  # (tree, node id, features) of each node scored, in order
    real = trees._best_splits

    def recording(coded, rows, lw, nodes, feats, min_leaf):
        scored.extend(zip(nodes[:, trees._TREE].tolist(),
                          nodes[:, trees._ID].tolist(), feats.tolist()))
        return real(coded, rows, lw, nodes, feats, min_leaf)

    monkeypatch.setattr(trees, "_best_splits", recording)
    X, y = continuous(np.random.default_rng(50), 120)  # 5 features, 2 per node
    forest = RandomForest(3, 5, 2).fit(X, y, Stream("pin", 0)).trees
    for t in range(3):
        mine = [(k, f) for tree, k, f in scored if tree == t]
        assert len(mine) > 3
        stream = Stream("pin", 0).child("tree", t)
        stream.choice_indices(120, 120)  # the bootstrap is drawn first
        assert [f for _, f in mine] == [
            np.sort(stream.permutation(5)[:2]).tolist() for _ in mine]
        # level order: depth by depth, each parent's right child first
        level, order = [t], []
        while level:
            order += level
            level = [c for k in level if forest.feature[k] >= 0
                     for c in (forest.right[k], forest.left[k])]
        ids = [k for k, _ in mine]
        assert ids == [k for k in order if k in ids]


def test_tree_ties_across_features_keep_the_first_feature():
    # columns 0 and 2 are equal and column 1 mirrors them, so every split
    # ties exactly across features
    rng = np.random.default_rng(42)
    base = rng.integers(0, 6, size=200).astype(float)
    X = np.column_stack([base, -base, base])
    y = (base + rng.integers(0, 3, size=200) > 4).astype(int)
    tree = DecisionTree(max_depth=6).fit(X, y)
    root = oracle_build(X, y, 0, 6, 1)
    assert_tree_matches(tree, 0, root)
    assert set(tree.feature[tree.feature >= 0].tolist()) == {0}


def test_tree_constant_feature_and_single_class():
    rng = np.random.default_rng(43)
    X = np.column_stack([np.full(50, 3.0), rng.normal(size=50)])
    y = (X[:, 1] > 0).astype(int)
    tree = DecisionTree(max_depth=8).fit(X, y)
    assert_tree_matches(tree, 0, oracle_build(X, y, 0, 8, 1))
    assert 0 not in tree.feature.tolist()
    single = DecisionTree(max_depth=8).fit(X, np.ones(50, dtype=int))
    assert single.feature.tolist() == [-1]
    assert single.predict_scores(X).tolist() == [1.0] * 50


@pytest.mark.parametrize("max_depth, min_leaf", [(8, 26), (1, 1), (1, 7)])
def test_tree_min_leaf_above_half_and_depth_one(max_depth, min_leaf):
    rng = np.random.default_rng(44)
    X, y = continuous(rng, 50)
    tree = DecisionTree(max_depth, min_leaf).fit(X, y)
    root = oracle_build(X, y, 0, max_depth, min_leaf)
    assert_tree_matches(tree, 0, root)
    assert tree.feature.size == (1 if min_leaf > 25 else 3)


def test_tree_routes_by_value_when_the_midpoint_rounds_up():
    # a = 1 + 2**-52 and its successor b: (a + b) / 2 rounds to b, so rows
    # equal to b go left with a; routing by rank would send them right
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a]] * 6 + [[b]] * 6 + [[2.0]] * 6)
    y = np.array([0] * 6 + [1] * 3 + [0] * 3 + [1] * 6)
    tree = DecisionTree(max_depth=4).fit(X, y)
    root = oracle_build(X, y, 0, 4, 1)
    assert_tree_matches(tree, 0, root)
    assert b in tree.threshold.tolist()
    assert same_bits(tree.predict_scores(X), oracle_scores(root, X))


def test_forest_first_step_spans_several_batches(monkeypatch):
    from fairlens.models import trees

    batches = []
    real = trees._best_splits

    def recording(coded, rows, lw, nodes, feats, min_leaf):
        batches.append((nodes[:, trees._ID].tolist(), rows.size * feats.shape[1]))
        return real(coded, rows, lw, nodes, feats, min_leaf)

    monkeypatch.setattr(trees, "_best_splits", recording)
    rng = np.random.default_rng(45)
    # 5 features, 2 per split: a root of about 1,900 distinct rows (of a
    # 3000-row bootstrap) holds about 3,800 keys, so the 20 roots hold
    # about 76,000, more than one batch may
    X, y = continuous(rng, 3000)
    roots = oracle_forest(X, y, 20, 6, 3, Stream("rf-cap", 0))
    forest = RandomForest(20, 6, 3).fit(X, y, Stream("rf-cap", 0))
    first = [(ids, keys) for ids, keys in batches if max(ids) < 20]  # roots only
    assert sorted(i for ids, _ in first for i in ids) == list(range(20))
    assert sum(keys for _, keys in first) > trees._BATCH_KEYS and len(first) >= 2
    assert all(keys <= trees._BATCH_KEYS or len(ids) == 1 for ids, keys in batches)
    for t, root in enumerate(roots):
        assert_tree_matches(forest.trees, t, root)


# Weighted distinct rows: a fit keeps each distinct (x, y) row once, weighted
# by its count, and every count is a weight sum.

def test_tree_feature_vector_with_both_labels():
    rng = np.random.default_rng(46)
    X = np.repeat(rng.integers(0, 4, size=(12, 2)).astype(float), 5, axis=0)
    y = rng.integers(0, 2, size=60)  # equal rows mostly carry both labels
    for max_depth, min_leaf in [(8, 1), (8, 3)]:
        tree = DecisionTree(max_depth, min_leaf).fit(X, y)
        root = oracle_build(X, y, 0, max_depth, min_leaf)
        assert_tree_matches(tree, 0, root)
        assert same_bits(tree.predict_scores(X), oracle_scores(root, X))
    roots = oracle_forest(X, y, 6, 8, 2, Stream("both", 0))
    forest = RandomForest(6, 8, 2).fit(X, y, Stream("both", 0))
    for t, root in enumerate(roots):
        assert_tree_matches(forest.trees, t, root)


@pytest.mark.parametrize("copies, splits", [(3, True), (2, False)])
def test_tree_min_leaf_is_a_weight(copies, splits):
    # the two rows left of the cut between 1 and 2 each repeat `copies`
    # times: weight 6 meets min_leaf 5 with only two distinct rows, weight
    # 4 misses it
    X = np.array([[0.0]] * copies + [[1.0]] * copies + [[v] for v in range(2, 7)])
    y = np.array([0] * 2 * copies + [1] * 5)
    tree = DecisionTree(max_depth=4, min_leaf=5).fit(X, y)
    root = oracle_build(X, y, 0, 4, 5)
    assert_tree_matches(tree, 0, root)
    assert tree.threshold[0] == (1.5 if splits else 0.0)
    assert (tree.feature[0] >= 0) == splits


def test_forest_heavy_bootstrap_row_needs_int64_keys():
    from fairlens.models import trees

    # half the rows are one row, so each bootstrap weights it about 20,000
    rng = np.random.default_rng(47)
    n = 40000
    X = np.vstack([np.zeros((n // 2, 2)), rng.normal(size=(n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2, dtype=int),
                        (X[n // 2:, 0] > 0).astype(int)])
    streams = [Stream("heavy").child("tree", t) for t in range(3)]
    coded = trees._Coded(X, y.astype(np.int64), [s.choice_indices(n, n) for s in streams])
    assert 3 << coded.low >= 2**31  # the first step's keys are int64
    roots = oracle_forest(X, y, 3, 4, 2, Stream("heavy"))
    forest = RandomForest(3, 4, 2).fit(X, y, Stream("heavy"))
    for t, root in enumerate(roots):
        assert_tree_matches(forest.trees, t, root)


def test_tree_and_forest_on_all_distinct_rows():
    from fairlens.models import trees

    rng = np.random.default_rng(48)
    X, y = continuous(rng, 300)
    assert trees._Coded(X, y, [np.arange(300)]).d == 300
    tree = DecisionTree(12, 2).fit(X, y)
    assert_tree_matches(tree, 0, oracle_build(X, y, 0, 12, 2))
    roots = oracle_forest(X, y, 7, 10, 2, Stream("distinct", 0))
    forest = RandomForest(7, 10, 2).fit(X, y, Stream("distinct", 0))
    for t, root in enumerate(roots):
        assert_tree_matches(forest.trees, t, root)


def test_forest_draws_features_in_blocks(monkeypatch):
    from fairlens.models import trees

    calls, nodes = [0], [0]
    real_raw, real_search = Stream.raw, trees._best_splits

    def counting_raw(self, n):
        calls[0] += 1
        return real_raw(self, n)

    def counting_search(coded, rows, lw, batch, feats, min_leaf):
        nodes[0] += len(batch)
        return real_search(coded, rows, lw, batch, feats, min_leaf)

    monkeypatch.setattr(Stream, "raw", counting_raw)
    monkeypatch.setattr(trees, "_best_splits", counting_search)
    X, y = standin_like(np.random.default_rng(49), 4200)
    RandomForest(43, 14, 6).fit(X, y, Stream("blocks", 0))
    # one bootstrap and a few doubling blocks per tree, not one per node
    assert nodes[0] > 20 * 43
    assert calls[0] <= 5 * 43


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

def train_one(draw, X, y, stream=None):
    """The one-fold train call: its model, or its error raised."""
    fold = FoldData(X_train=X, y_train=y, X_val=X[:0], y_val=y[:0])
    models, error = train(draw, [fold], [stream])
    if error is not None:
        raise error
    return models[0]


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
        model = train_one(draw, X, y, Stream("zoo", kind))
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
            train_one(draw, X, y, Stream("sc", kind))
    for kind in ("knn", "tree", "rf"):
        draw = sample_hypers(kind, 1, 0)[0]
        model = train_one(draw, X, y, Stream("sc", kind))
        assert np.allclose(model.predict_scores(X), 1.0)


def test_nonfinite_features_rejected():
    X = np.array([[1.0, np.nan], [0.0, 1.0]])
    y = np.array([0, 1])
    with pytest.raises(TrainingError, match="non-finite"):
        train_one(sample_hypers("logit", 1, 0)[0], X, y)


def test_dimension_mismatch_on_predict():
    rng = np.random.default_rng(16)
    X, y = blobs(rng, n=30)
    model = train_one(sample_hypers("logit", 1, 0)[0], X, y)
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


def test_search_kind_marks_non_finite_scores_failed(monkeypatch):
    monkeypatch.setattr(GaussianNb, "predict_scores",
                        lambda self, X: np.full(X.shape[0], np.nan))
    folds = make_folds(np.random.default_rng(23), n_folds=2)
    outcome = search_kind("nb", sample_hypers("nb", 2, 0), folds,
                          base_ids=("toy", 0))
    assert outcome.report.winner is None
    assert all("non-finite scores" in r.error for r in outcome.report.results)
