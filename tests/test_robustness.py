"""Cross-condition correlation and seed-aggregation contracts."""

import numpy as np
import pytest

from fairlens.cluster import DistanceVector
from fairlens.robustness import (
    aggregate_over_seeds,
    correlation_matrix,
    distance_vector_correlation,
)
from fairlens.pipeline import _robustness_summary

LABELS_13 = tuple(f"m{i}" for i in range(13))


def dv(values, axis="columns"):
    return DistanceVector(axis=axis, condensed=np.asarray(values, dtype=float),
                          labels=LABELS_13)


def rand_dv(rng):
    return dv(rng.uniform(0.0, 2.0, size=78))


def test_self_correlation_is_one():
    rng = np.random.default_rng(0)
    a = rand_dv(rng)
    assert distance_vector_correlation(a, a) == 1.0


def test_affine_positive_transform_correlates_one():
    rng = np.random.default_rng(1)
    a = rand_dv(rng)
    b = dv(0.3 * a.condensed + 0.1)
    assert distance_vector_correlation(a, b) == pytest.approx(1.0, abs=1e-12)


def test_axis_and_length_validation():
    rng = np.random.default_rng(2)
    a = rand_dv(rng)
    rows = DistanceVector(axis="rows", condensed=a.condensed.copy(),
                          labels=LABELS_13)
    with pytest.raises(ValueError, match="column-axis"):
        distance_vector_correlation(a, rows)
    short = dv(rng.uniform(size=10))
    with pytest.raises(ValueError, match="length mismatch"):
        distance_vector_correlation(a, short)


def test_constant_vector_convention():
    rng = np.random.default_rng(3)
    a = rand_dv(rng)
    c = dv(np.full(78, 0.7))
    assert distance_vector_correlation(a, c) == 0.0
    assert distance_vector_correlation(c, c) == 1.0


def test_correlation_matrix_shape_and_symmetry():
    rng = np.random.default_rng(4)
    vecs = [rand_dv(rng) for _ in range(4)]
    m = correlation_matrix(vecs)
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    assert np.array_equal(np.diag(m), np.ones(4))
    assert np.all(m >= -1 - 1e-12) and np.all(m <= 1 + 1e-12)


def test_aggregate_single_seed():
    conds = [("d1", "f1"), ("d2", "f2")]
    m = np.array([[1.0, 0.3], [0.3, 1.0]])
    mean, std = aggregate_over_seeds(conds, [m])
    assert np.array_equal(mean, m)
    assert np.array_equal(std, np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    rob = _robustness_summary({c: {0: rand_dv(rng)} for c in conds}, [0])
    assert rob["n_seeds"] == 1


def test_aggregate_identical_seeds_zero_std():
    conds = [("d1", "f1"), ("d2", "f2")]
    m = np.array([[1.0, -0.2], [-0.2, 1.0]])
    _, std = aggregate_over_seeds(conds, [m, m.copy(), m.copy()])
    assert np.array_equal(std, np.zeros((2, 2)))


def test_aggregate_mean_and_population_std():
    conds = [("d1", "f1"), ("d2", "f2")]
    m1 = np.array([[1.0, 0.4], [0.4, 1.0]])
    m2 = np.array([[1.0, 0.6], [0.6, 1.0]])
    mean, std = aggregate_over_seeds(conds, [m1, m2])
    assert mean[0, 1] == pytest.approx(0.5)
    assert std[0, 1] == pytest.approx(0.1)  # population std of {0.4, 0.6}
    assert mean[0, 0] == 1.0 and std[0, 0] == 0.0


def test_aggregate_shape_mismatch():
    conds = [("d1", "f1"), ("d2", "f2")]
    with pytest.raises(ValueError, match="does not match"):
        aggregate_over_seeds(conds, [np.eye(3)])


def test_reordering_conditions_permutes_summary():
    rng = np.random.default_rng(5)
    vecs = [rand_dv(rng) for _ in range(3)]
    m = correlation_matrix(vecs)
    perm = [2, 0, 1]
    m_perm = correlation_matrix([vecs[i] for i in perm])
    assert np.allclose(m_perm, m[np.ix_(perm, perm)], atol=1e-15)
