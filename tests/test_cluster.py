"""Correlation-distance and UPGMA contracts, including a naive
direct-averaging oracle for the linkage (the implementation uses the
Lance-Williams update; the oracle averages original leaf distances)."""

import math

import numpy as np
import pytest

from fairlens.cluster import (
    condensed_index,
    correlation_distance,
    cut_clusters,
    leaf_order,
    pearson,
    upgma,
    DistanceVector,
)


def naive_upgma(condensed, n):
    """Oracle: recompute every cluster distance as the mean over all cross
    pairs of original leaf distances."""
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = condensed[condensed_index(n, i, j)]
    clusters = {i: frozenset([i]) for i in range(n)}
    merges = []
    for step in range(n - 1):
        ids = sorted(clusters)
        best = (math.inf, -1, -1)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                d = float(np.mean([D[x, y] for x in clusters[a] for y in clusters[b]]))
                if d < best[0]:
                    best = (d, a, b)
        h, a, b = best
        new = n + step
        clusters[new] = clusters[a] | clusters[b]
        merges.append((a, b, h, len(clusters[new])))
        del clusters[a], clusters[b]
    return merges


def test_condensed_index_layout():
    # n=4 pairs in order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    got = [condensed_index(4, i, j) for i in range(4) for j in range(i + 1, 4)]
    assert got == [0, 1, 2, 3, 4, 5]
    assert condensed_index(4, 3, 1) == condensed_index(4, 1, 3)
    with pytest.raises(ValueError):
        condensed_index(4, 2, 2)


def test_complement_columns_at_distance_two():
    rng = np.random.default_rng(0)
    tpr = rng.uniform(0.2, 0.9, size=8)
    m = np.column_stack([tpr, 1.0 - tpr])
    d = correlation_distance(m, "columns", ("TPR", "FNR"))
    assert d.condensed[0] == pytest.approx(2.0, abs=1e-12)


def test_identical_items_distance_zero():
    x = np.array([0.1, 0.5, 0.9, 0.3])
    m = np.column_stack([x, x.copy()])
    d = correlation_distance(m, "columns", ("a", "b"))
    assert d.condensed[0] == pytest.approx(0.0, abs=1e-12)


def test_collinear_distance_zero():
    m = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    d = correlation_distance(m, "columns", ("x", "y"))
    assert d.condensed[0] == pytest.approx(0.0, abs=1e-12)


def test_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(1)
    m = rng.uniform(size=(10, 3))
    base = correlation_distance(m, "columns", ("a", "b", "c")).condensed
    m2 = m.copy()
    m2[:, 1] = 3.5 * m2[:, 1] + 0.2
    pos = correlation_distance(m2, "columns", ("a", "b", "c")).condensed
    assert np.allclose(base, pos, atol=1e-12)
    m3 = m.copy()
    m3[:, 1] = -m3[:, 1]
    neg = correlation_distance(m3, "columns", ("a", "b", "c")).condensed
    # pairs involving column 1 map d -> 2-d, the remaining pair is unchanged
    assert neg[0] == pytest.approx(2.0 - base[0], abs=1e-12)  # (a,b)
    assert neg[2] == pytest.approx(2.0 - base[2], abs=1e-12)  # (b,c)
    assert neg[1] == pytest.approx(base[1], abs=1e-12)        # (a,c)


def test_degenerate_constant_vectors():
    m = np.column_stack([[1.0, 1.0, 1.0], [0.2, 0.5, 0.9], [1.0, 1.0, 1.0]])
    d = correlation_distance(m, "columns", ("c1", "v", "c2"))
    assert d.condensed[condensed_index(3, 0, 1)] == 1.0   # constant vs varying
    assert d.condensed[condensed_index(3, 0, 2)] == 0.0   # equal constants
    assert (0, 1) in d.degenerate_pairs and (0, 2) in d.degenerate_pairs


def test_rows_axis():
    rng = np.random.default_rng(2)
    m = rng.uniform(size=(3, 13))
    d = correlation_distance(m, "rows", ("r0", "r1", "r2"))
    assert d.condensed.shape == (3,)
    assert d.condensed[0] == pytest.approx(1.0 - pearson(m[0], m[1]), abs=1e-15)


def test_distance_range_and_validation():
    rng = np.random.default_rng(3)
    m = rng.uniform(size=(6, 5))
    d = correlation_distance(m, "columns", tuple("abcde"))
    assert np.all(d.condensed >= 0.0) and np.all(d.condensed <= 2.0)
    with pytest.raises(ValueError, match="axis"):
        correlation_distance(m, "diag", tuple("abcde"))
    with pytest.raises(ValueError, match="at least 2 items"):
        correlation_distance(m[:, :1], "columns", ("a",))
    with pytest.raises(ValueError, match="label count"):
        correlation_distance(m, "columns", ("a", "b"))


# -------------------------------------------------------------------- UPGMA

def as_dv(condensed, n):
    return DistanceVector(axis="columns", condensed=np.asarray(condensed, dtype=float),
                          labels=tuple(f"i{k}" for k in range(n)))


def test_upgma_three_point_example():
    # d(A,B)=1, d(A,C)=4, d(B,C)=5
    merges = upgma(as_dv([1.0, 4.0, 5.0], 3))
    assert merges[0][:2] == (0, 1)
    assert merges[0][2] == pytest.approx(1.0)
    assert merges[1][:2] == (2, 3)
    assert merges[1][2] == pytest.approx(4.5)
    assert merges[1][3] == 3


def test_upgma_two_items():
    merges = upgma(as_dv([0.7], 2))
    assert merges == [(0, 1, 0.7, 2)]


def test_upgma_equal_distances_tie_break():
    merges = upgma(as_dv([1.0] * 6, 4))
    assert [m[:2] for m in merges] == [(0, 1), (2, 3), (4, 5)]
    assert all(m[2] == 1.0 for m in merges)


def test_upgma_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        upgma(as_dv([1.0, np.nan, 2.0], 3))


def test_upgma_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for trial in range(50):
        n = int(rng.integers(3, 13))
        condensed = rng.uniform(0.05, 2.0, size=n * (n - 1) // 2)
        merges = upgma(as_dv(condensed, n))
        want = naive_upgma(condensed, n)
        for got, exp in zip(merges, want):
            assert got[:2] == exp[:2], f"trial {trial}"
            assert got[2] == pytest.approx(exp[2], abs=1e-9)
            assert got[3] == exp[3]


def test_upgma_heights_monotone():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        condensed = rng.uniform(0.0, 2.0, size=n * (n - 1) // 2)
        merges = upgma(as_dv(condensed, n))
        hs = [m[2] for m in merges]
        assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))
        assert merges[-1][3] == n


def test_upgma_permutation_preserves_heights():
    rng = np.random.default_rng(6)
    n = 7
    m = rng.uniform(size=(10, n))
    labels = tuple(f"c{k}" for k in range(n))
    merges = upgma(correlation_distance(m, "columns", labels))
    perm = rng.permutation(n)
    merges_p = upgma(correlation_distance(m[:, perm], "columns",
                                          tuple(labels[k] for k in perm)))
    hs = sorted(x[2] for x in merges)
    hs_p = sorted(x[2] for x in merges_p)
    assert np.allclose(hs, hs_p, atol=1e-9)


# --------------------------------------------------------------------- cuts

def test_cut_degenerate_ks():
    merges = upgma(as_dv([1.0, 4.0, 5.0], 3))
    assert cut_clusters(merges, 1).tolist() == [0, 0, 0]
    assert cut_clusters(merges, 3).tolist() == [0, 1, 2]


def test_cut_two_clusters_three_points():
    merges = upgma(as_dv([1.0, 4.0, 5.0], 3))
    assert cut_clusters(merges, 2).tolist() == [0, 0, 1]


def test_cut_range_validation():
    merges = upgma(as_dv([1.0], 2))
    with pytest.raises(ValueError, match="out of range"):
        cut_clusters(merges, 0)
    with pytest.raises(ValueError, match="out of range"):
        cut_clusters(merges, 3)


def test_cut_matches_height_threshold():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        condensed = rng.uniform(0.05, 2.0, size=n * (n - 1) // 2)
        merges = upgma(as_dv(condensed, n))
        k = int(rng.integers(2, n))
        labels = cut_clusters(merges, k)
        assert len(set(labels.tolist())) == k
        # leaves merged below the cut share a label
        for step in range(n - k):
            a, b, _, _ = merges[step]
            la = a if a < n else None
            if la is not None and b < n:
                assert labels[a] == labels[b]


def test_leaf_order_smaller_subtree_first():
    merges = upgma(as_dv([1.0, 4.0, 5.0], 3))
    assert leaf_order(merges) == [2, 0, 1]


def test_leaf_order_is_permutation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 14))
        condensed = rng.uniform(0.05, 2.0, size=n * (n - 1) // 2)
        order = leaf_order(upgma(as_dv(condensed, n)))
        assert sorted(order) == list(range(n))


def test_leaf_order_single_leaf():
    assert leaf_order([]) == [0]
