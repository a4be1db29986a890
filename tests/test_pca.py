"""PCA contracts, checked against an independent covariance
eigendecomposition oracle."""

import numpy as np
import pytest

from fairlens.pca import (
    align_to_reference,
    component_cap,
    fit_pca,
    full_matrix_pca,
    project,
)
from fairlens.pipeline import pca_record


def eig_oracle(matrix):
    """Oracle route: eigendecompose the centered covariance directly."""
    x = matrix - matrix.mean(axis=0)
    cov = x.T @ x  # unnormalized; ratios are scale-free
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    return w / w.sum(), v[:, order].T


def test_collinear_points():
    m = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    p = fit_pca(m, 1)
    assert np.allclose(p.eigenvectors[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert p.explained_variance_ratios[0] == pytest.approx(1.0, abs=1e-12)


def test_ratios_match_eigendecomposition_oracle():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(3, 10))
        m = rng.uniform(size=(n, 13))
        k = min(n - 1, 13)
        p = fit_pca(m, k)
        want_ratios, want_vecs = eig_oracle(m)
        assert np.allclose(p.explained_variance_ratios, want_ratios[:k],
                           atol=1e-9), f"trial {trial}"
        # directions agree up to sign where eigenvalues are distinct
        for i in range(k):
            if i + 1 < len(want_ratios) and abs(want_ratios[i] - want_ratios[i + 1]) < 1e-6:
                continue
            dot = abs(float(p.eigenvectors[i] @ want_vecs[i]))
            assert dot == pytest.approx(1.0, abs=1e-6)


def test_orthonormal_rows():
    rng = np.random.default_rng(1)
    m = rng.uniform(size=(8, 13))
    p = fit_pca(m, 5)
    gram = p.eigenvectors @ p.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_ratios_descending_and_bounded():
    rng = np.random.default_rng(2)
    m = rng.uniform(size=(10, 13))
    p = fit_pca(m, 6)
    r = p.explained_variance_ratios
    assert np.all(r >= 0)
    assert np.all(np.diff(r) <= 1e-12)
    assert r.sum() <= 1.0 + 1e-9


def test_variance_conservation_full_rank():
    rng = np.random.default_rng(3)
    m = rng.uniform(size=(6, 13))
    p = fit_pca(m, 5)  # full rank for 6 centered rows
    scores = project(m, p)
    per_comp = np.var(scores, axis=0, ddof=0)
    centered = m - m.mean(axis=0)
    total = np.sum(np.var(centered, axis=0, ddof=0))
    assert per_comp.sum() == pytest.approx(total, abs=1e-9)
    # and the ratios are those variances over the total
    assert np.allclose(p.explained_variance_ratios, per_comp / total, atol=1e-9)


def test_sign_convention():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.uniform(size=(7, 13))
        p = fit_pca(m, 4)
        for row in p.eigenvectors:
            assert row[np.argmax(np.abs(row))] >= 0


def test_projection_self_consistency():
    rng = np.random.default_rng(5)
    m = rng.uniform(size=(9, 13))
    p = fit_pca(m, 3)
    scores = project(m, p)
    assert np.allclose(np.var(scores, axis=0, ddof=0),
                       p.explained_variance_ratios * _total_var(m), atol=1e-9)


def _total_var(m):
    c = m - m.mean(axis=0)
    return np.sum(np.var(c, axis=0, ddof=0))


def test_projection_linearity_row_shift():
    rng = np.random.default_rng(6)
    m = rng.uniform(size=(5, 13))
    p = fit_pca(m, 2)
    delta = rng.uniform(size=13)
    shifted = project(m + delta, p)
    base = project(m, p)
    assert np.allclose(shifted, base + delta @ p.eigenvectors.T, atol=1e-12)


def test_identical_metrics_project_identically():
    rng = np.random.default_rng(7)
    m = rng.uniform(size=(5, 13))
    p = fit_pca(m, 2)
    a = project(m, p)
    b = project(m.copy(), p)
    assert np.array_equal(a, b)


def test_fit_validation():
    rng = np.random.default_rng(8)
    m = rng.uniform(size=(4, 13))
    with pytest.raises(ValueError, match="out of range"):
        fit_pca(m, 4)  # cap is rows-1 = 3
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_pca(m[:1], 1)
    with pytest.raises(ValueError, match="zero variance"):
        fit_pca(np.ones((4, 5)), 2)
    p = fit_pca(m, 2)
    with pytest.raises(ValueError, match="does not match"):
        project(rng.uniform(size=(4, 12)), p)


def test_alignment_reference_at_origin():
    rng = np.random.default_rng(9)
    groups = ("a", "b", "c", "d")
    fit = rng.uniform(size=(4, 13))
    p = fit_pca(fit, 2)
    projections = {
        "logit": project(fit, p),
        "mlp": project(rng.uniform(size=(4, 13)), p),
    }
    aligned = align_to_reference(projections, groups, "b")
    for coords in aligned.values():
        assert np.array_equal(coords[1], np.zeros(2))
    # the record keeps the reference with the aligned coordinates
    rows = [f"{k}:{g}" for k in ("logit", "mlp") for g in groups]
    _, rec = pca_record(rows, np.vstack([fit, fit[::-1]]), "logit",
                        ["logit", "mlp"], groups, "b", 2)
    assert rec["reference_group"] == "b"
    for coords in rec["coords"].values():
        assert coords[1] == [0.0, 0.0]


def test_alignment_translation_invariance():
    rng = np.random.default_rng(10)
    groups = ("a", "b")
    fit = rng.uniform(size=(2, 13))
    p = fit_pca(fit, 1)
    m2 = fit + rng.uniform(size=13)  # same geometry relative to reference
    a = align_to_reference({"x": project(fit, p)}, groups, "a")
    b = align_to_reference({"x": project(m2, p)}, groups, "a")
    assert np.allclose(a["x"], b["x"], atol=1e-12)


def test_alignment_idempotent():
    rng = np.random.default_rng(11)
    groups = ("a", "b", "c")
    fit = rng.uniform(size=(3, 13))
    p = fit_pca(fit, 2)
    once = align_to_reference({"m": project(fit, p)}, groups, "a")
    twice = align_to_reference(once, groups, "a")
    assert np.array_equal(once["m"], twice["m"])


def test_alignment_missing_reference():
    with pytest.raises(ValueError, match="not among groups"):
        align_to_reference({"m": np.zeros((2, 2))}, ("a", "b"), "z")


def test_full_matrix_pca_rank_one():
    base = np.linspace(0.1, 1.3, 13)
    m = np.vstack([base * w for w in (1.0, 2.0, 3.0, 4.0)])
    p = full_matrix_pca(m)
    assert p.explained_variance_ratios[0] == pytest.approx(1.0, abs=1e-12)


def test_component_cap():
    assert component_cap(2) == 1
    assert component_cap(3) == 2
    assert component_cap(5) == 3
    assert component_cap(9) == 3
