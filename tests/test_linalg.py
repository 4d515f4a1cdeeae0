import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import DimensionMismatch, NonFinite
from hdlp.linalg import gram_schmidt_extend, orthogonal_residual, orthonormal_columns
from reference import ols_fit, project_out


def normal_equations_oracle(X, y):
    """Independent textbook solution (X'X)^-1 X'y for full-rank X."""
    return np.linalg.solve(X.T @ X, X.T @ y)


class TestOlsFit:
    def test_identity_design(self):
        fit = ols_fit(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(fit.coefficients, [1.0, 2.0, 3.0])
        assert fit.rss == pytest.approx(0.0, abs=1e-24)

    def test_constant_fit(self):
        fit = ols_fit(np.ones((4, 1)), np.ones(4))
        assert fit.coefficients[0] == pytest.approx(1.0)
        assert np.allclose(fit.residuals, 0.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rng.standard_normal((5, 2))
            y = rng.standard_normal(5)
            fit = ols_fit(X, y)
            assert np.allclose(
                fit.coefficients, normal_equations_oracle(X, y), atol=1e-8
            )

    def test_residuals_orthogonal_and_rss(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        fit = ols_fit(X, y)
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8 * np.linalg.norm(y)
        assert fit.rss == pytest.approx(float(fit.residuals @ fit.residuals))

    def test_rank_deficient_duplicate_column(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10)
        X = np.column_stack([x, x, rng.standard_normal(10)])
        fit = ols_fit(X, rng.standard_normal(10))
        assert fit.rank == 2
        # residuals still orthogonal to the column space
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8

    def test_zero_columns(self):
        y = np.array([1.0, 2.0])
        fit = ols_fit(np.zeros((2, 0)), y)
        assert fit.rank == 0
        assert np.allclose(fit.residuals, y)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            ols_fit(np.eye(3), np.ones(4))
        with pytest.raises(NonFinite):
            ols_fit(np.array([[np.nan], [1.0]]), np.ones(2))

    @given(st.floats(min_value=0.1, max_value=100.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        base = ols_fit(X, y)
        Xs = X.copy()
        Xs[:, 1] *= scale
        scaled = ols_fit(Xs, y)
        assert scaled.coefficients[1] * scale == pytest.approx(
            base.coefficients[1], rel=1e-8, abs=1e-10
        )
        assert np.allclose(scaled.residuals, base.residuals, atol=1e-8)


class TestProjectOut:
    def test_empty_basis(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(project_out(np.zeros((2, 0)), v), v)

    def test_own_span(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.max(np.abs(project_out(v[:, None], v))) < 1e-10

    def test_matches_ols_identity(self):
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((6, 2))
        v = rng.standard_normal(6)
        expect = v - basis @ ols_fit(basis, v).coefficients
        assert np.allclose(project_out(basis, v), expect, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        Q = orthonormal_columns(rng.standard_normal((25, 6)))
        v = rng.standard_normal(25)
        once = orthogonal_residual(Q, v)
        twice = orthogonal_residual(Q, once)
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(v)
        assert np.max(np.abs(Q.T @ once)) <= 1e-12 * np.linalg.norm(v)

    def test_rss_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            X = rng.standard_normal((18, 5))
            y = rng.standard_normal(18)
            r = project_out(X, y)
            assert ols_fit(X, y).rss == pytest.approx(float(r @ r), rel=1e-8)


class TestGramSchmidtExtend:
    def test_normalization(self):
        q = gram_schmidt_extend(np.zeros((3, 0)), np.array([3.0, 0.0, 0.0]))
        assert np.allclose(q, [1.0, 0.0, 0.0])

    def test_collinear_degenerate(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        assert gram_schmidt_extend(e1, np.array([5.0, 0.0, 0.0])) is None

    def test_exact_orthogonalization(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        q = gram_schmidt_extend(e1, np.array([1.0, 1.0, 0.0]))
        assert np.allclose(q, [0.0, 1.0, 0.0])

    def test_incremental_path_matches_ols(self):
        # projecting y onto the built-up orthonormal set reproduces the OLS
        # residual on the same columns
        rng = np.random.default_rng(21)
        for _ in range(10):
            W = rng.standard_normal((20, 5))
            y = rng.standard_normal(20)
            Q = np.zeros((20, 0))
            for k in range(5):
                q = gram_schmidt_extend(Q, W[:, k])
                assert q is not None
                Q = np.column_stack([Q, q])
            resid_q = y - Q @ (Q.T @ y)
            resid_ols = ols_fit(W, y).residuals
            assert np.allclose(resid_q, resid_ols, rtol=1e-7, atol=1e-9)
