import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import DimensionMismatch, NonFinite
import scipy.linalg.lapack

from hdlp.linalg import PrefixBasis, extend, orthogonalize, orthonormal_columns
from reference import (
    gram_schmidt_extend,
    ols_fit,
    orthogonal_residual,
    prefix_residual_one_prefix,
    project_out,
)


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


class TestPrefixBasis:
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 12),
           n_dup=st.integers(0, 3), drop=st.integers(0, 20),
           spare=st.integers(3, 60))
    @settings(max_examples=200, deadline=None)
    def test_prefix_residual_matches_a_fresh_factorization(
        self, seed, p, n_dup, drop, spare
    ):
        rng = np.random.default_rng(seed)
        n = p + spare
        X = rng.standard_normal((n + drop, p))
        if p:
            X = np.column_stack([X, X[:, rng.integers(0, p, size=n_dup)]])
        v = rng.standard_normal(n)
        basis = PrefixBasis.of(X).reach(n)
        assert basis.min_rows == n  # Gaussian rows keep the rank by a wide margin
        fresh = orthonormal_columns(X[:n])
        assert basis.rank == fresh.shape[1]
        V = np.zeros((1, n + drop))
        V[0, :n] = v
        got = basis.residual(V, [n])[0]
        np.testing.assert_allclose(got[:n], orthogonal_residual(fresh, v),
                                   rtol=0, atol=1e-9 * np.linalg.norm(v))
        assert not got[n:].any()

    def test_no_dropped_rows_is_the_plain_residual(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, 6))
        v = rng.standard_normal(40)
        want = orthogonal_residual(orthonormal_columns(X), v)
        basis = PrefixBasis.of(X)
        assert np.array_equal(basis.residual(v[None].copy(), [40])[0], want)
        assert np.array_equal(basis.reach(40).residual(v[None].copy(), [40])[0], want)

    def test_guard_refuses_prefixes_that_lose_rank(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((40, 5))
        X[:, 2] = 0.0
        X[-2:, 2] = 1.0  # nonzero only on the last two rows
        basis = PrefixBasis.of(X)
        assert basis.rank == 5
        assert basis.reach(39).min_rows == 39
        assert basis.reach(38).min_rows == 39
        D = rng.standard_normal((40, 5))
        D[:, 4] = D[:, 0]
        D[-1, 4] += 1.0  # a duplicate apart from the last row
        assert PrefixBasis.of(D).rank == 5
        assert PrefixBasis.of(D).reach(39).min_rows == 40

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 8),
           n_dup=st.integers(0, 2), spare=st.integers(3, 30),
           drop=st.integers(1, 25), cut=st.integers(-10, 24))
    @settings(max_examples=150, deadline=None)
    def test_one_cholesky_matches_per_prefix_factorizations(
        self, seed, p, n_dup, spare, drop, cut
    ):
        # every prefix of at least N - drop rows, read off one Cholesky
        # factor, against each prefix's own factor; with cut > 0 column 0 is
        # zero above row N - drop + cut, so the rank drops at a middle prefix
        # and the single factorization fails (or its guard trips) partway
        rng = np.random.default_rng(seed)
        n_min = p + n_dup + spare
        N = n_min + drop
        X = rng.standard_normal((N, p))
        X = np.column_stack([X, X[:, rng.integers(0, p, size=n_dup)]])
        mid = n_min + cut if 0 < cut < drop else 0
        X[:mid, 0] = 0.0
        v = rng.standard_normal(N)
        basis = PrefixBasis.of(X)
        reached = basis.reach(n_min)
        rows = list(range(N, n_min - 1, -1))
        oracle = {n: prefix_residual_one_prefix(basis.Q, n, v[:n]) for n in rows}
        served = [n for n in rows if n >= reached.min_rows]
        assert served == [n for n in rows if oracle[n] is not None]
        if mid:
            assert reached.min_rows > mid
        V = np.zeros((len(served), N))
        for i, n in enumerate(served):
            V[i, :n] = v[:n]
        got = reached.residual(V, served)
        for i, n in enumerate(served):
            np.testing.assert_allclose(got[i, :n], oracle[n], rtol=0,
                                       atol=1e-9 * np.linalg.norm(v))
            assert not got[i, n:].any()

    def test_a_failed_factorization_keeps_its_leading_blocks(self):
        # column 2 is zero above row 30: LAPACK reports the leading minor of
        # order 10 (the 30-row prefix) not positive definite, and the 9
        # leading blocks before it still serve their prefixes
        X = np.random.default_rng(0).standard_normal((40, 5))
        X[:30, 2] = 0.0
        basis = PrefixBasis.of(X)
        U = basis.Q[20:][::-1]
        assert scipy.linalg.lapack.dpotrf(np.eye(20) - U @ U.T, lower=True)[1] == 10
        reached = basis.reach(20)
        assert reached.min_rows == 31
        v = np.random.default_rng(1).standard_normal(40)
        rows = np.arange(40, 30, -1)
        got = reached.residual(np.where(np.arange(40) < rows[:, None], v, 0.0), rows)
        for r, n in zip(got, rows):
            np.testing.assert_allclose(
                r[:n], prefix_residual_one_prefix(basis.Q, n, v[:n]),
                rtol=0, atol=1e-12 * np.linalg.norm(v),
            )

    def test_rows_must_lie_inside_the_anchor(self):
        basis = PrefixBasis.of(np.random.default_rng(33).standard_normal((10, 2)))
        for n in (0, 11):
            with pytest.raises(DimensionMismatch):
                basis.reach(n)


def padded_bases(rng, k, n):
    """k orthonormal bases of random sizes on random leading rows of n, as
    rows of one zero-padded k x m x n array, with their row counts."""
    rows = rng.integers(2, n + 1, size=k)
    sizes = [int(rng.integers(0, r)) for r in rows]
    B = np.zeros((k, max(sizes) + 1, n))
    bases = []
    for i, (r, m) in enumerate(zip(rows, sizes)):
        Q = orthonormal_columns(rng.standard_normal((r, m)))
        B[i, : Q.shape[1], :r] = Q.T
        bases.append(Q)
    return B, bases, rows


class TestBatchedKernel:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           n=st.integers(3, 40), c=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_padded_residuals_are_the_one_basis_residuals(self, seed, k, n, c):
        rng = np.random.default_rng(seed)
        B, bases, rows = padded_bases(rng, k, n)
        inside = np.arange(n) < rows[:, None, None]
        V = rng.standard_normal((k, c, n)) * inside
        got = orthogonalize(B, V.copy())
        for i, (Q, r) in enumerate(zip(bases, rows)):
            for j in range(c):
                want = orthogonal_residual(Q, V[i, j, :r])
                np.testing.assert_allclose(got[i, j, :r], want, rtol=0,
                                           atol=1e-12 * np.linalg.norm(V[i, j]))
                assert not got[i, j, r:].any()

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           n=st.integers(3, 40), spanned=st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_extend_is_gram_schmidt_extend(self, seed, k, n, spanned):
        rng = np.random.default_rng(seed)
        B, bases, rows = padded_bases(rng, k, n)
        inside = np.arange(n) < rows[:, None]
        V = rng.standard_normal((k, n)) * inside
        for i in rng.permutation(k)[:spanned]:  # a zero or an in-span series
            V[i, : rows[i]] = bases[i] @ rng.standard_normal(bases[i].shape[1])
        m = np.array([Q.shape[1] for Q in bases])
        before = m.copy()
        grown = extend(B, m, V.copy())
        for i, (Q, r) in enumerate(zip(bases, rows)):
            q = gram_schmidt_extend(Q, V[i, :r])
            assert (i in grown) == (q is not None)
            assert m[i] == before[i] + (q is not None)
            if q is not None:
                np.testing.assert_allclose(B[i, before[i], :r], q, rtol=0, atol=1e-10)
                assert not B[i, before[i], r:].any()
