from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import DimensionMismatch, NonFinite
import scipy.linalg.lapack

import hdlp.linalg
from hdlp.linalg import complement, extend, orthogonalize, prefix_residuals
from reference import (
    gram_schmidt_extend,
    ols_fit,
    orthogonal_residual,
    orthonormal_columns,
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


def prefix_fit(X, V, rows, intercept=False):
    """prefix_residuals on X, in place on V; its ranks, its failures, and the
    row count of every prefix it factored (one pivoted QR each) with whether
    its complement was formed (n - r < r) rather than reflected."""
    factored, sides = [], []

    def counted(design, *args):
        out = complement(design, *args)
        factored.append(design.shape[0])
        sides.append(design.shape[0] - out[0] < out[0])
        return out

    failed = [None] * len(rows)
    with mock.patch.object(hdlp.linalg, "complement", counted):
        rank = prefix_residuals(X, intercept, V, rows, failed)
    return rank, failed, factored, sides


def on_rows(v, rows, N):
    """v's first rows[i] entries in row i of a k x 1 x N array, zero below."""
    return np.where(np.arange(N) < np.asarray(rows)[:, None], v[:N], 0.0)[:, None]


# the property tests' draws of columns p and spare rows: held where the
# complement is formed (a near-square design, rank above half its rows), held
# where it is reflected (a tall one), and small designs with as few as 3
# spare rows, whose side follows from the drawn shape (None)
DRAWS = [pytest.param(True, id="formed"), pytest.param(False, id="reflected"),
         pytest.param(None, id="either")]


class TestPrefixBasis:
    @pytest.mark.parametrize("formed", DRAWS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), n_dup=st.integers(0, 3),
           drop=st.integers(0, 20))
    @settings(max_examples=200, deadline=None)
    def test_prefix_residual_matches_a_fresh_factorization(
        self, formed, data, seed, n_dup, drop
    ):
        # the rank is p, and N - p = spare + drop stays below p where the
        # complement is formed and at or above it where it is reflected
        p, spare = data.draw({True: st.tuples(st.integers(33, 40), st.integers(8, 12)),
                              False: st.tuples(st.integers(0, 12), st.integers(12, 60)),
                              None: st.tuples(st.integers(0, 12), st.integers(3, 60)),
                              }[formed], "p, spare")
        rng = np.random.default_rng(seed)
        n = p + spare
        X = rng.standard_normal((n + drop, p))
        if p:
            X = np.column_stack([X, X[:, rng.integers(0, p, size=n_dup)]])
        v = rng.standard_normal(n + drop)
        V = on_rows(v, [n + drop, n], n + drop)
        rank, failed, factored, sides = prefix_fit(X, V, [n + drop, n])
        # Gaussian rows keep the rank by a wide margin: one QR serves both
        assert factored == [n + drop] and failed == [None, None]
        assert sides == [spare + drop < p] and formed in (None, sides[0])
        fresh = orthonormal_columns(X[:n])
        assert rank[1] == fresh.shape[1]
        np.testing.assert_allclose(V[1, 0, :n], orthogonal_residual(fresh, v[:n]),
                                   rtol=0, atol=1e-9 * np.linalg.norm(v))
        assert not V[1, 0, n:].any()

    @pytest.mark.parametrize("p, formed", [(6, False), (30, True)])
    def test_no_dropped_rows_is_the_plain_residual(self, p, formed):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, p))
        v = rng.standard_normal(40)
        want = orthogonal_residual(orthonormal_columns(X), v)
        V = v[None, None].copy()
        rank, _, factored, sides = prefix_fit(X, V, [40])
        assert factored == [40] and sides == [formed] and rank.tolist() == [p]
        # the residual is P(P'v), formed or reflected, not the oracle's two
        # projection passes
        np.testing.assert_allclose(V[0, 0], want, rtol=0,
                                   atol=1e-14 * np.linalg.norm(v))

    @pytest.mark.parametrize("p, formed", [(5, False), (30, True)])
    def test_guard_refuses_prefixes_that_lose_rank(self, p, formed):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((40, p))
        X[:, 2] = 0.0
        X[-2:, 2] = 1.0  # nonzero only on the last two rows
        D = rng.standard_normal((40, p))
        D[:, 4] = D[:, 0]
        D[-1, 4] += 1.0  # a duplicate apart from the last row
        v = rng.standard_normal(40)
        # the 39-row prefix of X keeps the rank and is served, the 38-row
        # one is factored afresh; D loses its rank at 39 rows already
        cases = ((X, [40, 39, 38], [40, 38], [p, p, p - 1]),
                 (D, [40, 39], [40, 39], [p, p - 1]))
        for design, rows, want, ranks in cases:
            V = on_rows(v, rows, 40)
            rank, _, factored, sides = prefix_fit(design, V, rows)
            assert factored == want and rank.tolist() == ranks
            assert sides == [formed] * len(want)
            for i, n in enumerate(rows):
                fresh = orthonormal_columns(design[:n])
                np.testing.assert_allclose(V[i, 0, :n], orthogonal_residual(fresh, v[:n]),
                                           rtol=0, atol=1e-9 * np.linalg.norm(v))

    @pytest.mark.parametrize("formed", DRAWS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), n_dup=st.integers(0, 2),
           drop=st.integers(1, 25), cut=st.integers(-10, 24))
    @settings(max_examples=150, deadline=None)
    def test_one_cholesky_matches_per_prefix_factorizations(
        self, formed, data, seed, n_dup, drop, cut
    ):
        # every prefix of at least N - drop rows, read off one Cholesky
        # factor, against each prefix's own factor; with cut > 0 column 0 is
        # zero above row N - drop + cut, so the rank drops at a middle prefix
        # and the single factorization fails (or its guard trips) partway
        p, spare = data.draw({True: st.tuples(st.integers(40, 48), st.integers(8, 12)),
                              False: st.tuples(st.integers(1, 8), st.integers(8, 30)),
                              None: st.tuples(st.integers(1, 8), st.integers(3, 30)),
                              }[formed], "p, spare")
        rng = np.random.default_rng(seed)
        n_min = p + n_dup + spare
        N = n_min + drop
        X = rng.standard_normal((N, p))
        X = np.column_stack([X, X[:, rng.integers(0, p, size=n_dup)]])
        mid = n_min + cut if 0 < cut < drop else 0
        X[:mid, 0] = 0.0
        v = rng.standard_normal(N)
        Q = orthonormal_columns(X)
        rows = list(range(N, n_min - 1, -1))
        oracle = {n: prefix_residual_one_prefix(Q, n, v[:n]) for n in rows}
        V = on_rows(v, rows, N)
        _, _, factored, sides = prefix_fit(X, V, rows)
        served = rows[: rows.index(factored[1])] if len(factored) > 1 else rows
        assert factored[0] == N and sides[0] == (N - p < p)
        assert formed in (None, sides[0])
        assert served == [n for n in rows if oracle[n] is not None]
        if mid:
            assert factored[1] >= mid
        for i, n in enumerate(served):
            np.testing.assert_allclose(V[i, 0, :n], oracle[n], rtol=0,
                                       atol=1e-9 * np.linalg.norm(v))
            assert not V[i, 0, n:].any()

    @pytest.mark.parametrize("p, zero_above, low, formed",
                             [(5, 30, 20, False), (30, 35, 32, True)])
    def test_a_failed_factorization_keeps_its_leading_blocks(
        self, p, zero_above, low, formed
    ):
        # column 2 is zero above row zero_above: LAPACK reports the leading
        # minor of the dropped rows' Gram matrix DD' = I - UU' that belongs
        # to that prefix not positive definite, and the leading blocks
        # before it still serve their prefixes
        X = np.random.default_rng(0).standard_normal((40, p))
        X[:zero_above, 2] = 0.0
        _, D, _, _ = complement(X, False, 40 - low)
        U = orthonormal_columns(X)[low:][::-1]
        np.testing.assert_allclose(D @ D.T, np.eye(40 - low) - U @ U.T, rtol=0,
                                   atol=1e-14)
        served = 40 - zero_above
        assert scipy.linalg.lapack.dpotrf(D @ D.T, lower=True)[1] == served
        v = np.random.default_rng(1).standard_normal(40)
        rows = np.arange(40, low - 1, -1)
        V = on_rows(v, rows, 40)
        rank, _, factored, sides = prefix_fit(X, V, rows)
        assert factored == [40, zero_above] and sides == [formed] * 2
        assert rank.tolist() == [p] * served + [p - 1] * (len(rows) - served)
        Q = orthonormal_columns(X)
        for r, n in zip(V[:served, 0], rows):
            np.testing.assert_allclose(
                r[:n], prefix_residual_one_prefix(Q, n, v[:n]),
                rtol=0, atol=1e-12 * np.linalg.norm(v),
            )

    @pytest.mark.parametrize("p, formed", [(3, False), (20, True)])
    def test_a_failed_qr_fails_its_regression_only(self, p, formed):
        # a LinAlgError from one factorization lands in that regression's
        # slot, and the next prefix is factored afresh
        X = np.random.default_rng(2).standard_normal((30, p))
        calls = []

        def failing_first(design, *args):
            calls.append(design.shape[0])
            if len(calls) == 1:
                raise np.linalg.LinAlgError("injected")
            return complement(design, *args)

        V = on_rows(np.ones(30), [30, 29, 28], 30)
        failed = [None] * 3
        with mock.patch.object(hdlp.linalg, "complement", failing_first):
            rank = prefix_residuals(X, True, V, [30, 29, 28], failed)
        assert calls == [30, 29]
        assert (29 - (p + 1) < p + 1) == formed
        assert isinstance(failed[0], np.linalg.LinAlgError) and failed[1:] == [None, None]
        assert rank.tolist() == [0, p + 1, p + 1]
        # a constant series lies in the span of the intercept
        assert np.abs(V[1:]).max() < 1e-12

    @pytest.mark.parametrize("p", [pytest.param(3, id="reflected"),
                                   pytest.param(20, id="formed")])
    def test_an_illegal_lapack_argument_fails_its_regression(self, p):
        # LAPACK's info < 0 from the routine that applies the reflectors
        # raises LinAlgError, which lands in the regression's slot and
        # leaves its series as they were; Q (not Q') is applied last, to
        # form P or to bring the residuals back, so that call fails here
        real = scipy.linalg.lapack.dormqr

        def illegal(*args, **kwargs):
            *out, info = real(*args, **kwargs)
            return (*out, info if kwargs["lwork"] == -1 or args[1] == "T" else -5)

        X = np.random.default_rng(2).standard_normal((30, p))
        V = on_rows(np.ones(30), [30], 30)
        failed = [None]
        with mock.patch.object(scipy.linalg.lapack, "dormqr", illegal):
            prefix_residuals(X, False, V, [30], failed)
        assert isinstance(failed[0], np.linalg.LinAlgError)
        assert "illegal value in argument 5" in str(failed[0])
        assert np.array_equal(V, on_rows(np.ones(30), [30], 30))

    @pytest.mark.parametrize("N, p, k, intercept, formed", [
        (40, 20, 20, False, False),  # rank 20 = N - rank: reflected
        (40, 19, 19, True, False),  # the intercept counts in the rank
        (40, 21, 21, False, True),  # one column more: formed, 19 columns
        (30, 40, 20, False, True),  # wide, rank 20: 30 of 41 reflectors
        (30, 40, 30, False, True),  # wide, full row rank: no complement
    ])
    def test_the_complement_and_its_moves(self, N, p, k, intercept, formed):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((N, k)) @ rng.standard_normal((k, p))
        v = rng.standard_normal((2, N))
        calls, real = [], scipy.linalg.lapack.dormqr

        def spy(side, trans, *args, **kwargs):
            if kwargs["lwork"] != -1:
                calls.append(trans)
            return real(side, trans, *args, **kwargs)

        with mock.patch.object(scipy.linalg.lapack, "dormqr", spy):
            rank, D, onto, back = complement(X, intercept, 3)
            b = onto(v)
            moved = back(b)
        # a formed P is Q applied once, to [0; I]; a reflected one applies
        # Q' for D and for onto, and Q for back
        assert calls == (["N"] if formed else ["T", "T", "N"])
        Q = orthonormal_columns(X, intercept)
        assert rank == Q.shape[1] and (N - rank < rank) == formed
        assert D.shape == (3, N - rank) and b.shape == (2, N - rank)
        U = Q[N - 3:][::-1]
        np.testing.assert_allclose(D @ D.T, np.eye(3) - U @ U.T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(moved, [orthogonal_residual(Q, w) for w in v],
                                   rtol=0, atol=1e-13 * np.linalg.norm(v))
        rows = [N, N - 1, N - 2]
        V = on_rows(v[0], rows, N)
        ranks, _, _, sides = prefix_fit(X, V, rows, intercept)
        assert sides[0] == formed
        for i, n in enumerate(rows):
            fresh = orthonormal_columns(X[:n], intercept)
            assert ranks[i] == fresh.shape[1]
            np.testing.assert_allclose(V[i, 0, :n], orthogonal_residual(fresh, v[0, :n]),
                                       rtol=0, atol=1e-9 * np.linalg.norm(v[0]))


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
        rows_out = V.copy()
        extend(B, m, rows_out)
        for i, (Q, r) in enumerate(zip(bases, rows)):
            q = gram_schmidt_extend(Q, V[i, :r])
            assert m[i] == before[i] + (q is not None)
            if q is None:  # V hands back each new row, and zero where none grew
                assert not rows_out[i].any() and not B[i, before[i]].any()
            else:
                np.testing.assert_allclose(B[i, before[i], :r], q, rtol=0, atol=1e-10)
                assert not B[i, before[i], r:].any()
                np.testing.assert_array_equal(rows_out[i], B[i, before[i]])
