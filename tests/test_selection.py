import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import AllColumnsDegenerate, DimensionMismatch, InsufficientSample
from hdlp.selection import (
    DEFAULT_C_STAR_CANDIDATES,
    OgaConfig,
    _hdaic_curves,
    max_steps,
    oga_hdaic_select,
    oga_order,
)
from reference import (
    hdaic,
    holdout_c_star_one_path,
    oga_order_one_path,
    ols_fit,
    one,
    order_one,
    select_c_star,
    select_hdaic,
    select_one,
)


def refit_greedy_oracle(W, y, M, base=None):
    """Brute force: at each step refit OLS on every candidate extension and
    keep the one with the largest RSS drop (ties by lowest index)."""
    T, p = W.shape
    fixed = [] if base is None else [base]
    order = []
    for _ in range(M):
        best, best_rss = None, np.inf
        for i in range(p):
            if i in order:
                continue
            X = np.column_stack(fixed + [W[:, order + [i]]])
            rss = ols_fit(X, y).rss
            if rss < best_rss - 1e-12:
                best_rss, best = rss, i
        order.append(best)
    return order


class TestMaxSteps:
    def test_override_dominates(self):
        cfg = OgaConfig(max_steps_override=10)
        assert max_steps(100_000, 100, cfg) == 10

    def test_single_candidate(self):
        assert max_steps(50, 1, OgaConfig()) == 1

    def test_golden_value(self):
        # direct evaluation of ceil(5 * (300 / log(189)^3)^(1/4)) = 7
        assert max_steps(300, 189, OgaConfig()) == 7

    def test_never_exceeds_t_minus_one(self):
        assert max_steps(5, 100, OgaConfig(mbar_scale=1000.0)) == 4

    def test_at_least_one(self):
        assert max_steps(2, 3, OgaConfig(mbar_scale=1e-6)) == 1

    @pytest.mark.parametrize("cap", [0, -3])
    def test_override_below_one_is_refused(self, cap):
        with pytest.raises(ValueError, match="max_steps_override must be at least 1"):
            OgaConfig(max_steps_override=cap)

    def test_fractional_override_is_refused_and_numpy_integers_pass(self):
        with pytest.raises(ValueError, match="max_steps_override must be at least 1 "
                                             "and an integer, got 2.5"):
            OgaConfig(max_steps_override=2.5)
        assert type(OgaConfig(max_steps_override=np.int32(3)).max_steps_override) is int


class TestOgaOrder:
    def test_orthogonal_design_ranks_by_signal(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 8)))
        y = 2.0 * Q[:, 3] + 0.5 * Q[:, 7]
        order, sigma_sq, _ = order_one(Q, y, 3)
        assert order[:2] == [3, 7]
        assert sigma_sq[1] == pytest.approx(0.0, abs=1e-20)

    def test_single_candidate(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((10, 1))
        order, _, _ = order_one(W, rng.standard_normal(10), 1)
        assert order == [0]

    def test_matches_refit_oracle(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((40, 8))
        y = rng.standard_normal(40)
        order, _, _ = order_one(W, y, 8)
        assert order == refit_greedy_oracle(W, y, 8)

    def test_matches_refit_oracle_with_base(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((30, 6)) + 1.5
        y = rng.standard_normal(30) + 0.7
        order, _, _ = order_one(W, y, 6, intercept=True)
        assert order == refit_greedy_oracle(W, y, 6, base=np.ones((30, 1)))

    def test_sigma_path_nonincreasing(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        _, sigma_sq, _ = order_one(W, y, 10)
        diffs = np.diff(sigma_sq)
        assert np.all(diffs <= 1e-12)

    def test_spanned_columns_skipped(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        W = np.column_stack([a, 2.0 * a, b])  # column 1 spanned once 0 enters
        y = 3.0 * a + b + 0.01 * rng.standard_normal(20)
        order, _, _ = order_one(W, y, 3)
        assert len(order) == 2
        assert set(order) == {0, 2}

    def test_zero_norm_column_is_never_picked(self):
        # a zero column is inside every span, the empty one included
        W = np.column_stack([np.zeros(10), np.arange(10.0) ** 2, np.zeros(10)])
        for intercept in (False, True):
            order, _, Q = order_one(W, np.arange(10.0), 3, intercept=intercept)
            assert order == [1]
            assert Q.shape == (10, 1 + intercept)
            with pytest.raises(AllColumnsDegenerate):
                order_one(np.zeros((10, 2)), np.arange(10.0), 2, intercept=intercept)

    def test_all_degenerate_first_step(self):
        W = np.column_stack([np.ones(10), 2.0 * np.ones(10)])
        with pytest.raises(AllColumnsDegenerate):
            order_one(W, np.arange(10.0), 2, intercept=True)

    def test_intercept_column_is_written_down(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((25, 4)) + 2.0
        y = rng.standard_normal(25) + 1.0
        order, sigma_sq, Q = order_one(W, y, 4, intercept=True)
        assert np.all(Q[:, 0] == 1.0 / math.sqrt(25))
        X = np.column_stack([np.ones(25), W[:, order]])
        rss = [ols_fit(X[:, : m + 2], y).rss for m in range(len(order))]
        np.testing.assert_allclose(np.array(sigma_sq) * 25, rss, rtol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_ordering_invariant_to_column_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        order, _, _ = order_one(W, y, 6)
        W2 = W.copy()
        W2[:, 2] *= scale
        order2, _, _ = order_one(W2, y, 6)
        assert order == order2


    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scales=st.lists(st.floats(-12.0, 12.0), min_size=7, max_size=7),
        with_base=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ordering_invariant_to_positive_scaling_of_every_column(
        self, seed, log_scales, with_base
    ):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((30, 7)) + with_base
        y = rng.standard_normal(30)
        order, _, _ = order_one(W, y, 7, intercept=with_base)
        scaled, _, _ = order_one(W * 10.0 ** np.array(log_scales), y, 7,
                                 intercept=with_base)
        assert scaled == order
        assert order == oga_order_one_path(W, y, 7, with_base)[0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 12),
        data=st.data(),
        with_base=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_duplicate_goes_to_the_lower_index_at_any_alignment(
        self, seed, p, data, with_base
    ):
        rng = np.random.default_rng(seed)
        T = 40
        W = rng.standard_normal((T, p)) + with_base
        k = data.draw(st.integers(0, p - 1), label="duplicated column")
        d = data.draw(st.integers(k + 1, p), label="position of the copy")
        W = np.insert(W, d, W[:, k], axis=1)
        y = 3.0 * W[:, k] + rng.standard_normal(T)
        # same values, but one float64 off the allocator's alignment
        buffer = np.empty(W.size + 1)
        shifted = buffer[1:].reshape(W.shape)
        shifted[...] = W
        order, sigma_sq, _ = order_one(W, y, p + 1, intercept=with_base)
        order2, sigma_sq2, _ = order_one(shifted, y, p + 1, intercept=with_base)
        assert order2 == order
        assert sigma_sq2 == sigma_sq
        assert k in order and d not in order
        # the downdated scores W'r pick what a fresh W'r per step picks
        want, want_sigma_sq, _ = oga_order_one_path(W, y, p + 1, with_base)
        assert order == want
        np.testing.assert_allclose(sigma_sq, want_sigma_sq, rtol=1e-12)


def assert_same_span_basis(Q, W, order, intercept):
    """Q is orthonormal and spans [1, W[:, order]] (the 1 only with an
    intercept) on Q's rows."""
    n = Q.shape[0]
    X = W[:n, order]
    if intercept:
        X = np.column_stack([np.ones(n), X])
    assert Q.shape == X.shape
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)
    np.testing.assert_allclose(Q @ (Q.T @ X), X, atol=1e-9 * max(1.0, np.abs(X).max()))
    coef = np.linalg.lstsq(X, Q, rcond=None)[0]
    np.testing.assert_allclose(X @ coef, Q, atol=1e-9)


def padded_basis(Q, width, T):
    """The basis in one path's slot Q of a lockstep basis array, as columns:
    its first width rows on its first T columns, which are all that is
    nonzero."""
    assert not Q[width:].any() and not Q[:, T:].any()
    return Q[:width, :T].T


class TestLockstep:
    """A 2-D y runs one greedy path per column in lockstep on one design;
    each path equals the one-path oracle run on its own rows."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(14, 40),
        p=st.integers(1, 8),
        k=st.integers(1, 5),
        intercept=st.booleans(),
        failing=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_independent_one_path_runs(
        self, seed, n, p, k, intercept, failing, data
    ):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n, p)) + intercept * rng.uniform(-1, 1, p)
        dup = data.draw(st.integers(0, p - 1), label="duplicated column")
        late = rng.standard_normal(n)
        late[: data.draw(st.integers(2, n // 2), label="zero prefix")] = 0.0
        # an exact duplicate (the tie goes to the lower index), a zero
        # column, and a column that is zero on a short prefix
        W = np.column_stack([W, W[:, dup], np.zeros(n), late])
        Y = W[:, :p] @ rng.standard_normal((p, k)) + rng.standard_normal((n, k))
        rows = [data.draw(st.integers(12, n), label="rows") for _ in range(k)]
        steps = [
            data.draw(st.integers(1, min(W.shape[1], T - 2 - intercept)), label="M")
            for T in rows
        ]
        if failing:
            # every column is zero on the first rows: a path on those rows
            # has no admissible column, the others must not notice
            z = data.draw(st.integers(1, 4), label="rows of the failing path")
            W[:z] = 0.0
            at = data.draw(st.integers(0, k), label="position of the failing path")
            Y = np.insert(Y, at, rng.standard_normal(n), axis=1)
            rows.insert(at, z)
            steps.insert(at, data.draw(st.integers(1, W.shape[1])))
        picks, sigma_sq, Q, length = oga_order(W, Y, steps, intercept=intercept,
                                               rows=rows)
        assert len(length) == len(rows)
        kept = []
        for i, (T, M) in enumerate(zip(rows, steps)):
            m = length[i]
            # past its end a path's variances are +inf and its basis rows zero
            assert np.all(sigma_sq[i, m:] == np.inf)
            basis = padded_basis(Q[i], intercept + m, T)
            try:
                want = oga_order_one_path(W[:T], Y[:T, i], M, intercept)
            except AllColumnsDegenerate:
                assert m == 0  # every budget here is positive
                continue
            kept.append(i)
            assert picks[i, :m].tolist() == want[0] and m > 0
            np.testing.assert_allclose(sigma_sq[i, :m], want[1], rtol=1e-12)
            assert_same_span_basis(basis, W, want[0], intercept)
        if failing:
            a_picks, a_sigma_sq, _, a_length = oga_order(
                W, Y[:, kept], [steps[i] for i in kept], intercept=intercept,
                rows=[rows[i] for i in kept])
            for a, i in enumerate(kept):
                m = length[i]
                assert a_length[a] == m
                assert a_picks[a, :m].tolist() == picks[i, :m].tolist()
                np.testing.assert_allclose(a_sigma_sq[a, :m], sigma_sq[i, :m],
                                           rtol=1e-12)

    def test_a_batch_of_one_is_the_one_path_oracle(self):
        rng = np.random.default_rng(16)
        W = rng.standard_normal((30, 6))
        y = W[:, 1] - W[:, 4] + rng.standard_normal(30)
        picks, sigma_sq, Q, [m] = oga_order(W, y[:, None], [4], intercept=True)
        want = oga_order_one_path(W, y, 4, intercept=True)
        order = picks[0, :m].tolist()
        assert order == want[0] == refit_greedy_oracle(W, y, 4, base=np.ones((30, 1)))
        np.testing.assert_allclose(sigma_sq[0, :m], want[1], rtol=1e-12)
        assert np.all(sigma_sq[0, m:] == np.inf)
        assert_same_span_basis(padded_basis(Q[0], 1 + m, 30), W, order, True)
        *_, [failed] = oga_order(np.zeros((30, 2)), y[:, None], 2)
        assert failed == 0
        with pytest.raises(AllColumnsDegenerate):
            oga_order_one_path(np.zeros((30, 2)), y, 2)
        # an empty batch is empty arrays
        for empty in oga_order(W, np.empty((30, 0)), [], intercept=True):
            assert len(empty) == 0
        with pytest.raises(DimensionMismatch):  # one series is y[:, None]
            oga_order(W, y, 4)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        intercept=st.booleans(),
        tuned=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_selection_and_tuning_match_one_column_calls(
        self, seed, k, intercept, tuned, data
    ):
        rng = np.random.default_rng(seed)
        n, p = 80, 12
        W = rng.standard_normal((n, p)) + intercept
        W[:5] = 0.0  # a 5-row path has no admissible column
        Y = W[:, :4] @ rng.standard_normal((4, k)) + rng.standard_normal((n, k))
        rows = [data.draw(st.integers(20, n), label="rows") for _ in range(k)]
        Y, rows = np.column_stack([Y, rng.standard_normal(n)]), rows + [5]
        cfg = OgaConfig(c_star=(0.5, 2.0, 8.0) if tuned else 2.0)
        paths, Q = oga_hdaic_select(W, Y, cfg, intercept, rows)
        c_stars = select_c_star(W, Y, (0.5, 2.0, 8.0), cfg, intercept, rows)
        assert isinstance(paths[-1], AllColumnsDegenerate)
        assert isinstance(c_stars[-1], AllColumnsDegenerate)
        for i, T in enumerate(rows[:-1]):
            # the basis rows past the chosen set are zero
            assert_same_span_basis(padded_basis(Q[i], intercept + paths[i].chosen_m, T),
                                   W, list(paths[i].chosen_set), intercept)
            alone = select_one(W[:T], Y[:T, i], cfg, intercept)
            assert paths[i].chosen_set == alone.chosen_set
            assert paths[i].c_star_used == alone.c_star_used
            np.testing.assert_allclose(paths[i].sigma_sq_path, alone.sigma_sq_path,
                                       rtol=1e-12)
            assert c_stars[i] == one(select_c_star(W[:T], Y[:T, i : i + 1],
                                                   (0.5, 2.0, 8.0), cfg, intercept))


class TestHdaic:
    def test_perfect_fit(self):
        assert hdaic(0.0, 3, 10, 100, 2.0) == 0.0

    def test_empty_penalty(self):
        assert hdaic(1.7, 0, 10, 100, 2.0) == pytest.approx(1.7)

    def test_arithmetic(self):
        # sigma=1, m=2, log p = 1, T=4, c=2 -> (1 + 2*2*1/4) * 1 = 2
        assert hdaic(1.0, 2, math.e, 4, 2.0) == pytest.approx(2.0)


class TestHdaicCurves:
    """The one-pass criterion curves equal the scalar hdaic bit for bit, so
    the cuts and the tuned c_star cannot move by rounding."""

    @given(
        paths=st.lists(
            st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12),
            min_size=1, max_size=5,
        ),
        p=st.integers(1, 5000),
        T=st.lists(st.integers(2, 10_000), min_size=5, max_size=5),
        c=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_the_scalar_bit_for_bit(self, paths, p, T, c):
        T = T[: len(paths)]
        padded = np.full((len(paths), max(map(len, paths))), np.inf)
        for row, path in zip(padded, paths):
            row[: len(path)] = path
        curves = _hdaic_curves(padded, p, T, np.tile(np.array(c), (len(paths), 1)))
        for path, rows, per_path in zip(paths, T, curves):
            for c_star, curve in zip(c, per_path):
                want = [hdaic(s, m, p, rows, c_star) for m, s in enumerate(path, 1)]
                assert curve[: len(path)].tolist() == want
                assert np.all(curve[len(path):] == np.inf)
                assert select_hdaic(path, p, rows, c_star) == int(np.argmin(want)) + 1

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        intercept=st.booleans(),
        c_star=st.one_of(st.floats(0.05, 20.0),
                         st.just((0.5, 1.6, 2.4, 8.0))),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_paths_carry_the_scalar_curve(self, seed, k, intercept,
                                                    c_star, data):
        rng = np.random.default_rng(seed)
        n, p = 60, 10
        W = rng.standard_normal((n, p)) + intercept
        Y = W[:, :3] @ rng.standard_normal((3, k)) + rng.standard_normal((n, k))
        rows = [data.draw(st.integers(10, n), label="rows") for _ in range(k)]
        paths, _ = oga_hdaic_select(W, Y, OgaConfig(c_star=c_star), intercept, rows)
        for path, T in zip(paths, rows):
            want = [hdaic(s, m, p, T, path.c_star_used)
                    for m, s in enumerate(path.sigma_sq_path, 1)]
            assert list(path.hdaic_path) == want
            assert path.chosen_m == int(np.argmin(want)) + 1


class TestSelectHdaic:
    def test_decreasing_curve_picks_last(self):
        path = [1.0, 0.5, 0.2, 0.05]
        assert select_hdaic(path, p=2, T=10_000, c_star=1e-9) == 4

    def test_increasing_curve_picks_first(self):
        # flat variances: penalty makes the criterion strictly increasing
        assert select_hdaic([1.0, 1.0, 1.0], p=50, T=20, c_star=2.0) == 1

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            path = np.sort(rng.uniform(0.1, 2.0, size=rng.integers(1, 12)))[::-1]
            p, T, c = int(rng.integers(2, 200)), int(rng.integers(20, 500)), 2.0
            values = [hdaic(s, m, p, T, c) for m, s in enumerate(path, 1)]
            assert select_hdaic(path, p, T, c) == int(np.argmin(values)) + 1


class TestOgaHdaicSelect:
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 12),
        n_dup=st.integers(0, 2),
        with_base=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_basis_is_orthonormal_over_base_and_chosen_set(
        self, seed, p, n_dup, with_base
    ):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((40, p)) + with_base
        W = np.column_stack([W] + [2.0 * W[:, k % p] for k in range(n_dup)])
        y = W[:, 0] - W[:, -1] + rng.standard_normal(40)
        [path], Q = oga_hdaic_select(W, y[:, None], OgaConfig(c_star=2.0), with_base)
        Q = padded_basis(Q[0], with_base + path.chosen_m, 40)
        assert Q.shape == (40, with_base + path.chosen_m)
        np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)
        X = W[:, list(path.chosen_set)]
        if with_base:
            X = np.column_stack([np.ones(40), X])
        # same span: each side is reproduced by projecting on the other
        np.testing.assert_allclose(Q @ (Q.T @ X), X, atol=1e-9)
        coef = np.linalg.lstsq(X, Q, rcond=None)[0]
        np.testing.assert_allclose(X @ coef, Q, atol=1e-9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 60),
        p=st.integers(1, 8),
        intercept=st.booleans(),
        tuned=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_batch_of_one_is_the_one_path_oracle(self, seed, n, p, intercept, tuned):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n, p)) + intercept * rng.uniform(-1, 1, p)
        y = W[:, 0] - 0.5 * W[:, -1] + rng.standard_normal(n)
        candidates = (0.5, 2.0, 8.0)
        cfg = OgaConfig(c_star=candidates if tuned else 2.0)
        [path], Q = oga_hdaic_select(W, y[:, None], cfg, intercept)
        order, sigma_sq, _ = oga_order_one_path(W, y, max_steps(n, p, cfg), intercept)
        c_star = 2.0
        if tuned:
            n_train = min(max(int((1.0 - cfg.eval_fraction) * n), 2), n - 1)
            train = oga_order_one_path(W[:n_train], y[:n_train],
                                       max_steps(n_train, p, cfg), intercept)
            c_star = holdout_c_star_one_path(W, y, n_train, train, candidates, intercept)
        assert path.ordered_indices == tuple(order)
        np.testing.assert_allclose(path.sigma_sq_path, sigma_sq, rtol=1e-12)
        assert path.c_star_used == c_star
        assert path.chosen_m == select_hdaic(sigma_sq, p, n, c_star)
        assert_same_span_basis(padded_basis(Q[0], intercept + path.chosen_m, n), W,
                               list(path.chosen_set), intercept)

    def test_exact_single_column(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
        y = Q[:, 5].copy()
        path = select_one(Q, y, OgaConfig(c_star=2.0))
        assert path.chosen_set == (5,)
        assert path.chosen_m == 1

    def test_pure_noise_selects_one(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((1000, 2))
        y = rng.standard_normal(1000)
        path = select_one(W, y, OgaConfig(c_star=2.0))
        assert path.chosen_m == 1
        # the selected model explains essentially nothing
        assert path.sigma_sq_path[0] >= 0.99 * np.var(y)

    def test_chosen_m_bounded_by_max_steps(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((60, 30))
        y = W @ rng.standard_normal(30) + rng.standard_normal(60)
        cfg = OgaConfig(c_star=2.0)
        path = select_one(W, y, cfg)
        assert path.chosen_m <= max_steps(60, 30, cfg)
        assert path.chosen_set == path.ordered_indices[: path.chosen_m]

    def test_records_tuned_c_star(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((100, 5))
        y = W[:, 0] + 0.1 * rng.standard_normal(100)
        path = select_one(W, y, OgaConfig(c_star=None))
        assert path.c_star_used in DEFAULT_C_STAR_CANDIDATES


class TestSelectCStar:
    def test_single_candidate(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        assert select_c_star(W, y[:, None], (2.0,)) == [2.0]

    def test_tie_goes_to_smaller(self):
        # strong single signal: every candidate selects the same model
        rng = np.random.default_rng(14)
        W = rng.standard_normal((200, 4))
        y = 5.0 * W[:, 2] + 0.01 * rng.standard_normal(200)
        assert select_c_star(W, y[:, None], (1.6, 2.4)) == [1.6]

    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(20, 90),
        p=st.integers(1, 12),
        candidates=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=6,
                            unique=True),
        eval_fraction=st.sampled_from((0.1, 0.2, 0.3)),
        intercept=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_evaluation(self, seed, T, p, candidates,
                                           eval_fraction, intercept):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((T, p)) + intercept * rng.uniform(-1, 1, p)
        y = W[:, 0] - 0.5 * W[:, -1] + rng.standard_normal(T)
        cfg = OgaConfig(eval_fraction=eval_fraction)
        [chosen] = select_c_star(W, y[:, None], candidates, config=cfg,
                                 intercept=intercept)
        # oracle: a full selection per candidate on the training rows, then
        # the holdout error of its fit; argmin with ties to the smaller
        n_train = min(max(int((1.0 - eval_fraction) * T), 2), T - 1)
        fixed = [np.ones((T, 1))] if intercept else []
        mspes = {}
        for c in candidates:
            path = select_one(W[:n_train], y[:n_train], OgaConfig(c_star=c),
                              intercept)
            cols = list(path.chosen_set)
            X = np.column_stack([W[:, cols]] + fixed)
            fit = ols_fit(X[:n_train], y[:n_train])
            err = y[n_train:] - X[n_train:] @ fit.coefficients
            mspes[c] = float(err @ err) / err.shape[0]
        assert chosen == min(sorted(candidates), key=lambda c: mspes[c])

    def test_no_qr_when_tuned(self, monkeypatch):
        # tuning reads every holdout fit off the training path's basis, and
        # both paths start from the written-down intercept column
        calls = []
        qr = scipy.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counted)
        rng = np.random.default_rng(15)
        T, p = 120, 20
        W = rng.standard_normal((T, p))
        y = W[:, :6] @ np.linspace(1.0, 0.1, 6) + rng.standard_normal(T)
        candidates = (0.2, 0.5, 1.0, 1.6, 1.8, 2.0, 2.2, 2.4, 8.0, 30.0)
        n_train = int(0.8 * T)
        _, sigma_sq, _ = order_one(W[:n_train], y[:n_train],
                                   max_steps(n_train, p, OgaConfig()),
                                   intercept=True)
        path = select_one(W, y, OgaConfig(c_star=candidates), intercept=True)
        assert path.c_star_used in candidates
        # several candidates with distinct cuts, so the curve has many points
        assert len({select_hdaic(sigma_sq, p, n_train, c) for c in candidates}) > 1
        assert calls == []


class TestBatchedTuning:
    """Every column is tuned in one pass over stacked arrays; each column's
    c_star equals the one-path holdout oracle run on its own rows."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 40),
        p=st.integers(1, 6),
        k=st.integers(1, 5),
        intercept=st.booleans(),
        failing=st.booleans(),
        candidates=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=6,
                            unique=True),
        eval_fraction=st.sampled_from((0.1, 0.2, 0.3)),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_one_path_oracle(self, seed, n, p, k, intercept, failing,
                                         candidates, eval_fraction, data):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n, p)) + intercept * rng.uniform(-1, 1, p)
        dup = data.draw(st.integers(0, p - 1), label="duplicated column")
        # a duplicate and a zero column are never picked, so a path stops
        # short of its budget on a small pool, and budgets grow with rows
        W = np.column_stack([W, W[:, dup], np.zeros(n)])
        Y = W[:, :p] @ rng.standard_normal((p, k)) + rng.standard_normal((n, k))
        rows = [data.draw(st.integers(2, n), label="rows") for _ in range(k)]
        if failing:
            # every column is zero on the first rows: the training path on
            # those rows has no admissible column
            z = data.draw(st.integers(3, 6), label="rows of the failing path")
            W[: z - 1] = 0.0
            at = data.draw(st.integers(0, k), label="position of the failing path")
            Y = np.insert(Y, at, rng.standard_normal(n), axis=1)
            rows.insert(at, z)
        cfg = OgaConfig(c_star=tuple(candidates), eval_fraction=eval_fraction)
        got = select_c_star(W, Y, candidates, cfg, intercept, rows)
        selected, _ = oga_hdaic_select(W, Y, cfg, intercept, rows)
        assert len(got) == len(selected) == len(rows)
        for i, T in enumerate(rows):
            n_train = min(max(int((1.0 - eval_fraction) * T), 2), T - 1)
            if n_train < 2:
                assert isinstance(got[i], InsufficientSample)
                assert isinstance(selected[i], InsufficientSample)
                continue
            try:
                path = oga_order_one_path(W[:n_train], Y[:n_train, i],
                                          max_steps(n_train, W.shape[1], cfg),
                                          intercept)
            except AllColumnsDegenerate:
                assert isinstance(got[i], AllColumnsDegenerate)
                assert isinstance(selected[i], AllColumnsDegenerate)
                continue
            want = holdout_c_star_one_path(W[:T], Y[:T, i], n_train, path,
                                           candidates, intercept)
            assert got[i] == want
            if not isinstance(selected[i], AllColumnsDegenerate):
                assert selected[i].c_star_used == want

    @pytest.mark.parametrize("intercept", [False, True])
    def test_a_nearly_spanned_pick_tunes_like_the_one_path_oracle(self, intercept):
        # column 6 is column 0 plus 1e-6 of a direction e that y loads on
        # heavily, so every training path picks both, the later one with a
        # pivot about 1e-6 of its norm, and the holdout error of every cut
        # past it hangs on dividing by that pivot
        rng = np.random.default_rng(24)
        n = 60
        W = rng.standard_normal((n, 6)) + intercept
        a, e = W[:, 0], rng.standard_normal(n)
        e -= a * (a @ e) / (a @ a)
        e *= np.linalg.norm(a) / np.linalg.norm(e)
        W = np.column_stack([W, a + 1e-6 * e])
        Y = W[:, :3] @ rng.standard_normal((3, 3)) + rng.standard_normal((n, 3))
        Y += np.outer(e, [5.0, 8.0, 6.0]) / np.sqrt(n)
        candidates = (0.2, 1.0, 4.0, 16.0, 64.0)
        cfg = OgaConfig(c_star=candidates)
        n_train = int(0.8 * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = select_c_star(W, Y, candidates, cfg, intercept)
            selected, _ = oga_hdaic_select(W, Y, cfg, intercept)
        for i in range(Y.shape[1]):
            path = oga_order_one_path(W[:n_train], Y[:n_train, i],
                                      max_steps(n_train, W.shape[1], cfg), intercept)
            order, _, Q = path
            later = max(order.index(0), order.index(6))  # the nearly spanned pick
            x = W[:n_train, order[later]]
            pivot = Q[:, int(intercept) + later] @ x
            assert 1e-7 < abs(pivot) / np.linalg.norm(x) < 1e-5
            want = holdout_c_star_one_path(W, Y[:, i], n_train, path, candidates,
                                           intercept)
            assert got[i] == want == selected[i].c_star_used

    def test_a_single_training_row_is_insufficient_sample(self):
        rng = np.random.default_rng(22)
        W = rng.standard_normal((30, 4))
        Y = W[:, :2] @ rng.standard_normal((2, 2)) + rng.standard_normal((30, 2))
        cfg = OgaConfig(c_star=None)
        # two rows leave one to train on and one to hold out
        with pytest.raises(InsufficientSample):
            select_one(W[:2], Y[:2, 0], cfg)
        [short] = select_c_star(W[:2], Y[:2, :1], DEFAULT_C_STAR_CANDIDATES, cfg)
        assert isinstance(short, InsufficientSample)
        (tiny, whole), _ = oga_hdaic_select(W, Y, cfg, rows=[2, 30])
        assert isinstance(tiny, InsufficientSample)
        alone = select_one(W, Y[:, 1], cfg)
        assert whole.chosen_set == alone.chosen_set
        assert whole.c_star_used == alone.c_star_used
        # a fixed c_star needs no holdout, so two rows still select
        assert select_one(W[:2], Y[:2, 0], OgaConfig(c_star=2.0)).chosen_m == 1

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("c_star", [2.0, None])
    def test_a_one_row_column_fails_only_its_slot(self, c_star, intercept):
        rng = np.random.default_rng(23)
        W = rng.standard_normal((30, 5)) + intercept
        Y = W[:, :2] @ rng.standard_normal((2, 2)) + rng.standard_normal((30, 2))
        cfg = OgaConfig(c_star=c_star)
        for rows in ([1, 30], [30, 1]):
            paths, _ = oga_hdaic_select(W, Y, cfg, intercept, rows)
            short = rows.index(1)
            assert isinstance(paths[short], InsufficientSample)
            [alone], _ = oga_hdaic_select(W, Y[:, 1 - short : 2 - short], cfg,
                                          intercept)
            whole = paths[1 - short]
            assert whole.chosen_set == alone.chosen_set
            assert whole.c_star_used == alone.c_star_used
            np.testing.assert_allclose(whole.sigma_sq_path, alone.sigma_sq_path,
                                       rtol=1e-12)
        # an empty batch selects nothing
        paths, Q = oga_hdaic_select(W, Y[:, :0], cfg, intercept)
        assert paths == [] and len(Q) == 0
