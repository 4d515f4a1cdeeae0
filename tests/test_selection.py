import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdlp.selection
from hdlp.errors import AllColumnsDegenerate, ZeroNormColumn
from hdlp.linalg import ols_fit
from hdlp.selection import (
    OgaConfig,
    hdaic,
    max_steps,
    oga_hdaic_select,
    oga_order,
    select_c_star,
    select_hdaic,
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


class TestOgaOrder:
    def test_orthogonal_design_ranks_by_signal(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 8)))
        y = 2.0 * Q[:, 3] + 0.5 * Q[:, 7]
        order, sigma_sq, _ = oga_order(Q, y, 3)
        assert order[:2] == [3, 7]
        assert sigma_sq[1] == pytest.approx(0.0, abs=1e-20)

    def test_single_candidate(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((10, 1))
        order, _, _ = oga_order(W, rng.standard_normal(10), 1)
        assert order == [0]

    def test_matches_refit_oracle(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((40, 8))
        y = rng.standard_normal(40)
        order, _, _ = oga_order(W, y, 8)
        assert order == refit_greedy_oracle(W, y, 8)

    def test_matches_refit_oracle_with_base(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((30, 6)) + 1.5
        y = rng.standard_normal(30) + 0.7
        base = np.ones((30, 1))
        order, _, _ = oga_order(W, y, 6, base=base)
        assert order == refit_greedy_oracle(W, y, 6, base=base)

    def test_sigma_path_nonincreasing(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((50, 10))
        y = rng.standard_normal(50)
        _, sigma_sq, _ = oga_order(W, y, 10)
        diffs = np.diff(sigma_sq)
        assert np.all(diffs <= 1e-12)

    def test_spanned_columns_skipped(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        W = np.column_stack([a, 2.0 * a, b])  # column 1 spanned once 0 enters
        y = 3.0 * a + b + 0.01 * rng.standard_normal(20)
        order, _, _ = oga_order(W, y, 3)
        assert len(order) == 2
        assert set(order) == {0, 2}

    def test_zero_norm_column_rejected(self):
        W = np.column_stack([np.ones(10), np.zeros(10)])
        with pytest.raises(ZeroNormColumn):
            oga_order(W, np.arange(10.0), 2)

    def test_all_degenerate_first_step(self):
        W = np.column_stack([np.ones(10), 2.0 * np.ones(10)])
        base = np.ones((10, 1))
        with pytest.raises(AllColumnsDegenerate):
            oga_order(W, np.arange(10.0), 2, base=base)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_ordering_invariant_to_column_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        order, _, _ = oga_order(W, y, 6)
        W2 = W.copy()
        W2[:, 2] *= scale
        order2, _, _ = oga_order(W2, y, 6)
        assert order == order2


    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scales=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
        with_base=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ordering_invariant_to_positive_scaling_of_every_column(
        self, seed, log_scales, with_base
    ):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((30, 7)) + with_base
        y = rng.standard_normal(30)
        base = np.ones((30, 1)) if with_base else None
        order, _, _ = oga_order(W, y, 7, base=base)
        scaled, _, _ = oga_order(W * 10.0 ** np.array(log_scales), y, 7, base=base)
        assert scaled == order


class TestHdaic:
    def test_perfect_fit(self):
        assert hdaic(0.0, 3, 10, 100, 2.0) == 0.0

    def test_empty_penalty(self):
        assert hdaic(1.7, 0, 10, 100, 2.0) == pytest.approx(1.7)

    def test_arithmetic(self):
        # sigma=1, m=2, log p = 1, T=4, c=2 -> (1 + 2*2*1/4) * 1 = 2
        assert hdaic(1.0, 2, math.e, 4, 2.0) == pytest.approx(2.0)


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
        base = np.ones((40, 1)) if with_base else None
        path = oga_hdaic_select(W, y, OgaConfig(c_star=2.0), base=base)
        Q = path.basis
        assert Q.shape == (40, with_base + path.chosen_m)
        np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)
        X = W[:, list(path.chosen_set)]
        if with_base:
            X = np.column_stack([base, X])
        # same span: each side is reproduced by projecting on the other
        np.testing.assert_allclose(Q @ (Q.T @ X), X, atol=1e-9)
        coef = np.linalg.lstsq(X, Q, rcond=None)[0]
        np.testing.assert_allclose(X @ coef, Q, atol=1e-9)

    def test_exact_single_column(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
        y = Q[:, 5].copy()
        path = oga_hdaic_select(Q, y, OgaConfig(c_star=2.0))
        assert path.chosen_set == (5,)
        assert path.chosen_m == 1

    def test_pure_noise_selects_one(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((1000, 2))
        y = rng.standard_normal(1000)
        path = oga_hdaic_select(W, y, OgaConfig(c_star=2.0))
        assert path.chosen_m == 1
        # the selected model explains essentially nothing
        assert path.sigma_sq_path[0] >= 0.99 * np.var(y)

    def test_chosen_m_bounded_by_max_steps(self):
        rng = np.random.default_rng(11)
        W = rng.standard_normal((60, 30))
        y = W @ rng.standard_normal(30) + rng.standard_normal(60)
        cfg = OgaConfig(c_star=2.0)
        path = oga_hdaic_select(W, y, cfg)
        assert path.chosen_m <= max_steps(60, 30, cfg)
        assert path.chosen_set == path.ordered_indices[: path.chosen_m]

    def test_records_tuned_c_star(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((100, 5))
        y = W[:, 0] + 0.1 * rng.standard_normal(100)
        path = oga_hdaic_select(W, y, OgaConfig(c_star=None))
        assert path.c_star_used in OgaConfig().c_star_candidates


class TestSelectCStar:
    def test_single_candidate(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        assert select_c_star(W, y, (2.0,)) == 2.0

    def test_tie_goes_to_smaller(self):
        # strong single signal: every candidate selects the same model
        rng = np.random.default_rng(14)
        W = rng.standard_normal((200, 4))
        y = 5.0 * W[:, 2] + 0.01 * rng.standard_normal(200)
        assert select_c_star(W, y, (1.6, 2.4)) == 1.6

    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(20, 90),
        p=st.integers(1, 12),
        candidates=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=6,
                            unique=True),
        eval_fraction=st.sampled_from((0.1, 0.2, 0.3)),
        with_base=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_evaluation(self, seed, T, p, candidates,
                                           eval_fraction, with_base):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((T, p)) + with_base * rng.uniform(-1, 1, p)
        y = W[:, 0] - 0.5 * W[:, -1] + rng.standard_normal(T)
        base = np.ones((T, 1)) if with_base else None
        cfg = OgaConfig(eval_fraction=eval_fraction)
        chosen = select_c_star(W, y, candidates, eval_fraction=eval_fraction,
                               config=cfg, base=base)
        # oracle: a full selection per candidate on the training rows, then
        # the holdout error of its fit; argmin with ties to the smaller
        n_train = min(max(int((1.0 - eval_fraction) * T), 2), T - 1)
        fixed = [] if base is None else [base]
        mspes = {}
        for c in candidates:
            path = oga_hdaic_select(
                W[:n_train], y[:n_train], OgaConfig(c_star=c),
                base=None if base is None else base[:n_train],
            )
            cols = list(path.chosen_set)
            X = np.column_stack([W[:, cols]] + fixed)
            fit = ols_fit(X[:n_train], y[:n_train])
            err = y[n_train:] - X[n_train:] @ fit.coefficients
            mspes[c] = float(err @ err) / err.shape[0]
        assert chosen == min(sorted(candidates), key=lambda c: mspes[c])

    def test_one_holdout_fit_per_distinct_cut(self, monkeypatch):
        fits = []

        def counted(X, y):
            fits.append(X.shape[1])
            return ols_fit(X, y)

        monkeypatch.setattr(hdlp.selection, "ols_fit", counted)
        rng = np.random.default_rng(15)
        T, p = 120, 20
        W = rng.standard_normal((T, p))
        y = W[:, :6] @ np.linspace(1.0, 0.1, 6) + rng.standard_normal(T)
        candidates = (0.2, 0.5, 1.0, 1.6, 1.8, 2.0, 2.2, 2.4, 8.0, 30.0)
        cfg = OgaConfig()
        select_c_star(W, y, candidates, config=cfg)
        n_train = int(0.8 * T)
        _, sigma_sq, _ = oga_order(W[:n_train], y[:n_train], max_steps(n_train, p, cfg))
        cuts = {select_hdaic(sigma_sq, p, n_train, c) for c in candidates}
        assert 1 < len(cuts) < len(candidates)
        assert sorted(fits) == sorted(cuts)
