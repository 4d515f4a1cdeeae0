import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hdlp
import hdlp.lp
import hdlp.lpdid
from hdlp.dgp import (
    Section3Design,
    build_section3_coefficients,
    section3_lp_spec,
    simulate_var,
)
from hdlp.errors import (
    DegenerateShock,
    DimensionMismatch,
    HdlpError,
    InsufficientSample,
    UnknownColumn,
)
from hdlp.linalg import SPAN_RTOL, complement
from hdlp.hac import HacConfig, cluster_omega
from hdlp.lp import (
    CONVENTIONAL_LP,
    DOUBLE_OGA,
    METHODS,
    LpDataset,
    LpSpec,
    TimeSeriesMatrix,
    _fit,
    _unwrap,
    build_lp_dataset,
    conventional_lp,
    double_oga_lp,
    estimate_irf,
)
from hdlp.lpdid import LpDidSpec, PanelDataset, lpdid_estimate
from hdlp.selection import TIE_RTOL, OgaConfig, _train_rows, max_steps
from reference import newey_west_one, ols_fit, orthonormal_columns, project_out

FULL_SELECTION = OgaConfig(c_star=1e-12, mbar_scale=1e9)


def make_data(rng, T, n, names=None):
    names = names or tuple(f"y{i + 1}" for i in range(n))
    return TimeSeriesMatrix(values=rng.standard_normal((T, n)), columns=names)


def ar1_series(rng, T, rho):
    y = np.zeros(T)
    e = rng.standard_normal(T)
    for t in range(1, T):
        y[t] = rho * y[t - 1] + e[t]
    return y


def per_column_lp_dataset(data, spec, h):
    """Reference: the dataset built one (lag, series) column at a time."""
    depth = spec.lag_depth
    eff = data.n_rows - h - depth
    t = np.arange(depth, data.n_rows - h)
    vals = data.values
    cols, cmap = [], []  # the candidates; the intercept is a flag, not a column
    for name in spec.contemporaneous:
        cols.append(vals[t, data.index(name)])
        cmap.append((name, 0))
    for ell in range(1, depth + 1):
        for name in spec.lagged:
            cols.append(vals[t - ell, data.index(name)])
            cmap.append((name, ell))
    W = np.column_stack(cols) if cols else np.zeros((eff, 0))
    y = vals[t + h, data.index(spec.response)]
    x = vals[t, data.index(spec.shock)]
    return y, x, W, tuple(cmap)


class TestBuildLpDataset:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_series=st.integers(2, 5),
        lags=st.integers(0, 3),
        lag_augment=st.integers(0, 2),
        contemp_mask=st.lists(st.booleans(), min_size=5, max_size=5),
        lagged_mask=st.lists(st.booleans(), min_size=5, max_size=5),
        include_intercept=st.booleans(),
        horizons=st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_column_reference_and_is_a_row_prefix(
        self, seed, n_series, lags, lag_augment, contemp_mask, lagged_mask,
        include_intercept, horizons,
    ):
        rng = np.random.default_rng(seed)
        data = make_data(rng, 30, n_series)
        names = data.columns
        spec = LpSpec(
            response=names[0], shock=names[1], horizons=horizons,
            contemporaneous=[c for c, m in zip(names[2:], contemp_mask) if m],
            lagged=[c for c, m in zip(names, lagged_mask) if m],
            lags=lags, lag_augment=lag_augment,
            include_intercept=include_intercept,
        )
        built = {}
        for h in sorted(horizons):
            ds = build_lp_dataset(data, spec, h)
            y, x, W, cmap = per_column_lp_dataset(data, spec, h)
            assert np.array_equal(ds.y, y) and np.array_equal(ds.x, x)
            assert ds.W.shape == W.shape and np.array_equal(ds.W, W)
            assert ds.W.flags["C_CONTIGUOUS"]
            assert ds.column_map == cmap and ds.intercept == include_intercept
            for h0, ds0 in built.items():
                assert np.array_equal(ds.W, ds0.W[: ds.effective_T])
                assert np.array_equal(ds.x, ds0.x[: ds.effective_T])
                view = build_lp_dataset(data, spec, h, anchor=ds0)
                assert np.shares_memory(view.x, ds0.x)
                for name in ("y", "x", "W"):
                    assert np.array_equal(getattr(view, name), getattr(ds, name))
                assert (view.horizon, view.effective_T, view.column_map,
                        view.intercept) == (h, ds.effective_T, cmap, include_intercept)
            built[h] = ds

    def test_effective_sample_counting(self):
        rng = np.random.default_rng(0)
        data = make_data(rng, 10, 1, names=("y",))
        spec = LpSpec(
            response="y", shock="y", horizons=(1,), lagged=("y",), lags=1
        )
        ds = build_lp_dataset(data, spec, 1)
        assert ds.effective_T == 8
        # one lag column; the intercept is a flag, not a column
        assert ds.W.shape == (8, 1)
        assert ds.column_map == (("y", 1),)
        assert ds.intercept

    def test_lag_depth_with_augmentation(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, 60, 2)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,),
            lagged=("y1", "y2"), lags=12, lag_augment=9,
        )
        ds = build_lp_dataset(data, spec, 1)
        depths = {lag for _, lag in ds.column_map if lag > 0}
        assert max(depths) == 21
        assert ds.effective_T == 60 - 1 - 21

    def test_alignment(self):
        rng = np.random.default_rng(2)
        data = make_data(rng, 30, 2)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(2,),
            contemporaneous=("y1",), lagged=("y1", "y2"), lags=3,
        )
        ds = build_lp_dataset(data, spec, 2)
        t = 3  # first usable row
        assert ds.y[0] == data.values[t + 2, 0]
        assert ds.x[0] == data.values[t, 1]
        assert ds.W[0, 0] == data.values[t, 0]  # contemporaneous y1
        # first lag block starts after contemporaneous columns
        assert ds.W[0, 1] == data.values[t - 1, 0]
        assert ds.W[0, 2] == data.values[t - 1, 1]

    def test_shift_determinism(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, 40, 2)
        shifted = TimeSeriesMatrix(values=data.values[1:], columns=data.columns)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,), lagged=("y1", "y2"), lags=2
        )
        full = build_lp_dataset(data, spec, 1)
        part = build_lp_dataset(shifted, spec, 1)
        assert np.array_equal(full.W[1:], part.W)
        assert np.array_equal(full.y[1:], part.y)

    def test_insufficient_sample(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, 12, 1, names=("y",))
        spec = LpSpec(response="y", shock="y", horizons=(3,), lagged=("y",), lags=2)
        with pytest.raises(InsufficientSample):
            build_lp_dataset(data, spec, 3)

    def test_unknown_column(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, 20, 1, names=("y",))
        spec = LpSpec(response="z", shock="y", horizons=(1,), lagged=("y",), lags=1)
        with pytest.raises(UnknownColumn):
            build_lp_dataset(data, spec, 1)

    def test_negative_horizon_is_named(self):
        data = make_data(np.random.default_rng(6), 20, 1, names=("y",))
        spec = LpSpec(response="y", shock="y", horizons=(1,), lagged=("y",), lags=1)
        with pytest.raises(ValueError, match="horizon must be a nonnegative integer, "
                                             "got -1"):
            build_lp_dataset(data, spec, -1)

    def test_hand_made_dataset_shapes_are_checked(self):
        rng = np.random.default_rng(27)
        x, W = rng.standard_normal(60), rng.standard_normal((60, 3))
        names = (("a", 0), ("b", 0), ("c", 0))
        kw = dict(x=x, W=W, horizon=0, intercept=True)
        with pytest.raises(DimensionMismatch, match="shapes"):
            LpDataset(y=rng.standard_normal(50), column_map=names, **kw)
        with pytest.raises(DimensionMismatch, match="1 column names for 3 columns"):
            LpDataset(y=x, column_map=names[:1], **kw)
        assert LpDataset(y=x, column_map=names, **kw).W is W


class TestSpecValidation:
    @pytest.mark.parametrize("make, kwargs, message", [
        (LpSpec, {"horizons": ()}, "horizons must be nonempty"),
        (LpSpec, {"horizons": (2, 1, 2)}, "horizons must be nonempty"),
        (LpSpec, {"horizons": (1, -1)}, "a horizon must be a nonnegative integer, "
                                         "got -1"),
        (LpSpec, {"horizons": (1.5, 2)}, "a horizon must be a nonnegative integer, "
                                         "got 1.5"),
        (LpSpec, {"horizons": ("1",)}, "a horizon must be a nonnegative integer, "
                                       "got '1'"),
        (LpSpec, {"lags": -1}, "lags must be a nonnegative integer, got -1"),
        (LpSpec, {"lags": 1.5}, "lags must be a nonnegative integer, got 1.5"),
        (LpSpec, {"lag_augment": 2.0},
         "lag_augment must be a nonnegative integer, got 2.0"),
        (LpSpec, {"contemporaneous": ("x",)}, "shock cannot also be"),
        (LpDidSpec, {"horizons": (0, 0.5)}, "a horizon must be a nonnegative integer"),
        (LpDidSpec, {"outcome_lags": -1},
         "outcome_lags must be a nonnegative integer, got -1"),
        (LpDidSpec, {"outcome_lags": 1.5},
         "outcome_lags must be a nonnegative integer, got 1.5"),
        (LpDidSpec, {"method": "lasso"}, "unknown method 'lasso'"),
    ])
    def test_malformed_spec_is_value_error(self, make, kwargs, message):
        base = {"response": "y", "shock": "x"} if make is LpSpec else {}
        with pytest.raises(ValueError, match=message):
            make(**{**base, "horizons": (1,), **kwargs})

    def test_numpy_integers_pass_as_ints(self):
        spec = LpSpec(response="y", shock="x", horizons=np.arange(3),
                      lags=np.int32(2), lag_augment=np.int64(1))
        did = LpDidSpec(horizons=(np.uint8(1),), outcome_lags=np.int16(2))
        for value in (*spec.horizons, spec.lags, spec.lag_augment, *did.horizons,
                      did.outcome_lags):
            assert type(value) is int
        assert (spec.horizons, spec.lag_depth, did.outcome_lags) == ((0, 1, 2), 3, 2)


class TestDoubleOgaLp:
    def test_full_union_equals_one_shot_ols(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            data = make_data(rng, 80, 3)
            spec = LpSpec(
                response="y1", shock="y2", horizons=(1,),
                contemporaneous=("y3",), lagged=("y1",), lags=1,
            )
            ds = build_lp_dataset(data, spec, 1)
            est = double_oga_lp(ds, FULL_SELECTION, HacConfig())
            assert est.union == tuple(range(ds.W.shape[1]))
            X = np.column_stack([ds.x, ds.W, np.ones(ds.effective_T)])
            beta_ols = np.linalg.lstsq(X, ds.y, rcond=None)[0][0]
            assert est.beta == pytest.approx(beta_ols, abs=1e-9)

    def test_known_coefficient_recovered(self):
        rng = np.random.default_rng(7)
        T = 500
        x = rng.standard_normal(T + 1)
        W_noise = rng.standard_normal((T + 1, 4))
        y = np.zeros(T + 1)
        y[1:] = 0.7 * x[:-1] + 0.3 * rng.standard_normal(T)
        data = TimeSeriesMatrix(
            values=np.column_stack([y, x, W_noise]),
            columns=("y", "x", "w1", "w2", "w3", "w4"),
        )
        spec = LpSpec(
            response="y", shock="x", horizons=(1,),
            contemporaneous=("w1", "w2", "w3", "w4"), lagged=("y", "x"), lags=1,
        )
        ds = build_lp_dataset(data, spec, 1)
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
        assert abs(est.beta - 0.7) < 4 * est.se

    def test_irrelevant_noise_controls_coverage(self):
        # y driven by lagged x alone; noise controls should rarely matter
        rng = np.random.default_rng(8)
        hits, sizes = 0, []
        n_reps = 200
        for _ in range(n_reps):
            T = 150
            x = rng.standard_normal(T + 1)
            W_noise = rng.standard_normal((T + 1, 5))
            y = np.zeros(T + 1)
            y[1:] = 0.8 * x[:-1] + 0.5 * rng.standard_normal(T)
            data = TimeSeriesMatrix(
                values=np.column_stack([y, x, W_noise]),
                columns=("y", "x", "w1", "w2", "w3", "w4", "w5"),
            )
            spec = LpSpec(
                response="y", shock="x", horizons=(1,),
                contemporaneous=("w1", "w2", "w3", "w4", "w5"),
                lagged=("y",), lags=1,
            )
            ds = build_lp_dataset(data, spec, 1)
            est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
            lo, hi = est.ci(0.95)
            hits += lo <= 0.8 <= hi
            sizes.append(len(est.union))
        assert hits / n_reps >= 0.90
        assert np.median(sizes) <= 3

    def test_frisch_waugh_identity(self):
        rng = np.random.default_rng(9)
        data = make_data(rng, 100, 4)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,),
            contemporaneous=("y3", "y4"), lagged=("y1", "y2"), lags=2,
        )
        ds = build_lp_dataset(data, spec, 1)
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
        controls = np.column_stack([ds.W[:, list(est.union)], np.ones(ds.effective_T)])
        y_t = project_out(controls, ds.y)
        x_t = project_out(controls, ds.x)
        beta_fw = float(x_t @ y_t) / float(x_t @ x_t)
        assert est.beta == pytest.approx(beta_fw, abs=1e-8)

    def test_variance_residuals_come_from_their_own_selections(self):
        # the shock loads on w1 and the response on w2 alone, so the union
        # is larger than either selected set
        rng = np.random.default_rng(20)
        T = 300
        w = rng.standard_normal((T + 1, 3))
        x = 0.9 * w[:, 0] + 0.5 * rng.standard_normal(T + 1)
        y = np.zeros(T + 1)
        y[1:] = 0.9 * w[:-1, 1] + 0.5 * rng.standard_normal(T)
        data = TimeSeriesMatrix(values=np.column_stack([y, x, w]),
                                columns=("y", "x", "w1", "w2", "w3"))
        spec = LpSpec(response="y", shock="x", horizons=(1,),
                      contemporaneous=("w1", "w2", "w3"))
        ds = build_lp_dataset(data, spec, 1)
        hac = HacConfig(psi_source="first_stage_e")
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), hac)
        assert est.selected_x == (0,) and est.selected_y == (1,)

        def resid(cols, target):
            return project_out(
                np.column_stack([ds.W[:, list(cols)], np.ones(ds.effective_T)]), target)

        v, e = resid(est.selected_x, ds.x), resid(est.selected_y, ds.y)
        np.testing.assert_allclose(est.residuals_v, v, atol=1e-12)
        assert est.tau_sq == pytest.approx(float(v @ v) / ds.effective_T, rel=1e-12)
        assert est.omega == pytest.approx(newey_west_one(v * e, est.bandwidth), rel=1e-9)
        x_u, y_u = resid(est.union, ds.x), resid(est.union, ds.y)
        beta = float(x_u @ y_u) / float(x_u @ x_u)
        np.testing.assert_allclose(est.residuals_u, y_u - beta * x_u, atol=1e-12)

    def test_ci_nesting(self):
        rng = np.random.default_rng(10)
        data = make_data(rng, 90, 3)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,), lagged=("y1", "y2", "y3"),
            lags=2,
        )
        ds = build_lp_dataset(data, spec, 1)
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
        lo68, hi68 = est.ci(0.68)
        lo90, hi90 = est.ci(0.90)
        lo95, hi95 = est.ci(0.95)
        assert lo95 <= lo90 <= lo68 <= hi68 <= hi90 <= hi95
        assert lo95 <= est.beta <= hi95

    def test_psi_source_switch(self):
        rng = np.random.default_rng(11)
        data = make_data(rng, 120, 3)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,), lagged=("y1", "y2", "y3"),
            lags=2,
        )
        ds = build_lp_dataset(data, spec, 1)
        final = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
        first = double_oga_lp(
            ds, OgaConfig(c_star=2.0), HacConfig(psi_source="first_stage_e")
        )
        assert final.beta == pytest.approx(first.beta)
        assert final.se != first.se  # different psi series


class TestConventionalLp:
    def test_matches_textbook_implementation(self):
        # independent reimplementation: plain formulas, no shared helpers
        rng = np.random.default_rng(12)
        data = make_data(rng, 120, 3)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(2,), lagged=("y1", "y2", "y3"),
            lags=2,
        )
        ds = build_lp_dataset(data, spec, 2)
        est = conventional_lp(ds, HacConfig(bandwidth=4, dof_correction=False))

        G = np.column_stack([ds.W, np.ones(ds.effective_T)])
        X = np.column_stack([ds.x, G])
        beta_all = np.linalg.solve(X.T @ X, X.T @ ds.y)
        u = ds.y - X @ beta_all
        gamma = np.linalg.solve(G.T @ G, G.T @ ds.x)
        v = ds.x - G @ gamma
        T = ds.effective_T
        tau_sq = float(v @ v) / T
        psi = v * u
        K = 4
        omega = float(psi @ psi) / T
        for ell in range(1, K):
            s = 0.0
            for t in range(ell, T):
                s += psi[t] * psi[t - ell]
            omega += 2.0 * (1.0 - ell / K) * s / (T - ell)
        sigma_sq = omega / tau_sq**2
        assert est.beta == pytest.approx(float(beta_all[0]), abs=1e-9)
        assert est.se == pytest.approx(np.sqrt(sigma_sq / T), rel=1e-9)

    def test_dof_correction_scales_variance(self):
        rng = np.random.default_rng(17)
        data = make_data(rng, 120, 3)
        spec = LpSpec(
            response="y1", shock="y2", horizons=(1,), lagged=("y1", "y2", "y3"),
            lags=2,
        )
        ds = build_lp_dataset(data, spec, 1)
        bare = conventional_lp(ds, HacConfig(bandwidth=4, dof_correction=False))
        adj = conventional_lp(ds, HacConfig(bandwidth=4))
        k = 2 + ds.W.shape[1]  # shock, intercept and all controls
        T = ds.effective_T
        assert adj.sigma_sq == pytest.approx(bare.sigma_sq * T / (T - k), rel=1e-12)
        assert adj.beta == bare.beta

    def test_empty_controls_is_simple_regression(self):
        rng = np.random.default_rng(13)
        data = make_data(rng, 50, 2, names=("y", "x"))
        spec = LpSpec(response="y", shock="x", horizons=(1,), lags=0)
        ds = build_lp_dataset(data, spec, 1)
        est = conventional_lp(ds, HacConfig())
        x, y = ds.x, ds.y
        slope = np.cov(y, x, ddof=1)[0, 1] / np.var(x, ddof=1)
        assert est.beta == pytest.approx(slope, rel=1e-9)


class TestEstimateIrf:
    def test_ar1_power_coverage(self):
        rng = np.random.default_rng(14)
        rho = 0.5
        hits = {1: 0, 2: 0, 3: 0}
        n_runs = 50
        for _ in range(n_runs):
            y = ar1_series(rng, 400, rho)
            data = TimeSeriesMatrix(values=y[:, None], columns=("y",))
            spec = LpSpec(
                response="y", shock="y", horizons=(1, 2, 3), lagged=("y",),
                lags=1, lag_augment=1,
            )
            result = estimate_irf(data, spec, OgaConfig(c_star=2.0), HacConfig(),
                                  method=DOUBLE_OGA)
            assert not result.errors
            for est in result.estimates:
                lo, hi = est.ci(0.95)
                hits[est.horizon] += lo <= rho**est.horizon <= hi
        for h in (1, 2, 3):
            assert hits[h] / n_runs >= 0.90

    def test_horizon_errors_collected(self):
        rng = np.random.default_rng(15)
        data = make_data(rng, 15, 2, names=("y", "x"))
        spec = LpSpec(response="y", shock="x", horizons=(1, 12), lagged=("y",),
                      lags=1)
        result = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        assert [est.horizon for est in result.estimates] == [1]
        assert 12 in result.errors
        assert "InsufficientSample" in result.errors[12]

    def test_preserves_horizon_order(self):
        rng = np.random.default_rng(16)
        data = make_data(rng, 80, 2, names=("y", "x"))
        spec = LpSpec(response="y", shock="x", horizons=(3, 1, 2), lagged=("y",),
                      lags=1)
        result = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        assert [est.horizon for est in result.estimates] == [3, 1, 2]
        ordered = estimate_irf(data, LpSpec(response="y", shock="x",
                                            horizons=(1, 2, 3), lagged=("y",),
                                            lags=1), method=CONVENTIONAL_LP)
        assert ([est.beta for est in result.estimates]
                == [ordered.by_horizon()[h].beta for h in (3, 1, 2)])

    @pytest.mark.parametrize("c_star", (2.0, None))
    def test_each_horizon_equals_its_own_run(self, c_star):
        # all horizons' greedy paths share one lockstep run on the anchor's
        # design; a horizon run alone anchors on its own rows
        design = Section3Design.sparse(0.5)
        data = simulate_var(build_section3_coefficients(design), design.T, (0, 1))
        spec = section3_lp_spec(design, horizons=range(1, 21))
        oga = OgaConfig(c_star=c_star)
        joint = estimate_irf(data, spec, oga).by_horizon()
        assert sorted(joint) == list(range(1, 21))
        for h, est in joint.items():
            alone = estimate_irf(data, section3_lp_spec(design, horizons=(h,)), oga)
            [single] = alone.estimates
            assert single.union == est.union
            assert (single.c_star_y, single.c_star_x) == (est.c_star_y, est.c_star_x)
            assert single.beta == pytest.approx(est.beta, rel=1e-12)
            assert single.se == pytest.approx(est.se, rel=1e-12)

    def test_conventional_horizons_1_to_60_match_their_own_runs(self):
        # every horizon is read off one anchor basis and one Cholesky factor
        # until a prefix may lose rank; at T=300 the 220 columns leave no
        # residual degrees of freedom from horizon 58 on, and from 59 on no
        # shock variation at all
        design = Section3Design.dense(0.95)
        data = simulate_var(build_section3_coefficients(design), design.T, (0, 2))
        spec = section3_lp_spec(design, horizons=range(1, 61))
        result = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        assert {h: msg.split(":")[0] for h, msg in result.errors.items()} == {
            58: "InsufficientSample", 59: "DegenerateShock", 60: "DegenerateShock"
        }
        assert [est.horizon for est in result.estimates] == list(range(1, 58))
        for est in result.estimates:
            alone = conventional_lp(build_lp_dataset(data, spec, est.horizon))
            assert est.beta == pytest.approx(alone.beta, rel=1e-9)
            assert est.se == pytest.approx(alone.se, rel=1e-9)
            assert est.union == alone.union

    def test_a_failed_path_fails_only_its_horizon(self):
        # z is zero up to t = 55, and row t of horizon h sees z up to
        # t = 57 - h: at horizon 3 every candidate column (z's lags) is zero
        rng = np.random.default_rng(19)
        values = rng.standard_normal((60, 3))
        values[:56, 2] = 0.0
        data = TimeSeriesMatrix(values, ("y", "x", "z"))
        spec = LpSpec(response="y", shock="x", horizons=(1, 2, 3), lagged=("z",),
                      lags=2)
        oga = OgaConfig(c_star=2.0)
        result = estimate_irf(data, spec, oga)
        assert result.errors == {
            3: "AllColumnsDegenerate: no admissible column at the first step"
        }
        for est in result.estimates:
            alone = double_oga_lp(build_lp_dataset(data, spec, est.horizon), oga)
            assert est.union == alone.union != ()
            assert est.beta == pytest.approx(alone.beta, rel=1e-12)

    def test_anchor_must_not_be_shorter(self):
        rng = np.random.default_rng(17)
        data = make_data(rng, 40, 2, names=("y", "x"))
        spec = LpSpec(response="y", shock="x", horizons=(1,), lagged=("y",),
                      lags=1)
        with pytest.raises(DimensionMismatch):
            build_lp_dataset(data, spec, 1, anchor=build_lp_dataset(data, spec, 2))


def random_design(seed, T, p, n_dup, with_intercept):
    """Candidates with some exact duplicates and exact linear combinations."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((T, p))
    extra = []
    for k in range(n_dup if p else 0):
        i, j = rng.integers(0, p, size=2)
        extra.append(C[:, i] if k % 2 == 0 else C[:, i] - 2.0 * C[:, j])
    if extra:
        C = np.column_stack([C, *extra])[:, rng.permutation(p + n_dup)]
    x = C @ rng.normal(0, 0.3, C.shape[1]) + rng.standard_normal(T)
    y = 0.7 * x + C @ rng.normal(0, 0.3, C.shape[1]) + rng.standard_normal(T)
    return C, x + with_intercept, y


def partial_out_one(C, intercept, x, y, method, oga_config):
    """The core's fit of one regression on all rows, or its error raised."""
    names = tuple((f"c{j}", 0) for j in range(C.shape[1]))
    dataset = LpDataset(y=y, x=x, W=C, column_map=names, horizon=0,
                        intercept=intercept)
    [fit] = _fit([dataset], method, oga_config, None)
    return _unwrap(fit)


design_args = dict(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(30, 120),
    p=st.integers(0, 10),
    n_dup=st.integers(0, 3),
    with_intercept=st.booleans(),
)


class TestPartialOutCore:
    @given(method=st.sampled_from((DOUBLE_OGA, CONVENTIONAL_LP)), **design_args)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_ols_on_the_chosen_controls(
        self, method, seed, T, p, n_dup, with_intercept
    ):
        C, x, y = random_design(seed, T, p, n_dup, with_intercept)
        fit = partial_out_one(C, with_intercept, x, y, method, OgaConfig(c_star=2.0))
        cols = [x[:, None], C[:, list(fit.union)]]
        if with_intercept:
            cols.append(np.ones((T, 1)))
        ols = ols_fit(np.column_stack(cols), y)
        assert fit.beta == pytest.approx(ols.coefficients[0], rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(fit.residuals_u, ols.residuals, rtol=1e-9, atol=1e-9)
        assert fit.rank == ols.rank
        if method == CONVENTIONAL_LP:
            assert fit.union == tuple(range(C.shape[1]))

    @given(**{**design_args, "p": st.integers(1, 10)})
    @settings(max_examples=40, deadline=None)
    def test_conventional_equals_double_selection_of_everything(
        self, seed, T, p, n_dup, with_intercept
    ):
        C, x, y = random_design(seed, T, p, n_dup, with_intercept)
        ds = LpDataset(
            y=y, x=x, W=C, column_map=tuple(("w", j) for j in range(C.shape[1])),
            horizon=1, intercept=with_intercept,
        )
        conv = conventional_lp(ds, HacConfig())
        full = double_oga_lp(ds, FULL_SELECTION, HacConfig())
        for est in (conv, full):  # selections are columns of W
            for chosen in (est.selected_y, est.selected_x, est.union):
                assert set(chosen) <= set(range(C.shape[1]))
        assert full.beta == pytest.approx(conv.beta, rel=1e-9, abs=1e-12)
        assert full.se == pytest.approx(conv.se, rel=1e-9)
        if n_dup == 0:
            assert full.union == conv.union
        else:
            # greedy selection skips columns its path already spans
            assert set(full.union) <= set(conv.union)
            assert (np.linalg.matrix_rank(C[:, list(full.union)])
                    == np.linalg.matrix_rank(C))

    @given(seed=st.integers(0, 2**32 - 1),
           method=st.sampled_from((DOUBLE_OGA, CONVENTIONAL_LP)))
    @settings(max_examples=15, deadline=None)
    def test_lpdid_without_time_effects_is_the_time_series_core(self, seed, method):
        rng = np.random.default_rng(seed)
        n_units, n_periods = 12, 10
        adopt = rng.integers(3, 12, size=n_units)  # >= 10 means never
        unit = np.repeat(np.arange(n_units), n_periods)
        time = np.tile(np.arange(n_periods), n_units)
        treat = (time >= adopt[unit]).astype(float)
        outcome = rng.standard_normal(unit.size) + treat + 0.1 * time
        panel = PanelDataset(unit=unit, time=time, outcome=outcome,
                             treatment=treat,
                             covariates={"z": rng.standard_normal(unit.size)})
        spec = LpDidSpec(horizons=(1,), outcome_lags=2, extra_controls=("z",),
                         time_effects=False, method=method)
        oga = OgaConfig(c_star=2.0)
        result = lpdid_estimate(panel, spec, oga, HacConfig())
        _, _, dy, dd, C = hdlp.lpdid._assemble(hdlp.lpdid._Layout.of(panel, spec), 1)
        fit = partial_out_one(C, True, dd, dy, method, oga)
        assert result.by_horizon()[1].beta == fit.beta

    @pytest.mark.parametrize("variance", ("hac", "cluster"))
    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_lpdid_honours_psi_source(self, method, variance):
        rng = np.random.default_rng(21)
        n_units, n_periods = 40, 10
        adopt = rng.integers(3, 14, size=n_units)
        unit = np.repeat(np.arange(n_units), n_periods)
        time = np.tile(np.arange(n_periods), n_units)
        treat = (time >= adopt[unit]).astype(float)
        z = rng.standard_normal(unit.size)
        outcome = rng.standard_normal(unit.size) + treat + 0.5 * z
        panel = PanelDataset(unit=unit, time=time, outcome=outcome,
                             treatment=treat, covariates={"z": z})
        spec = LpDidSpec(horizons=(1,), outcome_lags=2, extra_controls=("z",),
                         time_effects=False, method=method, variance=variance)
        oga = OgaConfig(c_star=2.0)
        first = HacConfig(psi_source="first_stage_e")
        got = lpdid_estimate(panel, spec, oga, first).by_horizon()[1]
        final = lpdid_estimate(panel, spec, oga, HacConfig()).by_horizon()[1]

        _, units, dy, dd, C = hdlp.lpdid._assemble(hdlp.lpdid._Layout.of(panel, spec), 1)
        fit = partial_out_one(C, True, dd, dy, method, oga)
        T = dy.shape[0]
        tau_sq = float(fit.residuals_v @ fit.residuals_v) / T
        if variance == "hac":
            omega = newey_west_one(fit.residuals_v * fit.residuals_e, got.bandwidth)
        else:
            omega = cluster_omega(units, fit.residuals_v * fit.residuals_e) / T
        se = np.sqrt(omega / tau_sq**2 / (T - fit.rank))
        assert got.beta == final.beta == fit.beta
        assert got.se == pytest.approx(se, rel=1e-12)
        assert got.se != final.se


class TestConstantShock:
    """A constant shock is degenerate only when the intercept is in the
    projection; a zero shock always is."""

    @pytest.mark.parametrize("p", (0, 3))
    @pytest.mark.parametrize("intercept", (True, False))
    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_constant_shock(self, method, intercept, p):
        rng = np.random.default_rng(28)
        C = rng.standard_normal((60, p))
        x = np.full(60, 2.0)
        y = 1.4 * x + rng.standard_normal(60)
        oga = OgaConfig(c_star=2.0)
        with pytest.raises(DegenerateShock, match="shock series is constant"):
            partial_out_one(C, intercept, np.zeros(60), y, method, oga)
        if intercept:
            with pytest.raises(DegenerateShock, match="shock series is constant"):
                partial_out_one(C, intercept, x, y, method, oga)
            return
        fit = partial_out_one(C, intercept, x, y, method, oga)
        ols = ols_fit(np.column_stack([x, C[:, list(fit.union)]]), y)
        assert fit.beta == pytest.approx(ols.coefficients[0], rel=1e-9)
        assert np.isfinite(fit.se) and fit.se > 0


class TestSelectionsIndexW:
    """W holds only the candidates: every selection is a column of W, and
    column_map names it."""

    def data(self):
        # the shock loads on w1, the response on w2
        rng = np.random.default_rng(27)
        T = 200
        w = rng.standard_normal((T, 4))
        x = 0.9 * w[:, 0] + 0.5 * rng.standard_normal(T)
        y = np.zeros(T)
        y[1:] = 0.9 * w[:-1, 1] + 0.5 * x[:-1] + 0.5 * rng.standard_normal(T - 1)
        return TimeSeriesMatrix(np.column_stack([y, x, w]),
                                ("y", "x", "w1", "w2", "w3", "w4"))

    @pytest.mark.parametrize("intercept", (True, False))
    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_built_dataset(self, method, intercept):
        spec = LpSpec(response="y", shock="x", horizons=(1,),
                      contemporaneous=("w1", "w2", "w3", "w4"), lagged=("y",),
                      lags=1, include_intercept=intercept)
        ds = build_lp_dataset(self.data(), spec, 1)
        assert len(ds.column_map) == ds.W.shape[1] == 5
        [est] = estimate_irf(self.data(), spec, OgaConfig(c_star=2.0),
                             method=method).estimates
        for chosen in (est.selected_y, est.selected_x, est.union):
            assert set(chosen) <= set(range(ds.W.shape[1]))
        if method == DOUBLE_OGA:
            assert ("w1", 0) in [ds.column_map[j] for j in est.selected_x]
            assert ("w2", 0) in [ds.column_map[j] for j in est.selected_y]
        else:
            assert est.union == tuple(range(ds.W.shape[1]))
        cols = [ds.x[:, None], ds.W[:, list(est.union)]]
        cols += [np.ones((ds.effective_T, 1))] * intercept
        ols = ols_fit(np.column_stack(cols), ds.y)
        assert est.beta == pytest.approx(ols.coefficients[0], rel=1e-9)

    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_hand_made_dataset_follows_its_column_order(self, method):
        spec = LpSpec(response="y", shock="x", horizons=(1,),
                      contemporaneous=("w1", "w2", "w3", "w4"), lagged=("y",),
                      lags=1)
        ds = build_lp_dataset(self.data(), spec, 1)
        perm = [3, 0, 4, 2, 1]
        shuffled = LpDataset(y=ds.y, x=ds.x, W=ds.W[:, perm],
                             column_map=tuple(ds.column_map[j] for j in perm),
                             horizon=1, intercept=True)
        fit = double_oga_lp if method == DOUBLE_OGA else conventional_lp
        ref, got = fit(ds), fit(shuffled)
        for name in ("selected_y", "selected_x", "union"):
            assert sorted(perm[j] for j in getattr(got, name)) == list(getattr(ref, name))
        assert got.beta == pytest.approx(ref.beta, rel=1e-9)
        whole = np.round(100 * ds.W)  # integer candidates, stored as int or float
        as_int, as_float = fit(replace(ds, W=whole.astype(np.int64))), fit(replace(ds, W=whole))
        assert (as_int.beta, as_int.union) == (as_float.beta, as_float.union)


class TestScaleFreeChecks:
    """Degeneracy is judged relative to each column's own norm."""

    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_rescaled_shock_rescales_beta_and_se(self, method):
        design = Section3Design.sparse(0.5)
        data = simulate_var(build_section3_coefficients(design), design.T, 3)
        spec = section3_lp_spec(design, horizons=range(1, 21))
        oga = OgaConfig(c_star=2.0)
        ref = estimate_irf(data, spec, oga, method=method)
        assert not ref.errors
        for k in range(-8, 9):
            s = 10.0**k
            values = data.values.copy()
            values[:, data.index(spec.shock)] *= s
            scaled = estimate_irf(TimeSeriesMatrix(values, data.columns), spec,
                                  oga, method=method)
            assert not scaled.errors, k
            for est, unscaled in zip(scaled.estimates, ref.estimates):
                assert est.beta * s == pytest.approx(unscaled.beta, rel=1e-9)
                assert est.se * s == pytest.approx(unscaled.se, rel=1e-9)

    def test_zero_control_acts_like_a_constant(self):
        rng = np.random.default_rng(26)
        data = make_data(rng, 150, 3, names=("y", "x", "w"))
        spec = LpSpec(response="y", shock="x", horizons=(1, 2, 3),
                      contemporaneous=("w", "z"), lagged=("y", "x", "w", "z"),
                      lags=2)
        irfs = {}
        for level in (0.0, 3.0):
            values = np.column_stack([data.values, np.full(150, level)])
            with_z = TimeSeriesMatrix(values, data.columns + ("z",))
            for method in (DOUBLE_OGA, CONVENTIONAL_LP):
                irfs[method, level] = estimate_irf(
                    with_z, spec, OgaConfig(c_star=2.0), method=method
                )
                assert not irfs[method, level].errors
        for method, rel in ((DOUBLE_OGA, 0.0), (CONVENTIONAL_LP, 1e-9)):
            zero, constant = irfs[method, 0.0], irfs[method, 3.0]
            for a, b in zip(zero.estimates, constant.estimates):
                assert a.beta == pytest.approx(b.beta, rel=rel)
                assert a.se == pytest.approx(b.se, rel=rel)
                assert a.union == b.union


@st.composite
def control_designs(draw):
    """A small estimate_irf problem: response y and shock x both load on
    k persistent control series z1..zk, which enter at lag 0 and as lags;
    a fixed or a tuned c_star, with or without an intercept."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, k = draw(st.integers(50, 90)), draw(st.integers(1, 4))
    z = np.zeros((T, k))
    for t in range(1, T):
        z[t] = 0.6 * z[t - 1] + rng.standard_normal(k)
    x = z @ rng.uniform(-1, 1, k) + rng.standard_normal(T)
    y = 0.5 * x + z @ rng.uniform(-2, 2, k) + rng.standard_normal(T)
    controls = tuple(f"z{i + 1}" for i in range(k))
    data = TimeSeriesMatrix(np.column_stack([y, x, z]), ("y", "x") + controls)
    spec = LpSpec(response="y", shock="x", horizons=(0, 1, 2, 3),
                  contemporaneous=controls, lagged=("y", "x") + controls,
                  lags=draw(st.integers(1, 2)),
                  include_intercept=draw(st.booleans()))
    oga = OgaConfig(c_star=draw(st.sampled_from([1.0, 2.0, None])))
    return data, spec, oga


def has_near_tie(W, y, steps: int, intercept: bool) -> bool:
    """Whether a greedy path of steps picks against y on W meets a step
    whose best and second-best gains lie within TIE_RTOL times the starting
    RSS, where the order of the columns could break the tie."""
    T = len(y)
    Q = np.full((T, int(intercept)), 1.0 / np.sqrt(T))
    r = y - Q @ (Q.T @ y)
    tie = TIE_RTOL * (r @ r)
    floor = SPAN_RTOL**2 * np.einsum("ij,ij->j", W, W)
    for _ in range(steps):
        outside = W - Q @ (Q.T @ W)
        proj_sq = np.einsum("ij,ij->j", outside, outside)
        alive = proj_sq > floor
        if not alive.any():
            return False
        gain = np.where(alive, (outside.T @ r) ** 2 / np.maximum(proj_sq, 1e-300), -np.inf)
        top = np.sort(gain)[-2:]
        if top.size == 2 and top[1] - top[0] <= tie:
            return True
        j = np.argmax(gain)
        q = outside[:, j] / np.sqrt(proj_sq[j])
        Q = np.column_stack([Q, q])
        r = r - q * (q @ r)
    return False


class TestSelectionProperties:
    """Invariants of double selection, end to end through estimate_irf."""

    @given(design=control_designs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_permuting_the_controls_permutes_every_selection(self, design, data):
        series, spec, oga = design
        # the candidates are the contemporaneous names, then the lagged names
        # lag by lag, so reordering the two lists permutes the columns of W
        permuted = replace(
            spec,
            contemporaneous=data.draw(st.permutations(spec.contemporaneous)),
            lagged=data.draw(st.permutations(spec.lagged)),
        )
        for h in spec.horizons:
            ds = build_lp_dataset(series, spec, h)
            T = ds.effective_T
            for n in (T, _train_rows(T, oga)) if oga.tuning_candidates else (T,):
                steps = max_steps(n, ds.W.shape[1], oga)
                for z in (ds.y, ds.x):
                    assume(not has_near_tie(ds.W[:n], z[:n], steps, ds.intercept))
        ref, got = estimate_irf(series, spec, oga), estimate_irf(series, permuted, oga)
        names = build_lp_dataset(series, spec, 0).column_map
        new_names = build_lp_dataset(series, permuted, 0).column_map
        assert sorted(names) == sorted(new_names)
        assert ref.errors == got.errors
        for a, b in zip(ref.estimates, got.estimates, strict=True):
            for chosen in ("selected_y", "selected_x", "union"):
                assert sorted(names[i] for i in getattr(a, chosen)) == sorted(
                    new_names[i] for i in getattr(b, chosen)), (a.horizon, chosen)

    @given(design=control_designs(), log_scale=st.floats(-6.0, 6.0), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_scaling_one_control_leaves_every_selection_unchanged(
            self, design, log_scale, data):
        series, spec, oga = design
        j = series.index(data.draw(st.sampled_from(spec.contemporaneous),
                                   label="scaled control"))
        values = series.values.copy()
        values[:, j] *= 10.0**log_scale
        scaled = TimeSeriesMatrix(values, series.columns)
        ref, got = estimate_irf(series, spec, oga), estimate_irf(scaled, spec, oga)
        assert ref.errors.keys() == got.errors.keys()
        for a, b in zip(ref.estimates, got.estimates, strict=True):
            assert (a.selected_y, a.selected_x, a.union) == (
                b.selected_y, b.selected_x, b.union)

    @given(design=control_designs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_an_exact_duplicate_never_joins_its_original_in_a_union(
            self, design, data):
        series, spec, oga = design
        original = data.draw(st.sampled_from(spec.contemporaneous), label="original")
        # the copy at any position among the series and the control lists
        at = [data.draw(st.integers(0, len(names)), label="position")
              for names in (series.columns, spec.contemporaneous, spec.lagged)]
        columns, contemporaneous, lagged = (
            names[:i] + ("copy",) + names[i:]
            for i, names in zip(at, (series.columns, spec.contemporaneous, spec.lagged)))
        values = np.insert(series.values, at[0], series.values[:, series.index(original)],
                           axis=1)
        with_copy = TimeSeriesMatrix(values, columns)
        spec = replace(spec, contemporaneous=contemporaneous, lagged=lagged)
        result = estimate_irf(with_copy, spec, oga)
        sources = build_lp_dataset(with_copy, spec, 0).column_map
        for est in result.estimates:
            union = [(original if source == "copy" else source, lag)
                     for source, lag in (sources[i] for i in est.union)]
            assert len(set(union)) == len(union), (est.horizon, est.union)


class TestAffineResponse:
    """An affine map a*y + b of the response series (a lagged control too)
    moves no selection, with the intercept in: the constant is projected
    out and every greedy gain, criterion value and holdout error scales by
    a^2. beta scales by a and se by |a|."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_a=st.floats(-3.0, 3.0),
        negative=st.booleans(),
        b=st.floats(-100.0, 100.0),
        tuned=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_keeps_every_selection_and_scales_beta_and_se(self, seed, log_a,
                                                          negative, b, tuned):
        rng = np.random.default_rng(seed)
        data = make_data(rng, 90, 4, names=("y", "x", "w", "z"))
        values = data.values.copy()
        values[1:, 0] += 0.6 * values[:-1, 1] + 0.4 * values[:-1, 2]
        spec = LpSpec(response="y", shock="x", horizons=(1, 2, 3, 4),
                      contemporaneous=("w",), lagged=("y", "x", "w", "z"), lags=2)
        oga = OgaConfig(c_star=None if tuned else 2.0)
        ref = estimate_irf(TimeSeriesMatrix(values, data.columns), spec, oga)
        a = -(10.0**log_a) if negative else 10.0**log_a
        values[:, 0] = a * values[:, 0] + b
        got = estimate_irf(TimeSeriesMatrix(values, data.columns), spec, oga)
        assert not ref.errors and not got.errors
        for est, want in zip(got.estimates, ref.estimates, strict=True):
            assert (est.union, est.c_star_y, est.c_star_x) == (
                want.union, want.c_star_y, want.c_star_x)
            assert abs(est.beta - a * want.beta) <= 1e-9 * est.se
            assert abs(est.se - abs(a) * want.se) <= 1e-9 * est.se


def awkward_column(draw, rng, values, j):
    """Column j of values made constant, zero, a copy of an earlier column,
    a step, small integers (exact ties), a spike or far from unit scale."""
    T = values.shape[0]
    kind = draw(st.sampled_from(["normal"] * 4 + ["constant", "zero", "copy", "step",
                                              "integers", "spike", "scaled"]),
                label=f"column {j}")
    if kind == "constant":
        values[:, j] = rng.standard_normal()
    elif kind == "zero":
        values[:, j] = 0.0
    elif kind == "copy" and j:
        values[:, j] = values[:, rng.integers(0, j)]
    elif kind == "step":
        values[:, j] = np.arange(T) >= rng.integers(0, T + 1)
    elif kind == "integers":
        values[:, j] = rng.integers(-2, 3, size=T)
    elif kind == "spike":
        values[:, j] = 0.0
        values[rng.integers(0, T), j] = 1.0
    elif kind == "scaled":
        values[:, j] *= 10.0 ** draw(st.integers(-300, 300), label="log scale")


@st.composite
def awkward_irf_problems(draw):
    """estimate_irf on a few short series with degenerate columns, any
    sample length from too short up, and every knob of the estimator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, n = draw(st.integers(1, 60)), draw(st.integers(2, 4))
    values = rng.standard_normal((T, n))
    for j in range(n):
        awkward_column(draw, rng, values, j)
    names = tuple(f"s{j}" for j in range(n))
    response, shock = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    others = [name for name in names if name != shock]
    spec = LpSpec(
        response=response, shock=shock,
        horizons=draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True)),
        contemporaneous=draw(st.lists(st.sampled_from(others), unique=True)) if others else (),
        lagged=draw(st.lists(st.sampled_from(names), unique=True)),
        lags=draw(st.integers(0, 3)), lag_augment=draw(st.integers(0, 1)),
        include_intercept=draw(st.booleans()))
    oga = OgaConfig(c_star=draw(st.sampled_from([2.0, 0.5, None])),
                    max_steps_override=draw(st.sampled_from([None, 1, 3])))
    hac = HacConfig(bandwidth=draw(st.sampled_from([None, 1, 4])),
                    psi_source=draw(st.sampled_from(["final_u", "first_stage_e"])),
                    dof_correction=draw(st.booleans()))
    return TimeSeriesMatrix(values, names), spec, oga, hac


@st.composite
def awkward_panels(draw):
    """lpdid_estimate on a small, possibly unbalanced panel with any
    adoption pattern, missing cells and degenerate covariates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_units, n_periods = draw(st.integers(1, 24)), draw(st.integers(2, 10))
    unit = np.repeat(np.arange(n_units), n_periods)
    time = np.tile(np.arange(n_periods), n_units)
    adopt = rng.integers(1, n_periods + 2, size=n_units)  # n_periods + 1: never
    values = rng.standard_normal((unit.size, 3))
    for j in range(3):
        awkward_column(draw, rng, values, j)
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
    keep = rng.random(unit.size) >= draw(st.sampled_from([0.0, 0.2]))
    panel = dict(unit=unit[keep], time=time[keep], outcome=values[keep, 0],
                 treatment=(time >= adopt[unit])[keep].astype(float),
                 covariates={"c1": values[keep, 1], "c2": values[keep, 2]})
    spec = LpDidSpec(
        horizons=draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True)),
        outcome_lags=draw(st.integers(0, 2)),
        extra_controls=draw(st.lists(st.sampled_from(["c1", "c2"]), unique=True)),
        time_effects=draw(st.booleans()),
        method=draw(st.sampled_from(METHODS)),
        variance=draw(st.sampled_from(["hac", "cluster"])))
    oga = OgaConfig(c_star=draw(st.sampled_from([2.0, None])))
    return panel, spec, oga


def assert_finite_estimates(result):
    for est in result.estimates:
        assert np.isfinite(est.beta) and np.isfinite(est.se), est


class TestNoRaiseFuzz:
    """No input an estimator accepts makes it raise anything but a package
    error, or return a non-finite beta or se: a failure is an error in its
    horizon's slot."""

    @given(problem=awkward_irf_problems(), method=st.sampled_from(METHODS))
    @settings(max_examples=150, deadline=None)
    def test_estimate_irf(self, problem, method):
        data, spec, oga, hac = problem
        try:
            with np.errstate(all="ignore"):  # squares of extreme scales overflow
                result = estimate_irf(data, spec, oga, hac, method=method)
        except HdlpError:
            return
        assert_finite_estimates(result)

    @given(problem=awkward_panels())
    @settings(max_examples=150, deadline=None)
    def test_lpdid_estimate(self, problem):
        panel, spec, oga = problem
        try:
            with np.errstate(all="ignore"):
                result = lpdid_estimate(PanelDataset(**panel), spec, oga)
        except HdlpError:
            return
        assert_finite_estimates(result)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("series, scale", [("y", 1e200), ("x", 1e-100)])
    def test_scales_float64_cannot_square_fail_their_horizons(self, method, series,
                                                              scale):
        # a response whose squares overflow once stalled the greedy paths;
        # a shock this small made se infinite and was returned as an estimate
        rng = np.random.default_rng(5)
        data = make_data(rng, 60, 3, names=("y", "x", "z"))
        values = data.values.copy()
        values[:, data.index(series)] *= scale
        spec = LpSpec(response="y", shock="x", horizons=(1, 2), lagged=("y", "x", "z"),
                      lags=2)
        with np.errstate(all="ignore"):
            result = estimate_irf(TimeSeriesMatrix(values, data.columns), spec,
                                  method=method)
        assert not result.estimates
        assert all(msg.startswith("NonFinite: ") for msg in result.errors.values())
        assert sorted(result.errors) == [1, 2]

    @pytest.mark.parametrize("method", METHODS)
    def test_a_control_float64_cannot_square_fails_every_horizon(self, method):
        # such a control was once dropped silently: the pivoted QR divided it
        # by its infinite norm, the greedy paths gave it an infinite admission
        # floor, and LP-DiD's time effects screened it out before either
        message = "NonFinite: the squares of a candidate control overflow"
        rng = np.random.default_rng(5)
        data = make_data(rng, 60, 3, names=("y", "x", "z"))
        values = data.values.copy()
        values[:, data.index("z")] *= 1e200
        spec = LpSpec(response="y", shock="x", horizons=(1, 2), lagged=("y", "x", "z"),
                      lags=2)
        with np.errstate(all="ignore"):
            result = estimate_irf(TimeSeriesMatrix(values, data.columns), spec,
                                  method=method)
        assert not result.estimates and result.errors == {1: message, 2: message}
        unit = np.repeat(np.arange(30), 8)
        time = np.tile(np.arange(8), 30)
        treat = (time >= rng.integers(2, 12, size=30)[unit]).astype(float)
        panel = PanelDataset(unit=unit, time=time,
                             outcome=rng.standard_normal(unit.size) + treat,
                             treatment=treat,
                             covariates={"c": 1e200 * rng.standard_normal(unit.size)})
        for time_effects in (True, False):
            spec = LpDidSpec(horizons=(0, 1), outcome_lags=1, extra_controls=("c",),
                             time_effects=time_effects, method=method)
            with np.errstate(all="ignore"):
                result = lpdid_estimate(panel, spec)
            assert not result.estimates and result.errors == {0: message, 1: message}


class TestEquilibratedDesign:
    def test_controls_in_small_units_keep_their_rank(self):
        # the pivoted QR judges each column against its own norm, so a
        # control series in tiny units does not drop out of the design
        design = Section3Design.sparse(0.5)
        data = simulate_var(build_section3_coefficients(design), design.T, (0, 3))
        spec = section3_lp_spec(design, horizons=range(1, 21))
        values = data.values.copy()
        values[:, data.index("y5")] *= 1e-9
        scaled = TimeSeriesMatrix(values, data.columns)
        W = build_lp_dataset(scaled, spec, 1).W
        assert orthonormal_columns(W, True).shape[1] == W.shape[1] + 1 == 220
        ref = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        got = estimate_irf(scaled, spec, method=CONVENTIONAL_LP)
        assert not ref.errors and not got.errors
        for a, b in zip(ref.estimates, got.estimates):
            assert b.beta == pytest.approx(a.beta, rel=1e-9)
            assert b.se == pytest.approx(a.se, rel=1e-9)


class TestFactorizationBudget:
    """One factorization per horizon: the greedy paths' bases are reused."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"qr": 0, "complement": 0}
        qr = scipy.linalg.qr

        def counted_qr(*args, **kwargs):
            counts["qr"] += 1
            return qr(*args, **kwargs)

        def counted_complement(*args, **kwargs):
            counts["complement"] += 1
            return complement(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counted_qr)
        for module in vars(hdlp).values():
            if getattr(module, "complement", None) is complement:
                monkeypatch.setattr(module, "complement", counted_complement)
        return counts

    def dataset(self):
        rng = np.random.default_rng(22)
        data = make_data(rng, 200, 5)
        spec = LpSpec(response="y1", shock="y2", horizons=(1, 2, 3),
                      lagged=("y1", "y2", "y3", "y4", "y5"), lags=4)
        return data, spec

    def test_qr_calls_per_horizon(self, counts):
        data, spec = self.dataset()
        ds = build_lp_dataset(data, spec, 1)
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig())
        assert set(est.selected_y) != set(est.selected_x)
        # the greedy paths start from the written-down intercept column
        assert counts["qr"] == 0
        counts["qr"] = 0
        conventional_lp(ds, HacConfig())
        assert counts["qr"] == 1

    def test_conventional_irf_factors_once(self, counts):
        data, spec = self.dataset()
        result = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        assert [est.horizon for est in result.estimates] == [1, 2, 3]
        assert counts["qr"] == 1

    @pytest.mark.parametrize("c_star", (2.0, None))
    def test_one_greedy_run_per_irf(self, monkeypatch, c_star):
        # every horizon's paths, and with tuning their training-row paths,
        # advance in one lockstep oga_order call
        calls = []
        oga_order = hdlp.selection.oga_order

        def counted(W, y, *args, **kwargs):
            calls.append(np.shape(y))
            return oga_order(W, y, *args, **kwargs)

        monkeypatch.setattr(hdlp.selection, "oga_order", counted)
        data, spec = self.dataset()
        result = estimate_irf(data, spec, OgaConfig(c_star=c_star))
        assert not result.errors
        n_paths = 2 * len(spec.horizons) * (1 if c_star else 2)
        assert calls == [(result.estimates[0].effective_T, n_paths)]

    @pytest.mark.parametrize("method", (DOUBLE_OGA, CONVENTIONAL_LP))
    def test_one_variance_call_per_irf(self, monkeypatch, method):
        # every horizon's Newey-West variance comes from one batched call
        calls = []
        hac = hdlp.lp.hac_variance

        def counted(v, u, *args, **kwargs):
            calls.append(np.shape(v))
            return hac(v, u, *args, **kwargs)

        monkeypatch.setattr(hdlp.lp, "hac_variance", counted)
        data, spec = self.dataset()
        result = estimate_irf(data, spec, OgaConfig(c_star=2.0), method=method)
        assert not result.errors
        assert calls == [(result.estimates[0].effective_T, len(spec.horizons))]

    @pytest.mark.parametrize("case", ("duplicated_lag", "nonzero_on_dropped_rows"))
    def test_rank_loss_refactors_and_matches_fresh_fits(self, counts, case):
        rng = np.random.default_rng(25)
        data = make_data(rng, 120, 4, names=("y", "x", "z", "w"))
        values = data.values.copy()
        if case == "duplicated_lag":
            # w repeats z, except at the one row whose first lag enters the
            # horizon-1 sample only (the second lags are duplicates throughout)
            values[:, 3] = values[:, 2]
            values[-3, 3] += 1.0
            extra = dict(lagged=("y", "x", "z", "w"))
        else:
            # z is nonzero only in the last row of the horizon-1 sample
            values[:, 2] = 0.0
            values[-2, 2] = 1.0
            extra = dict(lagged=("y", "x"), contemporaneous=("z",))
        data = TimeSeriesMatrix(values=values, columns=data.columns)
        spec = LpSpec(response="y", shock="x", horizons=(1, 2, 3), lags=2,
                      **extra)
        result = estimate_irf(data, spec, method=CONVENTIONAL_LP)
        assert counts["qr"] == 2  # horizon 1, then horizon 2 anchors horizon 3
        assert not result.errors
        for est in result.estimates:
            fresh = conventional_lp(build_lp_dataset(data, spec, est.horizon))
            assert est.beta == pytest.approx(fresh.beta, rel=1e-9)
            assert est.se == pytest.approx(fresh.se, rel=1e-9)

    def test_project_out_is_never_called(self, counts):
        # the library has no project_out: every residual comes off a basis,
        # and the only QR is the one inside complement
        assert not any(
            hasattr(m, "project_out") for m in (hdlp, *vars(hdlp).values())
        )
        data, spec = self.dataset()
        for method in (DOUBLE_OGA, CONVENTIONAL_LP):
            for psi in ("final_u", "first_stage_e"):
                result = estimate_irf(data, spec, OgaConfig(c_star=None),
                                      HacConfig(psi_source=psi), method=method)
                assert not result.errors
        rng = np.random.default_rng(23)
        unit = np.repeat(np.arange(30), 8)
        time = np.tile(np.arange(8), 30)
        treat = (time >= rng.integers(2, 12, size=30)[unit]).astype(float)
        panel = PanelDataset(unit=unit, time=time,
                             outcome=rng.standard_normal(unit.size) + treat,
                             treatment=treat)
        for method in (DOUBLE_OGA, CONVENTIONAL_LP):
            spec = LpDidSpec(horizons=(0, 1), outcome_lags=2, method=method)
            assert not lpdid_estimate(panel, spec).errors
        assert counts["qr"] == counts["complement"] > 0

    def test_a_tall_no_selection_fit_forms_no_complement(self):
        # 20 row prefixes (19 dropped rows) of a 200,000 x 4 design (three
        # controls and the intercept) are read off the QR's reflectors: the
        # complement would hold 200,000 x 199,996 floats
        rng = np.random.default_rng(26)
        n, k = 200_000, 20
        y, x = rng.standard_normal((2, n))
        W = rng.standard_normal((n, 3))
        datasets = [LpDataset(y=y[: n - i], x=x[: n - i], W=W[: n - i],
                              column_map=(("a", 0), ("b", 0), ("c", 0)), horizon=i,
                              intercept=True) for i in range(k)]
        size = 2 * k * y.nbytes + W.nbytes  # the batch's series and the design
        tracemalloc.start()
        try:
            fits = _fit(datasets, CONVENTIONAL_LP, None, HacConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [est.rank for est in fits] == [5] * k
        assert [est.effective_T for est in fits] == [n - i for i in range(k)]
        assert peak < 5 * size


class TestBugsPropagate:
    def test_type_error_in_core_is_not_a_failed_horizon(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        # every estimator reaches one of the two residual builders of the core
        monkeypatch.setattr(hdlp.lp, "_union_residuals", broken)
        monkeypatch.setattr(hdlp.lp, "prefix_residuals", broken)
        rng = np.random.default_rng(18)
        data = make_data(rng, 60, 2, names=("y", "x"))
        spec = LpSpec(response="y", shock="x", horizons=(1, 2), lagged=("y",),
                      lags=1)
        for method in (DOUBLE_OGA, CONVENTIONAL_LP):
            with pytest.raises(TypeError, match="injected"):
                estimate_irf(data, spec, method=method)
        unit = np.repeat(np.arange(4), 6)
        time = np.tile(np.arange(6), 4)
        panel = PanelDataset(unit=unit, time=time, outcome=rng.standard_normal(24),
                             treatment=(time >= 3) * (unit < 2))
        with pytest.raises(TypeError, match="injected"):
            lpdid_estimate(panel, LpDidSpec(horizons=(1,)))


def irf_estimates(method):
    design = Section3Design.sparse(0.5)
    data = simulate_var(build_section3_coefficients(design), design.T, 11)
    spec = section3_lp_spec(design, horizons=range(1, 9))
    result = estimate_irf(data, spec, OgaConfig(c_star=None), method=method)
    return result, None


def lpdid_estimates(variance):
    rng = np.random.default_rng(31)
    n_units, n_periods = 40, 10
    unit = np.repeat(np.arange(n_units), n_periods)
    time = np.tile(np.arange(n_periods), n_units)
    treat = (time >= rng.integers(3, 14, size=n_units)[unit]).astype(float)
    z = rng.standard_normal(unit.size)
    panel = PanelDataset(
        unit=unit, time=time, treatment=treat,
        outcome=rng.standard_normal(unit.size) + treat + 0.5 * z,
        covariates={"season": np.sin(1.3 * time), "z": z},
    )
    spec = LpDidSpec(horizons=(0, 1, 2), outcome_lags=2,
                     extra_controls=("season", "z"), variance=variance)
    return lpdid_estimate(panel, spec, OgaConfig(c_star=2.0)), (panel, spec)


class TestOneRecord:
    """Both estimators fill the same LpEstimate, variance pieces included."""

    @pytest.mark.parametrize("make, arg", [
        (irf_estimates, DOUBLE_OGA),
        (irf_estimates, CONVENTIONAL_LP),
        (lpdid_estimates, "hac"),
        (lpdid_estimates, "cluster"),
    ])
    def test_variance_pieces_and_selections_agree(self, make, arg):
        result, panel_spec = make(arg)
        assert isinstance(result, hdlp.IrfResult)
        assert not result.errors and len(result.estimates) > 1
        for est in result.estimates:
            assert isinstance(est, hdlp.LpEstimate)
            T = est.effective_T
            assert est.se == np.sqrt(est.sigma_sq / T)
            dof = T / (T - est.rank)
            assert est.sigma_sq == pytest.approx(est.omega / est.tau_sq**2 * dof,
                                                 rel=1e-14)
            assert est.union == tuple(sorted(set(est.selected_y) | set(est.selected_x)))
            assert est.residuals_u.shape == est.residuals_v.shape == (T,)
            if panel_spec is None:
                assert est.n_treated is None and est.variance is None
                continue
            panel, spec = panel_spec
            assert est.variance == arg and est.c_star_y == est.c_star_x == 2.0
            assert (est.bandwidth is None) == (arg == "cluster")
            assert est.control_names == ("outcome_lag1", "outcome_lag2", "season", "z")
            assert 2 not in est.union  # "season" is absorbed by the time effects
            # rank: the shock, the union and the time effects it absorbed
            layout = hdlp.lpdid._Layout.of(panel, spec)
            times, _, _, dd, C = hdlp.lpdid._assemble(layout, est.horizon)
            design = np.column_stack([dd, C[:, list(est.union)],
                                      times[:, None] == np.unique(times)])
            assert est.rank == np.linalg.matrix_rank(design)
            assert est.n_treated + est.n_clean == T == len(times)
