import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
from hdlp.errors import DimensionMismatch, InsufficientSample, UnknownColumn
from hdlp.linalg import PrefixBasis
from hdlp.hac import HacConfig, cluster_omega, hac_variance, newey_west
from hdlp.lp import (
    CONVENTIONAL_LP,
    DOUBLE_OGA,
    INTERCEPT_NAME,
    LpDataset,
    LpSpec,
    TimeSeriesMatrix,
    _partial_out,
    build_lp_dataset,
    conventional_lp,
    double_oga_lp,
    estimate_irf,
)
from hdlp.lpdid import LpDidSpec, PanelDataset, lpdid_estimate
from hdlp.selection import OgaConfig
from reference import ols_fit, project_out

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
    cols, cmap = [], []
    for name in spec.contemporaneous:
        cols.append(vals[t, data.index(name)])
        cmap.append((name, 0))
    for ell in range(1, depth + 1):
        for name in spec.lagged:
            cols.append(vals[t - ell, data.index(name)])
            cmap.append((name, ell))
    if spec.include_intercept:
        cols.append(np.ones(eff))
        cmap.append((INTERCEPT_NAME, 0))
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
            assert ds.column_map == cmap
            for h0, ds0 in built.items():
                assert np.array_equal(ds.W, ds0.W[: ds.effective_T])
                assert np.array_equal(ds.x, ds0.x[: ds.effective_T])
                view = build_lp_dataset(data, spec, h, anchor=ds0)
                assert np.shares_memory(view.x, ds0.x)
                for name in ("y", "x", "W"):
                    assert np.array_equal(getattr(view, name), getattr(ds, name))
                assert (view.horizon, view.effective_T, view.column_map,
                        view.intercept_index) == (h, ds.effective_T, cmap,
                                                  ds.intercept_index)
            built[h] = ds

    def test_effective_sample_counting(self):
        rng = np.random.default_rng(0)
        data = make_data(rng, 10, 1, names=("y",))
        spec = LpSpec(
            response="y", shock="y", horizons=(1,), lagged=("y",), lags=1
        )
        ds = build_lp_dataset(data, spec, 1)
        assert ds.effective_T == 8
        # one lag column plus the intercept
        assert ds.W.shape == (8, 2)
        assert ds.column_map == (("y", 1), ("const", 0))
        assert ds.intercept_index == 1

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
            est = double_oga_lp(ds, FULL_SELECTION, HacConfig(), levels=(0.95,))
            assert est.union == ds.candidate_indices
            X = np.column_stack([ds.x, ds.W])
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
            lo, hi = est.cis[0.95]
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
        keep = list(est.union)
        if ds.intercept_index is not None:
            keep.append(ds.intercept_index)
        controls = ds.W[:, keep]
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
            return project_out(ds.W[:, list(cols) + [ds.intercept_index]], target)

        v, e = resid(est.selected_x, ds.x), resid(est.selected_y, ds.y)
        np.testing.assert_allclose(est.residuals_v, v, atol=1e-12)
        assert est.tau_sq == pytest.approx(float(v @ v) / ds.effective_T, rel=1e-12)
        assert est.omega == pytest.approx(newey_west(v * e, est.bandwidth), rel=1e-9)
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
        est = double_oga_lp(ds, OgaConfig(c_star=2.0), HacConfig(),
                            levels=(0.68, 0.90, 0.95))
        lo68, hi68 = est.cis[0.68]
        lo90, hi90 = est.cis[0.90]
        lo95, hi95 = est.cis[0.95]
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

        X = np.column_stack([ds.x, ds.W])
        beta_all = np.linalg.solve(X.T @ X, X.T @ ds.y)
        u = ds.y - X @ beta_all
        G = ds.W
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
        k = 1 + ds.W.shape[1]  # shock plus all controls and the intercept
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
                lo, hi = est.cis[0.95]
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
        fit = _partial_out(C, with_intercept, x, y, method, OgaConfig(c_star=2.0))
        cols = [x[:, None], C[:, list(fit.union)]]
        if with_intercept:
            cols.append(np.ones((T, 1)))
        ols = ols_fit(np.column_stack(cols), y)
        assert fit.beta == pytest.approx(ols.coefficients[0], rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(fit.u, ols.residuals, rtol=1e-9, atol=1e-9)
        assert fit.rank == ols.rank
        if method == CONVENTIONAL_LP:
            assert fit.union == tuple(range(C.shape[1]))

    @given(**{**design_args, "p": st.integers(1, 10)})
    @settings(max_examples=40, deadline=None)
    def test_conventional_equals_double_selection_of_everything(
        self, seed, T, p, n_dup, with_intercept
    ):
        C, x, y = random_design(seed, T, p, n_dup, with_intercept)
        W = np.column_stack([C, np.ones(T)]) if with_intercept else C
        ds = LpDataset(
            y=y, x=x, W=W, column_map=tuple(("w", j) for j in range(W.shape[1])),
            horizon=1, effective_T=T,
            intercept_index=C.shape[1] if with_intercept else None,
        )
        conv = conventional_lp(ds, HacConfig())
        full = double_oga_lp(ds, FULL_SELECTION, HacConfig())
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
        _, _, dy, dd, C, _ = hdlp.lpdid._assemble(panel, spec, 1)
        fit = _partial_out(C, True, dd, dy, method, oga)
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

        _, units, dy, dd, C, _ = hdlp.lpdid._assemble(panel, spec, 1)
        fit = _partial_out(C, True, dd, dy, method, oga)
        T = dy.shape[0]
        tau_sq = float(fit.v @ fit.v) / T
        if variance == "hac":
            omega = newey_west(fit.v * fit.e, got.bandwidth)
        else:
            omega = cluster_omega(units, fit.v * fit.e) / T
        se = np.sqrt(omega / tau_sq**2 / (T - fit.rank))
        assert got.beta == final.beta == fit.beta
        assert got.se == pytest.approx(se, rel=1e-12)
        assert got.se != final.se


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
        assert PrefixBasis.of(W).rank == W.shape[1] == 220
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
        counts = {"qr": 0, "orthonormal_columns": 0}
        qr, orthonormal_columns = scipy.linalg.qr, hdlp.linalg.orthonormal_columns

        def counted_qr(*args, **kwargs):
            counts["qr"] += 1
            return qr(*args, **kwargs)

        def counted_orthonormal_columns(*args, **kwargs):
            counts["orthonormal_columns"] += 1
            return orthonormal_columns(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counted_qr)
        for module in vars(hdlp).values():
            if getattr(module, "orthonormal_columns", None) is orthonormal_columns:
                monkeypatch.setattr(module, "orthonormal_columns",
                                    counted_orthonormal_columns)
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
        # and the only QR is the one inside orthonormal_columns
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
        assert counts["qr"] == counts["orthonormal_columns"] > 0


class TestBugsPropagate:
    def test_type_error_in_core_is_not_a_failed_horizon(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(hdlp.lp, "_partial_out", broken)
        monkeypatch.setattr(hdlp.lpdid, "_partial_out", broken)
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
