import numpy as np
import pytest

from hdlp.dgp import (
    DfmDgpSpec,
    Section3Design,
    VarDgpSpec,
    alternating_decay_vector,
    build_section3_coefficients,
    companion_matrix,
    section3_lp_spec,
    simulate_dfm,
    simulate_var,
    spectral_radius,
    toeplitz_power_sigma,
    true_dfm_irf,
    true_reduced_form_irf,
)
from hdlp.errors import NonStationarySpec
from reference import simulate_var_per_lag, simulate_var_stacked


def random_stable_var(rng, n, K, scale=0.4):
    while True:
        B = [scale * rng.standard_normal((n, n)) / (k + 1) for k in range(K)]
        if spectral_radius(companion_matrix(B)) < 0.95:
            return B


class TestToeplitzPowerSigma:
    def test_tau_zero_is_identity(self):
        assert np.array_equal(toeplitz_power_sigma(3, 0.0), np.eye(3))

    def test_corner_entry(self):
        sigma = toeplitz_power_sigma(3, 0.3)
        assert sigma[0, 2] == pytest.approx(0.09)
        assert sigma[2, 0] == pytest.approx(0.09)

    def test_positive_definite(self):
        for n in (2, 5, 10, 25):
            np.linalg.cholesky(toeplitz_power_sigma(n, 0.3))  # must not raise

    def test_rejects_unit_tau(self):
        with pytest.raises(ValueError):
            toeplitz_power_sigma(4, 1.0)


class TestSection3Coefficients:
    def test_zero_loadings_leave_pure_ar1(self):
        design = Section3Design(rho=0.5, a=(0.0,) * 9)
        spec = build_section3_coefficients(design)
        for ell, b in enumerate(spec.B):
            assert np.allclose(b[1:], 0.0)
            if ell > 0:
                assert np.allclose(b, 0.0)
        assert spectral_radius(spec.companion) == pytest.approx(0.5)

    def test_sparse_design_is_stationary(self):
        for rho in (0.5, 0.95):
            spec = build_section3_coefficients(Section3Design.sparse(rho))
            assert spectral_radius(spec.companion) < 1.0

    def test_dense_design_damped_to_stationarity(self):
        spec = build_section3_coefficients(Section3Design.dense(0.5))
        assert spectral_radius(spec.companion) < 1.0

    def test_loading_vector_endpoints(self):
        a = alternating_decay_vector(0.4, 0.05, 9)
        assert a[0] == pytest.approx(0.4)
        assert a[-1] == pytest.approx(0.05)
        # interior values match the published ones after rounding
        assert a[1] == pytest.approx(-0.35625)
        assert a[7] == pytest.approx(-0.09375)
        d = alternating_decay_vector(0.8, 0.2, 9)
        assert d[1] == pytest.approx(-0.725)
        assert d[7] == pytest.approx(-0.275)

    def test_odd_columns_zero_below_first_row(self):
        spec = build_section3_coefficients(Section3Design.sparse(0.5))
        for b in spec.B:
            assert np.allclose(b[1:, 0::2], 0.0)

    def test_estimation_layout(self):
        design = Section3Design.sparse(0.5)
        lp = section3_lp_spec(design, horizons=range(1, 21))
        assert lp.response == "y2"
        assert lp.shock == "y1"
        assert lp.lag_depth == 21
        assert len(lp.contemporaneous) == 9


class TestVarDgpSpec:
    def test_rejects_nonstationary(self):
        with pytest.raises(NonStationarySpec):
            VarDgpSpec(n=1, K=1, B=(np.array([[1.2]]),), sigma=np.eye(1))

    def test_y1_rho_overwrites_first_row(self):
        B = (np.full((3, 3), 0.1),)
        spec = VarDgpSpec(n=3, K=1, B=B, sigma=np.eye(3), y1_rho=0.5)
        assert spec.B[0][0, 0] == 0.5
        assert np.allclose(spec.B[0][0, 1:], 0.0)


class TestSimulateVar:
    def test_white_noise_moments(self):
        spec = VarDgpSpec(n=1, K=1, B=(np.zeros((1, 1)),), sigma=np.eye(1),
                          burn_in=10)
        data = simulate_var(spec, 10_000, seed=0)
        assert np.var(data.values) == pytest.approx(1.0, rel=0.10)

    def test_seed_determinism(self):
        spec = VarDgpSpec(n=2, K=1, B=(0.4 * np.eye(2),),
                          sigma=toeplitz_power_sigma(2, 0.3))
        a = simulate_var(spec, 200, seed=42)
        b = simulate_var(spec, 200, seed=42)
        assert np.array_equal(a.values, b.values)
        c = simulate_var(spec, 200, seed=43)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("K, y1_rho", [(1, None), (12, None), (12, 0.9)])
    def test_stacked_step_matches_lag_by_lag_reference(self, K, y1_rho):
        rng = np.random.default_rng(K)
        spec = VarDgpSpec(n=4, K=K, B=tuple(random_stable_var(rng, 4, K)),
                          sigma=toeplitz_power_sigma(4, 0.3), burn_in=50,
                          y1_rho=y1_rho)
        got = simulate_var(spec, 300, seed=(3, K)).values
        want = simulate_var_per_lag(spec, 300, seed=(3, K)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("K, y1_rho", [(1, None), (12, None), (12, 0.9)])
    def test_in_place_step_equals_the_stacked_loop(self, K, y1_rho):
        rng = np.random.default_rng(K + 1)
        spec = VarDgpSpec(n=4, K=K, B=tuple(random_stable_var(rng, 4, K)),
                          sigma=toeplitz_power_sigma(4, 0.3), burn_in=50,
                          y1_rho=y1_rho)
        got = simulate_var(spec, 300, seed=(5, K)).values
        assert np.array_equal(got, simulate_var_stacked(spec, 300, (5, K)).values)

    def test_in_place_step_equals_the_stacked_loop_on_section3(self):
        spec = build_section3_coefficients(Section3Design.dense(0.95))
        got = simulate_var(spec, 300, seed=(0, 1)).values
        assert np.array_equal(got, simulate_var_stacked(spec, 300, (0, 1)).values)

    def test_tuple_seed_matches_counter_style(self):
        spec = VarDgpSpec(n=1, K=1, B=(np.zeros((1, 1)),), sigma=np.eye(1),
                          burn_in=0)
        a = simulate_var(spec, 50, seed=(7, 3))
        b = simulate_var(spec, 50, seed=(7, 3))
        c = simulate_var(spec, 50, seed=(7, 4))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_ar1_autocorrelation(self):
        spec = VarDgpSpec(n=1, K=1, B=(np.array([[0.95]]),), sigma=np.eye(1),
                          burn_in=1000)
        y = simulate_var(spec, 50_000, seed=1).values[:, 0]
        r1 = np.corrcoef(y[1:], y[:-1])[0, 1]
        assert r1 == pytest.approx(0.95, abs=0.02)

    def test_innovation_covariance_recovered(self):
        sigma = toeplitz_power_sigma(3, 0.3)
        spec = VarDgpSpec(n=3, K=1, B=(np.zeros((3, 3)),), sigma=sigma,
                          burn_in=10)
        u = simulate_var(spec, 100_000, seed=5).values
        sample = np.cov(u.T, ddof=0)
        assert np.linalg.norm(sample - sigma, "fro") < 0.05


class TestTrueReducedFormIrf:
    def test_scalar_ar1_powers(self):
        spec = VarDgpSpec(n=1, K=1, B=(np.array([[0.5]]),), sigma=np.eye(1))
        irf = true_reduced_form_irf(spec, 0, 0, (1, 2, 3))
        assert np.allclose(irf, [0.5, 0.25, 0.125])

    def test_impact_indicator(self):
        spec = VarDgpSpec(n=2, K=1, B=(0.3 * np.eye(2),),
                          sigma=np.eye(2))
        assert true_reduced_form_irf(spec, 0, 0, (0,))[0] == 1.0
        assert true_reduced_form_irf(spec, 1, 0, (0,))[0] == 0.0

    def test_matches_impulse_propagation(self):
        # deterministic forward iteration from a unit impulse
        rng = np.random.default_rng(7)
        for _ in range(50):
            B = random_stable_var(rng, 2, 2)
            spec = VarDgpSpec(n=2, K=2, B=tuple(B), sigma=np.eye(2))
            H = 12
            path = np.zeros((H + 2 + 1, 2))
            shock = np.zeros(2)
            shock[0] = 1.0
            for t in range(2, H + 3):
                acc = shock if t == 2 else np.zeros(2)
                for ell, b in enumerate(B, start=1):
                    acc = acc + b @ path[t - ell]
                path[t] = acc
            brute = path[2:, 1]  # response of variable 2 at horizons 0..H
            irf = true_reduced_form_irf(spec, 1, 0, range(H + 1))
            assert np.allclose(irf, brute, atol=1e-10)

    def test_section3_truth_is_zero_and_decaying(self):
        spec = build_section3_coefficients(Section3Design.sparse(0.5))
        irf21 = true_reduced_form_irf(spec, 1, 0, range(1, 61))
        assert np.allclose(irf21, 0.0, atol=1e-14)
        # a nonzero pair decays: late horizons below early ones
        irf22 = np.abs(true_reduced_form_irf(spec, 1, 1, range(1, 61)))
        assert irf22[39:].max() < irf22[:20].max()


def tiny_dfm(**overrides):
    params = dict(
        phi=np.array([[0.8]]),
        h_load=np.array([[1.0]]),
        lam=np.array([[1.0], [0.5], [-0.3]]),
        idio_ar=((0.4,), (0.0,), ()),
        idio_scale=(0.5, 1.0, 0.2),
        T=300,
        burn_in=200,
    )
    params.update(overrides)
    return DfmDgpSpec(**params)


class TestSimulateDfm:
    def test_zero_loadings_leave_idiosyncratic_noise(self):
        spec = tiny_dfm(lam=np.zeros((3, 1)), idio_ar=((), (), ()),
                        idio_scale=(1.0, 2.0, 3.0), T=20_000)
        x = simulate_dfm(spec, seed=0).values
        assert np.std(x[:, 0]) == pytest.approx(1.0, rel=0.05)
        assert np.std(x[:, 1]) == pytest.approx(2.0, rel=0.05)
        assert np.std(x[:, 2]) == pytest.approx(3.0, rel=0.05)

    def test_pure_factor_observation(self):
        spec = tiny_dfm(idio_ar=((), (), ()), idio_scale=(0.0, 0.0, 0.0), T=500)
        x = simulate_dfm(spec, seed=1).values
        # columns are exact multiples of the single factor
        f = x[:, 0] / spec.lam[0, 0]
        assert np.allclose(x[:, 1], 0.5 * f, atol=1e-12)
        assert np.allclose(x[:, 2], -0.3 * f, atol=1e-12)

    def test_factor_autocorrelation(self):
        spec = tiny_dfm(idio_ar=((), (), ()), idio_scale=(0.0, 0.0, 0.0),
                        T=50_000, burn_in=500)
        f = simulate_dfm(spec, seed=2).values[:, 0]
        r1 = np.corrcoef(f[1:], f[:-1])[0, 1]
        assert r1 == pytest.approx(0.8, abs=0.02)

    def test_rejects_explosive_factor(self):
        with pytest.raises(NonStationarySpec):
            tiny_dfm(phi=np.array([[1.05]]))

    def test_rejects_explosive_idiosyncratic(self):
        with pytest.raises(NonStationarySpec):
            tiny_dfm(idio_ar=((1.1,), (), ()))

    def test_true_factor_shock_irf(self):
        spec = tiny_dfm()
        irf = true_dfm_irf(spec, response=1, shock=0, horizons=(0, 1, 2))
        # lam_2 * phi^h * h = 0.5 * 0.8^h
        assert np.allclose(irf, [0.5, 0.4, 0.32])
