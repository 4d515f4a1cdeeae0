import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import (
    BandwidthTooLarge,
    DegenerateShock,
    DimensionMismatch,
    InsufficientSample,
)
from hdlp.hac import HacConfig, auto_bandwidth, hac_variance, newey_west
from reference import bartlett_sum, hac_one, newey_west_one


class TestNeweyWest:
    def test_k1_is_mean_square(self):
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(64)
        assert newey_west_one(psi, 1) == float(psi @ psi) / 64

    def test_zeros(self):
        assert newey_west_one(np.zeros(32), 4) == 0.0

    def test_white_noise_long_run_variance(self):
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(10_000)
        assert newey_west_one(psi, 5) == pytest.approx(1.0, abs=0.05)

    def test_time_reversal_invariance(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(200)
        assert newey_west_one(psi, 6) == pytest.approx(
            newey_west_one(psi[::-1], 6), abs=1e-12
        )

    def test_positive_on_autocorrelated_series(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal(5000)
        psi = np.convolve(e, [1.0, 0.8, 0.5], mode="valid")
        # long-run variance of this MA(2): (1 + 0.8 + 0.5)^2 = 5.29
        assert newey_west_one(psi, 40) == pytest.approx(5.29, rel=0.15)

    def test_bandwidth_too_large(self):
        with pytest.raises(BandwidthTooLarge):
            newey_west_one(np.ones(5), 5)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            newey_west_one(np.ones(5), 0)


class TestPaddedNeweyWest:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 80),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_column_is_the_one_dimensional_call(self, seed, n, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, 6))
        K = [data.draw(st.integers(1, 8)) for _ in range(k)]
        rows = [data.draw(st.integers(K[i] + 1, n)) for i in range(k)]
        rows[data.draw(st.integers(0, k - 1))] = n  # one column fills the rows
        psi = rng.standard_normal((n, k))
        if data.draw(st.booleans()):  # an alternating series cancels its lags
            psi[:, 0] = np.where(np.arange(n) % 2, 1.0, -1.0) + 1e-3 * psi[:, 0]
        psi[np.arange(n)[:, None] >= np.array(rows)] = 0.0
        got = newey_west(psi, K, rows)
        for i in range(k):
            want = newey_west_one(psi[: rows[i], i], K[i])
            if rows[i] == n:  # no padding: the same dots, bit for bit
                assert got[i] == want
            scale = float(psi[:, i] @ psi[:, i]) / rows[i]
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)

    def test_a_one_dimensional_series_is_refused(self):
        with pytest.raises(DimensionMismatch):
            newey_west(np.ones(10), 2)
        with pytest.raises(DimensionMismatch):
            hac_variance(np.ones(10), np.ones(10))
        with pytest.raises(DimensionMismatch):
            hac_variance(np.ones((10, 2)), np.ones((10, 3)))

    def test_shared_bandwidth_and_full_rows_by_default(self):
        psi = np.random.default_rng(8).standard_normal((50, 3))
        got = newey_west(psi, 4)
        assert list(got) == [newey_west_one(psi[:, i], 4) for i in range(3)]

    def test_a_column_shorter_than_its_bandwidth_is_refused(self):
        with pytest.raises(BandwidthTooLarge):
            newey_west(np.ones((10, 2)), [2, 5], [10, 5])

    def test_pairs_are_the_one_dimensional_calls(self):
        rng = np.random.default_rng(9)
        n = 60
        rows = [60, 41, 7, 30, 6]
        v, u = rng.standard_normal((2, n, 5))
        v[:, 3] = 0.0  # a zero shock residual
        outside = np.arange(n)[:, None] >= np.array(rows)
        v[outside] = u[outside] = 0.0
        got = hac_variance(v, u, rows=rows)
        for i, r in enumerate(rows):
            try:
                want = hac_one(v[:r, i], u[:r, i])
            except (InsufficientSample, DegenerateShock, BandwidthTooLarge) as exc:
                assert type(got[i]) is type(exc) and str(got[i]) == str(exc)
                continue
            assert got[i][3] == want[3]
            assert got[i][:3] == pytest.approx(want[:3], rel=1e-12)
        assert [type(g).__name__ for g in got[2:]] == [
            "InsufficientSample", "DegenerateShock", "InsufficientSample"
        ]
        groups = np.repeat(np.arange(12), 5)
        clustered = hac_variance(v[:, :2], u[:, :2], clusters=groups, rows=rows[:2])
        for i, r in enumerate(rows[:2]):
            want = hac_one(v[:r, i], u[:r, i], clusters=groups[:r])
            assert clustered[i][3] is want[3] is None
            assert clustered[i][:3] == pytest.approx(want[:3], rel=1e-12)


class TestBatchOfOne:
    """A batch of one series equals the one-series oracle: the Bartlett sum
    as it is defined, and tau_sq and sigma_sq read off it."""

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(10, 120),
           K=st.integers(1, 9), autocorrelated=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_newey_west_and_hac_variance(self, seed, T, K, autocorrelated):
        rng = np.random.default_rng(seed)
        v, u = rng.standard_normal((2, T))
        if autocorrelated:
            v = np.cumsum(v) / np.sqrt(np.arange(1, T + 1))
        psi = v * u
        [omega] = newey_west(psi[:, None], K)
        want = bartlett_sum(psi, K)
        if want < 0.0:  # a rounding artifact, floored
            assert omega == 1e-14 * float(np.var(psi))
        else:
            assert omega == pytest.approx(want, rel=1e-12, abs=1e-14 * float(psi @ psi))
        [(sigma_sq, tau_sq, omega_hac, K_used)] = hac_variance(v[:, None], u[:, None], K)
        assert (omega_hac, K_used) == (omega, K)
        assert tau_sq == pytest.approx(float(v @ v) / T, rel=1e-15)
        assert sigma_sq == omega / tau_sq**2


class TestHacVariance:
    def test_iid_unit_variance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(20_000)
        u = rng.standard_normal(20_000)
        sigma_sq, tau_sq, omega, _ = hac_one(v, u)
        # omega -> Var(v*u) = 1, tau_sq -> 1, so sigma_sq -> 1
        assert sigma_sq == pytest.approx(1.0, rel=0.05)
        assert tau_sq == pytest.approx(1.0, rel=0.05)
        assert omega == pytest.approx(1.0, rel=0.05)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(500)
        u = rng.standard_normal(500)
        c = 3.7
        s0, t0, o0, k0 = hac_one(v, u, K=4)
        s1, t1, o1, k1 = hac_one(c * v, u, K=4)
        assert t1 == pytest.approx(c**2 * t0, rel=1e-10)
        assert o1 == pytest.approx(c**2 * o0, rel=1e-10)
        assert s1 == pytest.approx(s0 / c**2, rel=1e-10)
        assert k0 == k1 == 4

    def test_k1_reduces_to_white_form(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(100)
        u = rng.standard_normal(100)
        sigma_sq, tau_sq, _, _ = hac_one(v, u, K=1)
        psi = v * u
        assert sigma_sq == pytest.approx((psi @ psi / 100) / tau_sq**2)

    def test_degenerate_shock(self):
        with pytest.raises(DegenerateShock):
            hac_one(np.zeros(50), np.ones(50))

    def test_auto_bandwidth_values(self):
        # floor(4 * (T/100)^(2/9)) + 1
        assert auto_bandwidth(100) == 5
        assert auto_bandwidth(300) == 6
        assert auto_bandwidth(20_000) == 13

    def test_auto_used_when_unset(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(300)
        u = rng.standard_normal(300)
        *_, k = hac_one(v, u)
        assert k == auto_bandwidth(300)


class TestHacConfig:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            HacConfig(bandwidth=0)

    def test_rejects_unknown_psi_source(self):
        with pytest.raises(ValueError):
            HacConfig(psi_source="whatever")
