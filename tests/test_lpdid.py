import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import NoCleanControls, NonAbsorbingTreatment, NoTreatedUnits
from hdlp.hac import HacConfig
from hdlp.lp import CONVENTIONAL_LP, DOUBLE_OGA
from hdlp.lpdid import (
    CLEAN,
    TREATED,
    LpDidSpec,
    PanelDataset,
    _cluster_omega,
    _demean_within,
    lpdid_estimate,
    restrict_sample,
)
from hdlp.selection import OgaConfig


def build_panel(n_units, n_periods, outcome_fn, adopt=None, covariates=None):
    """Balanced panel; adopt maps unit -> first treated period (None = never)."""
    adopt = adopt or {}
    unit, time, outcome, treat = [], [], [], []
    cov_data = {k: [] for k in (covariates or {})}
    for i in range(n_units):
        p = adopt.get(i)
        for t in range(n_periods):
            d = 1.0 if p is not None and t >= p else 0.0
            unit.append(f"u{i}")
            time.append(t)
            treat.append(d)
            outcome.append(outcome_fn(i, t, d))
            for k, fn in (covariates or {}).items():
                cov_data[k].append(fn(i, t))
    return PanelDataset(
        unit=np.array(unit, dtype=object),
        time=np.array(time),
        outcome=np.array(outcome),
        treatment=np.array(treat),
        covariates={k: np.array(v) for k, v in cov_data.items()},
    )


class TestPanelValidation:
    def test_rejects_non_absorbing(self):
        with pytest.raises(NonAbsorbingTreatment):
            PanelDataset(
                unit=np.array(["a"] * 4, dtype=object),
                time=np.arange(4),
                outcome=np.zeros(4),
                treatment=np.array([0.0, 1.0, 0.0, 1.0]),
            )

    def test_rejects_duplicate_cells(self):
        with pytest.raises(ValueError):
            PanelDataset(
                unit=np.array(["a", "a"], dtype=object),
                time=np.array([3, 3]),
                outcome=np.zeros(2),
                treatment=np.zeros(2),
            )


class TestRestrictSample:
    def test_never_treated_all_clean(self):
        panel = build_panel(1, 6, lambda i, t, d: float(t))
        idx, labels = restrict_sample(panel, h=1)
        # t=1..4 have both t-1 and t+1 observed
        assert len(idx) == 4
        assert all(label == CLEAN for label in labels)

    def test_rule_application_on_switching_unit(self):
        # D = (0, 0, 1, 1) over t=0..3, h=1:
        # t=2 is newly treated; t=1 fails clean control (D at t+1 is 1);
        # t=0 lacks t-1; t=3 is previously treated.
        panel = build_panel(1, 4, lambda i, t, d: float(t), adopt={0: 2})
        idx, labels = restrict_sample(panel, h=1)
        times = panel.time[idx]
        assert list(times) == [2]
        assert list(labels) == [TREATED]

    def test_previously_treated_always_excluded(self):
        panel = build_panel(2, 8, lambda i, t, d: float(t), adopt={0: 3})
        for h in (0, 1, 2):
            idx, labels = restrict_sample(panel, h)
            treated_unit_times = panel.time[idx][panel.unit[idx] == "u0"]
            assert all(t <= 3 for t in treated_unit_times)

    def test_invariant_to_unit_ordering(self):
        panel = build_panel(3, 6, lambda i, t, d: float(i + t), adopt={1: 3})
        perm = np.random.default_rng(0).permutation(panel.n_rows)
        shuffled = PanelDataset(
            unit=panel.unit[perm], time=panel.time[perm],
            outcome=panel.outcome[perm], treatment=panel.treatment[perm],
        )
        idx_a, lab_a = restrict_sample(panel, 1)
        idx_b, lab_b = restrict_sample(shuffled, 1)
        cells_a = {(panel.unit[r], panel.time[r], l) for r, l in zip(idx_a, lab_a)}
        cells_b = {
            (shuffled.unit[r], shuffled.time[r], l) for r, l in zip(idx_b, lab_b)
        }
        assert cells_a == cells_b


class TestLpDidEstimate:
    def test_noiseless_parallel_trends_exact(self):
        effect = {0: 1.0, 1: 1.5, 2: 2.25}

        def outcome(i, t, d):
            base = 2.0 * i + 0.5 * t
            if i == 0 and t >= 10:
                base += effect[min(t - 10, 2)]
            return base

        panel = build_panel(2, 20, outcome, adopt={0: 10})
        spec = LpDidSpec(horizons=(0, 1, 2), method=CONVENTIONAL_LP)
        result = lpdid_estimate(panel, spec)
        assert not result.errors
        for est in result.estimates:
            assert est.beta == pytest.approx(effect[est.horizon], abs=1e-10)

    def test_matches_direct_dummy_regression(self):
        rng = np.random.default_rng(1)
        panel = build_panel(
            6, 12,
            lambda i, t, d: 0.3 * i + 0.1 * t + 0.8 * d + rng.normal(0, 0.3),
            adopt={0: 5, 1: 7},
            covariates={"z": lambda i, t: np.sin(i + t)},
        )
        spec = LpDidSpec(horizons=(1,), extra_controls=("z",),
                         method=CONVENTIONAL_LP)
        result = lpdid_estimate(panel, spec)
        est = result.by_horizon()[1]

        # independent reimplementation with explicit time dummies
        idx, labels = restrict_sample(panel, 1)
        dy, dd, zs, times = [], [], [], []
        for r, label in zip(idx, labels):
            i, t = panel.unit[r], int(panel.time[r])
            prev = panel.row(i, t - 1)
            ahead = panel.row(i, t + 1)
            dy.append(panel.outcome[ahead] - panel.outcome[prev])
            dd.append(1.0 if label == TREATED else 0.0)
            zs.append(panel.covariates["z"][r])
            times.append(t)
        dy, dd, zs = np.array(dy), np.array(dd), np.array(zs)
        dummies = np.column_stack([
            (np.array(times) == t).astype(float) for t in sorted(set(times))
        ])
        X = np.column_stack([dd, zs, dummies])
        beta = np.linalg.lstsq(X, dy, rcond=None)[0][0]
        assert est.beta == pytest.approx(beta, abs=1e-8)

    def test_known_effect_path_recovered(self):
        rng = np.random.default_rng(2)
        horizons = (1, 2, 3, 4)
        n_reps = 200
        betas = {h: [] for h in horizons}
        for _ in range(n_reps):
            adopt = {i: int(rng.integers(6, 30)) for i in range(40)
                     if rng.random() < 0.5}
            alpha = rng.normal(0, 1, size=40)
            delta = rng.normal(0, 1, size=40 + 8)

            def outcome(i, t, d, alpha=alpha, delta=delta, adopt=adopt):
                val = alpha[i] + delta[t] + rng.normal(0, 0.5)
                p = adopt.get(i)
                if p is not None and t >= p:
                    val += 0.2 * (t - p)
                return val

            panel = build_panel(40, 40, outcome, adopt=adopt)
            result = lpdid_estimate(
                panel, LpDidSpec(horizons=horizons, method=CONVENTIONAL_LP)
            )
            for est in result.estimates:
                betas[est.horizon].append(est.beta)
        for h in horizons:
            arr = np.asarray(betas[h])
            mc_se = arr.std(ddof=1) / np.sqrt(len(arr))
            assert abs(arr.mean() - 0.2 * h) < 2 * mc_se + 1e-12

    def test_zero_effect_rarely_significant(self):
        rng = np.random.default_rng(3)
        n_reps = 100
        calm = 0
        for _ in range(n_reps):
            panel = build_panel(
                12, 16,
                lambda i, t, d: 0.2 * i + 0.3 * t + rng.normal(0, 1e-3),
                adopt={0: 6, 1: 9, 2: 12},
            )
            result = lpdid_estimate(
                panel, LpDidSpec(horizons=(1,), method=CONVENTIONAL_LP)
            )
            est = result.by_horizon()[1]
            calm += abs(est.beta) < 4 * est.se
        assert calm / n_reps >= 0.95

    def test_duplicate_control_column_harmless(self):
        rng = np.random.default_rng(4)
        z = {"z": lambda i, t: np.cos(0.3 * i * t)}
        zz = {"z": z["z"], "z2": z["z"]}
        mk = lambda covs: build_panel(
            8, 14,
            lambda i, t, d: 0.4 * i + 0.2 * t + d + np.sin(i + 2 * t),
            adopt={0: 6, 3: 8}, covariates=covs,
        )
        one = lpdid_estimate(
            mk(z), LpDidSpec(horizons=(1,), extra_controls=("z",),
                             method=CONVENTIONAL_LP))
        two = lpdid_estimate(
            mk(zz), LpDidSpec(horizons=(1,), extra_controls=("z", "z2"),
                              method=CONVENTIONAL_LP))
        assert one.by_horizon()[1].beta == pytest.approx(
            two.by_horizon()[1].beta, abs=1e-9
        )

    @pytest.mark.parametrize("method", [DOUBLE_OGA, CONVENTIONAL_LP])
    def test_control_absorbed_by_time_effects_changes_nothing(self, method):
        rng = np.random.default_rng(7)
        panel = build_panel(
            30, 12, lambda i, t, d: rng.standard_normal() + d,
            adopt={i: 4 + i % 12 for i in range(30) if i % 3},
            covariates={"season": lambda i, t: 3.7 * np.sin(1.3 * t),
                        "z": lambda i, t: np.cos(i * t)},
        )
        plain, with_season = (
            lpdid_estimate(panel, LpDidSpec(horizons=(0, 1, 2), method=method,
                                            extra_controls=controls))
            for controls in (("z",), ("season", "z"))
        )
        assert not plain.errors and not with_season.errors
        for a, b in zip(plain.estimates, with_season.estimates):
            assert b.beta == pytest.approx(a.beta, rel=1e-12)
            assert b.se == pytest.approx(a.se, rel=1e-12)
            assert b.selected == tuple(j + 1 for j in a.selected)

    def test_double_selection_with_outcome_lags(self):
        rng = np.random.default_rng(5)
        state = {}

        def outcome(i, t, d):
            prev = state.get((i, t - 1), 0.0)
            val = 0.5 * prev + 0.1 * i + d * 1.0 + rng.normal(0, 0.4)
            state[(i, t)] = val
            return val

        panel = build_panel(30, 25, outcome, adopt={i: 10 + i % 8 for i in range(12)})
        spec = LpDidSpec(horizons=(1, 2), outcome_lags=3)
        result = lpdid_estimate(panel, spec, OgaConfig(c_star=2.0), HacConfig())
        assert not result.errors
        for est in result.estimates:
            assert est.n_treated > 0 and est.n_clean > 0
            assert abs(est.beta - 1.0) < 6 * est.se

    def test_cluster_variance_option(self):
        rng = np.random.default_rng(6)
        panel = build_panel(
            10, 15,
            lambda i, t, d: 0.3 * i + 0.1 * t + 0.6 * d + rng.normal(0, 0.5),
            adopt={0: 6, 1: 8, 2: 10},
        )
        hac = lpdid_estimate(
            panel, LpDidSpec(horizons=(1,), method=CONVENTIONAL_LP,
                             variance="hac"))
        clu = lpdid_estimate(
            panel, LpDidSpec(horizons=(1,), method=CONVENTIONAL_LP,
                             variance="cluster"))
        a, b = hac.by_horizon()[1], clu.by_horizon()[1]
        assert a.beta == pytest.approx(b.beta)
        assert a.se > 0 and b.se > 0
        assert a.bandwidth is not None and b.bandwidth is None

    def test_no_treated_units_error(self):
        panel = build_panel(3, 8, lambda i, t, d: float(t))
        result = lpdid_estimate(panel, LpDidSpec(horizons=(1,)))
        assert "NoTreatedUnits" in result.errors[1]

    def test_no_clean_controls_error(self):
        # both units adopt at t=1: the only kept rows are newly treated
        panel = build_panel(2, 6, lambda i, t, d: float(t), adopt={0: 1, 1: 1})
        result = lpdid_estimate(panel, LpDidSpec(horizons=(1,)))
        assert "NoCleanControls" in result.errors[1]

    def test_degenerate_when_no_within_time_variation(self):
        # both units adopt together: each time cell is all-treated or all-clean
        panel = build_panel(2, 6, lambda i, t, d: float(t), adopt={0: 3, 1: 3})
        result = lpdid_estimate(panel, LpDidSpec(horizons=(1,)))
        assert "DegenerateShock" in result.errors[1]


def demean_within_loop(groups, *arrays):
    """Reference: one boolean mask per group."""
    out = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    for g in np.unique(groups):
        mask = groups == g
        for a in out:
            a[mask] -= a[mask].mean(axis=0)
    return out


def cluster_omega_loop(groups, psi):
    """Reference: one boolean mask per cluster."""
    return sum(float(psi[groups == g].sum()) ** 2 for g in np.unique(groups))


def random_cells(seed, n_units, n_times):
    """Stacked (unit, time) cells: string unit ids, a time grid with gaps."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.integers(1, 4, size=n_times)) + 1990
    cells = [(f"unit-{i:03d}", t) for i in range(n_units) for t in grid
             if rng.random() < 0.8]
    cells = cells or [("unit-000", int(grid[0]))]
    order = rng.permutation(len(cells))
    units = np.array([cells[k][0] for k in order], dtype=object)
    times = np.array([cells[k][1] for k in order])
    return rng, units, times


class TestVectorizedGroupSums:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.integers(1, 12),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_demean_matches_per_group_loop(self, seed, n_units, n_times, k):
        rng, units, times = random_cells(seed, n_units, n_times)
        n = units.shape[0]
        y = rng.normal(5.0, 3.0, n)
        X = rng.normal(-2.0, 1.0, (n, k))
        for groups in (times, units):
            got = _demean_within(groups, y, X)
            want = demean_within_loop(groups, y, X)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=1e-12,
                                           atol=1e-12 * np.abs(b).max(initial=1.0))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_cluster_omega_matches_per_unit_loop(self, seed, n_units, n_times):
        rng, units, times = random_cells(seed, n_units, n_times)
        psi = rng.standard_normal(units.shape[0])
        want = cluster_omega_loop(units, psi)
        assert _cluster_omega(units, psi) == pytest.approx(want, rel=1e-12)
        assert _cluster_omega(times, psi) == pytest.approx(
            cluster_omega_loop(times, psi), rel=1e-12)
