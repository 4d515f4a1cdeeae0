import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlp.errors import (
    DataError,
    HdlpError,
    NoCleanControls,
    NonAbsorbingTreatment,
    NoTreatedUnits,
)
from hdlp.hac import HacConfig, cluster_omega
from hdlp.lp import CONVENTIONAL_LP, DOUBLE_OGA
from hdlp.lpdid import (
    LpDidSpec,
    PanelDataset,
    _assemble,
    _demean_runs,
    _Layout,
    lpdid_estimate,
    restrict_sample,
)
from hdlp.selection import OgaConfig
from reference import panel_row


def sample(panel, h):
    """The panel rows usable at horizon h, in (time, unit) order, and
    whether each is newly treated."""
    layout = _Layout.of(panel, LpDidSpec(horizons=(h,)))
    pos, _ = restrict_sample(layout, h)
    return layout.rows[pos], layout.treated[pos]


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

    def test_mixed_unit_label_types_are_a_data_error(self):
        with pytest.raises(DataError, match="unit column"):
            PanelDataset(
                unit=np.array([1, "1"], dtype=object),
                time=np.array([0, 1]),
                outcome=np.zeros(2),
                treatment=np.zeros(2),
            )

    def test_rejects_duplicate_cells(self):
        with pytest.raises(DataError, match="duplicate"):
            PanelDataset(
                unit=np.array(["a", "a"], dtype=object),
                time=np.array([3, 3]),
                outcome=np.zeros(2),
                treatment=np.zeros(2),
            )

    def test_rejects_non_binary_treatment(self):
        with pytest.raises(DataError, match="binary"):
            PanelDataset(
                unit=np.array(["a", "a"], dtype=object),
                time=np.array([0, 1]),
                outcome=np.zeros(2),
                treatment=np.array([0.0, 0.5]),
            )

    def test_rejects_times_near_the_int64_limits(self):
        # t - 1 at the smallest int64 would wrap around to the largest
        with pytest.raises(DataError, match="time values"):
            PanelDataset(
                unit=np.array(["a", "a"], dtype=object),
                time=np.array([-(2**63), 2**63 - 1]),
                outcome=np.zeros(2),
                treatment=np.zeros(2),
            )

    @pytest.mark.parametrize("time", [
        [1.5, 2.7],        # would truncate to 1, 2
        [1.0, np.nan],
        [1, 10**20],       # too wide for int64
        [1, 2**63],        # numpy makes this a float array
        [1, 10**400],      # too wide even for a float
    ])
    def test_rejects_non_integral_or_out_of_range_times(self, time):
        with pytest.raises(DataError, match="time values"):
            PanelDataset(
                unit=np.array(["a", "a"], dtype=object),
                time=time,
                outcome=np.zeros(2),
                treatment=np.zeros(2),
            )

    def test_accepts_integral_float_times(self):
        panel = PanelDataset(unit=np.array(["a", "a"], dtype=object),
                             time=[3.0, 4.0], outcome=np.zeros(2),
                             treatment=np.zeros(2))
        assert panel.time.dtype == np.int64 and panel.time.tolist() == [3, 4]

    def test_non_absorbing_on_shuffled_rows_names_the_unit(self):
        # unit "b" goes 0, 1, 0 in time order; its rows are interleaved
        # with the other units' and out of time order
        unit = np.array(["c", "b", "a", "b", "c", "a", "b", "c", "a"], dtype=object)
        time = np.array([2, 7, 0, 3, 0, 1, 5, 1, 2])
        treat = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(NonAbsorbingTreatment, match="unit 'b' "):
            PanelDataset(unit=unit, time=time, outcome=np.zeros(9), treatment=treat)

    def test_row_lookup_matches_a_per_row_dict(self):
        rng = np.random.default_rng(11)
        panel = random_panel(rng, 6, 7, balanced=False, gaps=True, int_ids=False)
        cells = {(u, int(t)): r for r, (u, t) in enumerate(zip(panel.unit, panel.time))}
        assert cells
        for u in ["u0", "u3", "u5", "nobody"]:
            for t in range(1985, 2020):
                assert panel_row(panel, u, t) == cells.get((u, t))
        assert panel_row(panel, 3, 1991) is None

    def test_frozen_so_the_lookup_keys_cannot_go_stale(self):
        panel = build_panel(3, 4, lambda i, t, d: float(i + t))
        with pytest.raises(dataclasses.FrozenInstanceError):
            panel.time = panel.time + 1
        assert panel_row(panel, "u1", 2) == 6

    def test_far_apart_times_build_small_and_look_up_right(self):
        # a dense unit x time grid over this span would need ~10**13 cells
        far = 10**12
        unit = np.array([2, 1, 2, 1, 1, 2, 2, 2])
        time = np.array([far, 0, 1, 1, far, far + 1, 0, far + 2])
        treat = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        tracemalloc.start()
        try:
            panel = PanelDataset(unit=unit, time=time, outcome=np.arange(8.0),
                                 treatment=treat)
            idx, treated = sample(panel, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # unit 2 is observed at 0, 1, far, far + 1, far + 2 and adopts at
        # far + 1; unit 1 at 0, 1, far and never adopts
        assert list(panel._at(np.arange(8), -1)) == [-1, -1, 6, 1, -1, 0, -1, 5]
        assert list(panel._at(np.arange(8), 1)) == [5, 3, -1, -1, -1, 7, 2, -1]
        # only unit 2's t = far + 1 has both t-1 and t+1, and it is newly treated
        assert list(idx) == [5] and treated.tolist() == [True]
        idx0, treated0 = sample(panel, 0)
        assert [(int(panel.unit[r]), int(panel.time[r])) for r in idx0] == [
            (1, 1), (2, 1), (2, far + 1)]
        assert treated0.tolist() == [False, False, True]


class TestRestrictSample:
    def test_never_treated_all_clean(self):
        panel = build_panel(1, 6, lambda i, t, d: float(t))
        idx, treated = sample(panel, h=1)
        # t=1..4 have both t-1 and t+1 observed
        assert len(idx) == 4
        assert treated.dtype == bool and not treated.any()

    def test_rule_application_on_switching_unit(self):
        # D = (0, 0, 1, 1) over t=0..3, h=1:
        # t=2 is newly treated; t=1 fails clean control (D at t+1 is 1);
        # t=0 lacks t-1; t=3 is previously treated.
        panel = build_panel(1, 4, lambda i, t, d: float(t), adopt={0: 2})
        idx, treated = sample(panel, h=1)
        times = panel.time[idx]
        assert list(times) == [2]
        assert treated.tolist() == [True]

    def test_previously_treated_always_excluded(self):
        panel = build_panel(2, 8, lambda i, t, d: float(t), adopt={0: 3})
        for h in (0, 1, 2):
            idx, _ = sample(panel, h)
            treated_unit_times = panel.time[idx][panel.unit[idx] == "u0"]
            assert all(t <= 3 for t in treated_unit_times)

    def test_invariant_to_unit_ordering(self):
        panel = build_panel(3, 6, lambda i, t, d: float(i + t), adopt={1: 3})
        perm = np.random.default_rng(0).permutation(len(panel.unit))
        shuffled = PanelDataset(
            unit=panel.unit[perm], time=panel.time[perm],
            outcome=panel.outcome[perm], treatment=panel.treatment[perm],
        )
        idx_a, treated_a = sample(panel, 1)
        idx_b, treated_b = sample(shuffled, 1)
        cells_a = {(panel.unit[r], panel.time[r], f) for r, f in zip(idx_a, treated_a)}
        cells_b = {
            (shuffled.unit[r], shuffled.time[r], f) for r, f in zip(idx_b, treated_b)
        }
        assert cells_a == cells_b


class TestLpDidEstimate:
    def test_two_row_sample_with_tuned_c_star_fails_its_horizon(self):
        # one newly treated and one clean row: tuning c_star would train on
        # one row, so the horizon fails as a small sample, not as a bug
        panel = build_panel(
            2, 3, lambda i, t, d: 0.3 * i + 0.5 * t + d, adopt={0: 1},
            covariates={"c1": lambda i, t: np.sin(i + 2.0 * t)},
        )
        spec = LpDidSpec(horizons=(1,), extra_controls=("c1",))
        result = lpdid_estimate(panel, spec, OgaConfig(c_star=None))
        assert not result.estimates
        assert result.errors[1].startswith("InsufficientSample: ")
        # a fixed c_star selects on the same two rows, and c1 then spans
        # what is left of the shock
        fixed = lpdid_estimate(panel, spec, OgaConfig(c_star=2.0))
        assert fixed.errors[1].startswith("DegenerateShock: ")

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
        idx, treated = sample(panel, 1)
        dy, dd, zs, times = [], [], [], []
        for r, flag in zip(idx, treated):
            i, t = panel.unit[r], int(panel.time[r])
            prev = panel_row(panel, i, t - 1)
            ahead = panel_row(panel, i, t + 1)
            dy.append(panel.outcome[ahead] - panel.outcome[prev])
            dd.append(float(flag))
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
            assert b.union == tuple(j + 1 for j in a.union)

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

    @pytest.mark.parametrize("method", [DOUBLE_OGA, CONVENTIONAL_LP])
    @pytest.mark.parametrize("variance", ["hac", "cluster"])
    def test_simultaneous_adoption_fails_every_horizon_on_the_span_rule(
        self, method, variance
    ):
        # every unit adopts in period 5: the time effects absorb the whole
        # switch, so the core's shock check fails each horizon, warning-free
        rng = np.random.default_rng(5)
        panel = build_panel(30, 10, lambda i, t, d: 0.3 * i + 0.1 * t + d
                            + rng.normal(0, 0.5), adopt=dict.fromkeys(range(30), 5))
        spec = LpDidSpec(horizons=(0, 1, 2), method=method, variance=variance)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = lpdid_estimate(panel, spec)
        assert not result.estimates
        assert result.errors == dict.fromkeys(
            (0, 1, 2), "DegenerateShock: shock series is constant")

    def test_no_degrees_of_freedom_is_insufficient_sample(self):
        # 9 rows at h=1: rank 5 (shock, lag, 3 covariates) + 4 time effects
        rng = np.random.default_rng(0)
        unit = np.repeat(np.arange(3), 6)
        time = np.tile(np.arange(6), 3)
        treat = (time >= np.array([3, 4, 99])[unit]).astype(float)
        cov = {f"z{k}": rng.standard_normal(unit.size) for k in range(3)}
        panel = PanelDataset(unit=unit, time=time, treatment=treat,
                             outcome=rng.standard_normal(unit.size), covariates=cov)
        spec = LpDidSpec(horizons=(1,), outcome_lags=1, extra_controls=tuple(cov),
                         method=CONVENTIONAL_LP)
        result = lpdid_estimate(panel, spec)
        assert result.errors[1].startswith("InsufficientSample: no residual degrees")
        no_dof = lpdid_estimate(panel, spec, hac_config=HacConfig(dof_correction=False))
        assert not no_dof.errors


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
        M = np.column_stack([y, X])
        for groups in (times, units):
            rows = np.argsort(groups, kind="stable")  # each group one run
            got, n_groups = _demean_runs(groups[rows], M[rows])
            [want] = demean_within_loop(groups[rows], M[rows])
            assert n_groups == len(set(groups))
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(initial=1.0))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_cluster_omega_matches_per_unit_loop(self, seed, n_units, n_times):
        rng, units, times = random_cells(seed, n_units, n_times)
        psi = rng.standard_normal(units.shape[0])
        want = cluster_omega_loop(units, psi)
        assert cluster_omega(units, psi) == pytest.approx(want, rel=1e-12)
        assert cluster_omega(times, psi) == pytest.approx(
            cluster_omega_loop(times, psi), rel=1e-12)


def old_restrict_sample(panel, h):
    """Reference: the per-row engine, one dict lookup per cell."""
    cells = {(u, int(t)): r for r, (u, t) in enumerate(zip(panel.unit, panel.time))}
    keep, treated = [], []
    for r in range(len(panel.unit)):
        i, t = panel.unit[r], int(panel.time[r])
        prev = cells.get((i, t - 1))
        ahead = cells.get((i, t + h))
        if prev is None or ahead is None:
            continue
        if not np.isfinite(panel.outcome[prev]) or not np.isfinite(panel.outcome[ahead]):
            continue
        delta_d = panel.treatment[r] - panel.treatment[prev]
        if delta_d == 1.0:
            keep.append(r)
            treated.append(True)
        elif delta_d == 0.0 and panel.treatment[ahead] == 0.0:
            keep.append(r)
            treated.append(False)
    keep_arr = np.asarray(keep, dtype=np.int64)
    treated_arr = np.asarray(treated, dtype=bool)
    order = np.lexsort((panel.unit[keep_arr], panel.time[keep_arr])) if keep else []
    return keep_arr[order], treated_arr[order]


def old_assemble(panel, spec, h):
    """Reference: per-row long differences and controls, units as values."""
    cells = {(u, int(t)): r for r, (u, t) in enumerate(zip(panel.unit, panel.time))}
    idx, treated = old_restrict_sample(panel, h)
    if not np.any(treated):
        raise NoTreatedUnits(f"no newly treated observations at horizon {h}")
    if np.all(treated):
        raise NoCleanControls(f"no clean-control observations at horizon {h}")
    n_controls = spec.outcome_lags + len(spec.extra_controls)
    rows = []
    for r, flag in zip(idx, treated):
        i, t = panel.unit[r], int(panel.time[r])
        controls = []
        for j in range(1, spec.outcome_lags + 1):
            rl = cells.get((i, t - j))
            controls.append(panel.outcome[rl] if rl is not None else np.nan)
        controls += [panel.covariates[name][r] for name in spec.extra_controls]
        if not np.all(np.isfinite(controls)):
            continue
        dy = panel.outcome[cells[(i, t + h)]] - panel.outcome[cells[(i, t - 1)]]
        rows.append((t, i, dy, float(flag), controls))
    if not rows:
        raise NoTreatedUnits(f"no complete observations at horizon {h}")
    times = np.array([r[0] for r in rows])
    units = np.array([r[1] for r in rows], dtype=object)
    dy = np.array([r[2] for r in rows])
    dd = np.array([r[3] for r in rows])
    C = np.array([r[4] for r in rows]) if n_controls else np.zeros((len(rows), 0))
    if not np.any(dd == 1.0):
        raise NoTreatedUnits(f"no newly treated observations survive at horizon {h}")
    if not np.any(dd == 0.0):
        raise NoCleanControls(f"no clean controls survive at horizon {h}")
    return times, units, dy, dd, C


def random_panel(rng, n_units, n_times, balanced, gaps, int_ids):
    """Absorbing adoption at random periods, rows in shuffled order, 10% NaN
    in the outcome and in both covariates."""
    steps = np.ones(n_times, dtype=np.int64)
    if gaps:  # a quarter of the steps skip one or two periods
        steps += (rng.random(n_times) < 0.25) * rng.integers(1, 3, size=n_times)
    grid = 1990 + np.cumsum(steps)
    # about a third never adopt; the rest switch after the first period
    adopt = np.where(rng.random(n_units) < 1 / 3, n_times,
                     rng.integers(1, max(n_times, 2), size=n_units))
    ids = [7 * i + 3 for i in range(n_units)] if int_ids else [
        f"u{i}" for i in range(n_units)]
    cells = [(ids[i], t, float(k >= adopt[i]))
             for i in range(n_units) for k, t in enumerate(grid)
             if balanced or rng.random() < 0.75]
    cells = [cells[k] for k in rng.permutation(len(cells))]
    n = len(cells)

    def with_nan(x):
        x[rng.random(n) < 0.1] = np.nan
        return x

    return PanelDataset(
        unit=np.array([c[0] for c in cells], dtype=np.int64 if int_ids else object),
        time=np.array([c[1] for c in cells], dtype=np.int64),
        outcome=with_nan(rng.normal(size=n)),
        treatment=np.array([c[2] for c in cells]),
        covariates={"z1": with_nan(rng.normal(size=n)),
                    "z2": with_nan(rng.normal(size=n))},
    )


def old_demean_within(groups, M):
    """Reference: the groups numbered by np.unique, summed by bincount."""
    _, g = np.unique(groups, return_inverse=True)
    counts = np.bincount(g)
    sums = np.column_stack([np.bincount(g, weights=column) for column in M.T])
    return M - (sums / counts[:, None])[g], counts.shape[0]


class TestVectorizedPanelEngine:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 10),
           st.booleans(), st.booleans(), st.booleans(), st.integers(0, 4),
           st.integers(0, 3), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_engine(self, seed, n_units, n_times, balanced,
                                        gaps, int_ids, h, lags, covariates,
                                        time_effects):
        rng = np.random.default_rng(seed)
        panel = random_panel(rng, n_units, n_times, balanced, gaps, int_ids)
        assert np.array_equal(panel.unit_code,
                              np.unique(panel.unit, return_inverse=True)[1])
        idx, treated = sample(panel, h)
        ref_idx, ref_treated = old_restrict_sample(panel, h)
        assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
        assert treated.dtype == ref_treated.dtype and np.array_equal(treated, ref_treated)

        spec = LpDidSpec(horizons=(h,), outcome_lags=lags,
                         extra_controls=("z1", "z2") if covariates else ())
        layout = _Layout.of(panel, spec)
        assert len(layout.control_names) == lags + 2 * covariates
        try:
            want = old_assemble(panel, spec, h)
        except HdlpError as exc:
            with pytest.raises(type(exc)):
                _assemble(layout, h)
            return
        times, units, dy, dd, C = _assemble(layout, h)
        got, ref = [times, dy, dd, C], [want[0], want[2], want[3], want[4]]
        if time_effects:  # the runs of equal time are np.unique's groups
            M, n_runs = _demean_runs(times, np.column_stack([dy, dd, C]))
            M_ref, n_groups = old_demean_within(want[0], np.column_stack(ref[1:]))
            assert n_runs == n_groups
            got, ref = got + [M], ref + [M_ref]
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        # same unit per row, so the same grouping in the same group order
        assert units.dtype.kind == "i"
        assert np.array_equal(np.unique(units, return_inverse=True)[1],
                              np.unique(want[1], return_inverse=True)[1])

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40), st.booleans(),
           st.integers(0, 39))
    @settings(max_examples=100, deadline=None)
    def test_unit_codes_rank_the_labels_as_unique_does(self, ids, as_str, mixed):
        labels = [f"u{i}" for i in ids] if as_str else ids
        unit = np.array(labels, dtype=object if as_str else np.int64)
        n = unit.shape[0]
        panel = PanelDataset(unit=unit, time=np.arange(n), outcome=np.zeros(n),
                             treatment=np.zeros(n))
        assert np.array_equal(panel.unit_code, np.unique(unit, return_inverse=True)[1])
        if n > 1:  # one label of the other type cannot be ordered among them
            unit = np.array(labels, dtype=object)
            unit[mixed % n] = ids[mixed % n] if as_str else f"u{ids[mixed % n]}"
            with pytest.raises(DataError, match="unit column"):
                PanelDataset(unit=unit, time=np.arange(n), outcome=np.zeros(n),
                             treatment=np.zeros(n))

    def test_scale_smoke_96k_rows(self):
        # 4,000 units x 24 periods, a third never treated, the rest adopting
        # between periods 4 and 19; horizons 0-4 with two outcome lags
        rng = np.random.default_rng(21)
        n_units, n_periods = 4000, 24
        adopt = np.where(rng.random(n_units) < 1 / 3, n_periods,
                         rng.integers(4, 20, size=n_units))
        unit = np.repeat(np.arange(n_units), n_periods)
        time = np.tile(np.arange(n_periods), n_units)
        treat = (time >= adopt[unit]).astype(np.float64)
        outcome = (rng.normal(size=n_units)[unit] + rng.normal(size=n_periods)[time]
                   + 0.5 * treat + rng.normal(0.0, 0.5, size=unit.size))
        perm = rng.permutation(unit.size)
        panel = PanelDataset(unit=unit[perm], time=time[perm],
                             outcome=outcome[perm], treatment=treat[perm])
        assert len(panel.unit) == 96_000
        result = lpdid_estimate(
            panel, LpDidSpec(horizons=(0, 1, 2, 3, 4), outcome_lags=2))
        assert not result.errors
        assert [est.horizon for est in result.estimates] == [0, 1, 2, 3, 4]
        for est in result.estimates:
            assert est.n_treated + est.n_clean == est.effective_T
            assert np.isfinite(est.beta) and np.isfinite(est.se) and est.se > 0


def panel_like(panel, rows, unit=None):
    """The panel's cells in the given row order, units optionally renamed."""
    return PanelDataset(
        unit=panel.unit[rows] if unit is None else unit[rows], time=panel.time[rows],
        outcome=panel.outcome[rows], treatment=panel.treatment[rows],
        covariates={k: v[rows] for k, v in panel.covariates.items()},
    )


def assert_bit_identical(a, b):
    assert a.errors == b.errors
    assert len(a.estimates) == len(b.estimates)
    for x, y in zip(a.estimates, b.estimates):
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if isinstance(u, (float, np.ndarray)):
                assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), f.name
            else:
                assert u == v, f.name


class TestInvariance:
    """lpdid_estimate reads a panel by (time, unit rank), so neither the row
    order nor unit names that sort alike can move a bit of its results."""

    @given(st.integers(0, 2**32 - 1), st.integers(4, 14), st.integers(4, 9),
           st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2),
           st.booleans(), st.sampled_from([CONVENTIONAL_LP, DOUBLE_OGA]),
           st.sampled_from(["hac", "cluster"]), st.booleans(),
           st.sampled_from([2.0, None]))
    @settings(max_examples=100, deadline=None)
    def test_row_order_and_unit_names_change_nothing(
            self, seed, n_units, n_times, balanced, gaps, int_ids, lags,
            covariates, method, variance, time_effects, c_star):
        rng = np.random.default_rng(seed)
        panel = random_panel(rng, n_units, n_times, balanced, gaps, int_ids)
        spec = LpDidSpec(horizons=(0, 1, 2), outcome_lags=lags,
                         extra_controls=("z1", "z2") if covariates else (),
                         time_effects=time_effects, method=method, variance=variance)
        oga = OgaConfig(c_star=c_star)
        want = lpdid_estimate(panel, spec, oga)
        rows = rng.permutation(len(panel.unit))
        assert_bit_identical(lpdid_estimate(panel_like(panel, rows), spec, oga), want)
        # new names in the old names' order: integers become padded strings
        # and strings become integers
        _, code = np.unique(panel.unit, return_inverse=True)
        renamed = (np.array([f"id{c:04d}" for c in code], dtype=object) if int_ids
                   else 1000 + 3 * code)
        assert_bit_identical(
            lpdid_estimate(panel_like(panel, rows, renamed), spec, oga), want)
