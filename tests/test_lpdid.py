import tracemalloc

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
    CLEAN,
    TREATED,
    LpDidSpec,
    PanelDataset,
    _assemble,
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
                assert panel.row(u, t) == cells.get((u, t))
        assert panel.row(3, 1991) is None

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
            idx, labels = restrict_sample(panel, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # unit 2 is observed at 0, 1, far, far + 1, far + 2 and adopts at
        # far + 1; unit 1 at 0, 1, far and never adopts
        assert list(panel._at(np.arange(8), -1)) == [-1, -1, 6, 1, -1, 0, -1, 5]
        assert list(panel._at(np.arange(8), 1)) == [5, 3, -1, -1, -1, 7, 2, -1]
        # only unit 2's t = far + 1 has both t-1 and t+1, and it is newly treated
        assert list(idx) == [5] and list(labels) == [TREATED]
        idx0, labels0 = restrict_sample(panel, 0)
        assert [(int(panel.unit[r]), int(panel.time[r])) for r in idx0] == [
            (1, 1), (2, 1), (2, far + 1)]
        assert list(labels0) == [CLEAN, CLEAN, TREATED]


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
        assert cluster_omega(units, psi) == pytest.approx(want, rel=1e-12)
        assert cluster_omega(times, psi) == pytest.approx(
            cluster_omega_loop(times, psi), rel=1e-12)


def old_restrict_sample(panel, h):
    """Reference: the per-row engine, one dict lookup per cell."""
    cells = {(u, int(t)): r for r, (u, t) in enumerate(zip(panel.unit, panel.time))}
    keep, labels = [], []
    for r in range(panel.n_rows):
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
            labels.append(TREATED)
        elif delta_d == 0.0 and panel.treatment[ahead] == 0.0:
            keep.append(r)
            labels.append(CLEAN)
    keep_arr = np.asarray(keep, dtype=np.int64)
    labels_arr = np.asarray(labels, dtype=object)
    order = np.lexsort((panel.unit[keep_arr], panel.time[keep_arr])) if keep else []
    return keep_arr[order], labels_arr[order]


def old_assemble(panel, spec, h):
    """Reference: per-row long differences and controls, units as values."""
    cells = {(u, int(t)): r for r, (u, t) in enumerate(zip(panel.unit, panel.time))}
    idx, labels = old_restrict_sample(panel, h)
    if idx.size == 0 or not np.any(labels == TREATED):
        raise NoTreatedUnits(f"no newly treated observations at horizon {h}")
    if not np.any(labels == CLEAN):
        raise NoCleanControls(f"no clean-control observations at horizon {h}")
    n_controls = spec.outcome_lags + len(spec.extra_controls)
    rows = []
    for r, label in zip(idx, labels):
        i, t = panel.unit[r], int(panel.time[r])
        controls = []
        for j in range(1, spec.outcome_lags + 1):
            rl = cells.get((i, t - j))
            controls.append(panel.outcome[rl] if rl is not None else np.nan)
        controls += [panel.covariates[name][r] for name in spec.extra_controls]
        if not np.all(np.isfinite(controls)):
            continue
        dy = panel.outcome[cells[(i, t + h)]] - panel.outcome[cells[(i, t - 1)]]
        rows.append((t, i, dy, 1.0 if label == TREATED else 0.0, controls))
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


class TestVectorizedPanelEngine:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 10),
           st.booleans(), st.booleans(), st.booleans(), st.integers(0, 4),
           st.integers(0, 3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_engine(self, seed, n_units, n_times, balanced,
                                        gaps, int_ids, h, lags, covariates):
        rng = np.random.default_rng(seed)
        panel = random_panel(rng, n_units, n_times, balanced, gaps, int_ids)
        idx, labels = restrict_sample(panel, h)
        ref_idx, ref_labels = old_restrict_sample(panel, h)
        assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
        assert list(labels) == list(ref_labels)

        spec = LpDidSpec(horizons=(h,), outcome_lags=lags,
                         extra_controls=("z1", "z2") if covariates else ())
        try:
            want = old_assemble(panel, spec, h)
        except HdlpError as exc:
            with pytest.raises(type(exc)):
                _assemble(panel, spec, h)
            return
        times, units, dy, dd, C, names = _assemble(panel, spec, h)
        assert len(names) == lags + 2 * covariates
        for got, ref in ((times, want[0]), (dy, want[2]), (dd, want[3]),
                         (C, want[4])):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)
        # same unit per row, so the same grouping in the same group order
        assert units.dtype.kind == "i"
        assert np.array_equal(np.unique(units, return_inverse=True)[1],
                              np.unique(want[1], return_inverse=True)[1])

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
        assert panel.n_rows == 96_000
        result = lpdid_estimate(
            panel, LpDidSpec(horizons=(0, 1, 2, 3, 4), outcome_lags=2))
        assert not result.errors
        assert [est.horizon for est in result.estimates] == [0, 1, 2, 3, 4]
        for est in result.estimates:
            assert est.n_treated + est.n_clean == est.effective_T
            assert np.isfinite(est.beta) and np.isfinite(est.se) and est.se > 0
