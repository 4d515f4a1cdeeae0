"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s) before asserting.
The coverage experiment (criteria 5 and 6) is the long pole at roughly
three to four minutes on one core; everything else is seconds.
"""

import csv
import time

import numpy as np
import pytest
import yaml

from hdlp.cli import main as cli_main
from hdlp.dgp import Section3Design, VarDgpSpec
from hdlp.hac import HacConfig, auto_bandwidth
from hdlp.lp import (
    CONVENTIONAL_LP,
    DOUBLE_OGA,
    LpSpec,
    TimeSeriesMatrix,
    build_lp_dataset,
    double_oga_lp,
)
from hdlp.lpdid import LpDidSpec, PanelDataset, lpdid_estimate
from hdlp.montecarlo import McDesign, run_monte_carlo, section3_mc_design
from hdlp.selection import OgaConfig, max_steps
from hdlp.dgp import spectral_radius, companion_matrix, true_reduced_form_irf
from reference import (
    coverage,
    hac_one,
    hdaic,
    median_width,
    newey_west_one,
    ols_fit,
    order_one,
    project_out,
    select_hdaic,
)

from test_selection import refit_greedy_oracle

FULL_SELECTION = OgaConfig(c_star=1e-12, mbar_scale=1e9)


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}", flush=True)


@pytest.fixture(scope="module")
def section3_report():
    """Shared 500-replication experiment for criteria 5 and 6."""
    design = section3_mc_design(
        Section3Design.sparse(0.5),
        horizons=range(1, 21),
        oga=OgaConfig(c_star=2.0),
        hac=HacConfig(),
    )
    t0 = time.perf_counter()
    rep = run_monte_carlo(
        design,
        methods=(DOUBLE_OGA, CONVENTIONAL_LP),
        n_reps=500,
        levels=(0.95,),
        seed=20240501,
        parallelism=1,
    )
    elapsed = time.perf_counter() - t0
    print(f"\nsection3 experiment: 500 reps in {elapsed:.0f}s, "
          f"{rep.failures} failures", flush=True)
    return rep


def test_criterion_1_selection_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        T = int(rng.integers(20, 51))
        p = int(rng.integers(3, 11))
        W = rng.standard_normal((T, p))
        y = rng.standard_normal(T)
        M = max_steps(T, p, OgaConfig())
        order, sigma_sq, _ = order_one(W, y, M)
        if order != refit_greedy_oracle(W, y, M):
            mismatches += 1
        # stopping rule equals the exhaustive scan
        c = float(rng.uniform(0.5, 4.0))
        values = [hdaic(s, m, p, T, c) for m, s in enumerate(sigma_sq, 1)]
        if select_hdaic(sigma_sq, p, T, c) != int(np.argmin(values)) + 1:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "greedy ordering and stopping match brute-force oracles", ok,
           f"{mismatches} mismatches, {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_estimator_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst_beta, worst_u, worst_fw = 0.0, 0.0, 0.0
    for _ in range(100):
        T = int(rng.integers(40, 81))
        p = int(rng.integers(2, 7))
        names = tuple(["y", "x"] + [f"w{j}" for j in range(p)])
        vals = rng.standard_normal((T, p + 2))
        data = TimeSeriesMatrix(values=vals, columns=names)
        spec = LpSpec(
            response="y", shock="x", horizons=(1,),
            contemporaneous=names[2:], lagged=("y",), lags=1,
        )
        ds = build_lp_dataset(data, spec, 1)
        est = double_oga_lp(ds, FULL_SELECTION, HacConfig())
        assert est.union == tuple(range(ds.W.shape[1]))

        ones = np.ones((ds.effective_T, 1))  # W holds the candidates only
        X = np.column_stack([ds.x, ds.W, ones])
        fit = ols_fit(X, ds.y)
        worst_beta = max(worst_beta, abs(est.beta - fit.coefficients[0]))
        worst_u = max(worst_u, float(np.max(np.abs(est.residuals_u - fit.residuals))))

        controls = np.column_stack([ds.W[:, list(est.union)], ones])
        y_t = project_out(controls, ds.y)
        x_t = project_out(controls, ds.x)
        beta_fw = float(x_t @ y_t) / float(x_t @ x_t)
        worst_fw = max(worst_fw, abs(est.beta - beta_fw))
    ok = worst_beta < 1e-9 and worst_u < 1e-9 and worst_fw < 1e-8
    report(2, "full-selection estimates equal one-shot OLS and the "
              "partialled regression", ok,
           f"beta {worst_beta:.1e}, u {worst_u:.1e}, fw {worst_fw:.1e}")
    assert worst_beta < 1e-9
    assert worst_u < 1e-9
    assert worst_fw < 1e-8


def test_criterion_3_hac_sanity():
    rng = np.random.default_rng(103)
    psi = rng.standard_normal(512)
    exact = newey_west_one(psi, 1) == float(psi @ psi) / 512

    big = rng.standard_normal(20_000)
    lrv = newey_west_one(big, auto_bandwidth(20_000))
    close = abs(lrv - 1.0) < 0.05

    v = rng.standard_normal(400)
    u = rng.standard_normal(400)
    c = 2.31
    s0, t0, o0, _ = hac_one(v, u, K=5)
    s1, t1, o1, _ = hac_one(c * v, u, K=5)
    homog = (
        abs(t1 - c**2 * t0) <= 1e-10 * abs(t0) * c**2
        and abs(o1 - c**2 * o0) <= 1e-10 * abs(o0) * c**2
        and abs(s1 - s0 / c**2) <= 1e-10 * abs(s0)
    )
    ok = exact and close and homog
    report(3, "long-run variance: lag-0 identity, iid target, scale "
              "homogeneity", ok, f"iid estimate {lrv:.4f}")
    assert exact
    assert close
    assert homog


def test_criterion_4_true_irf_oracle():
    ar1 = VarDgpSpec(B=(np.array([[0.5]]),), sigma=np.eye(1))
    scalar_ok = np.array_equal(
        true_reduced_form_irf(ar1, 0, 0, (1, 2, 3)),
        np.array([0.5, 0.25, 0.125]),
    )

    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        while True:
            B = [0.4 * rng.standard_normal((2, 2)) / (k + 1) for k in range(2)]
            if spectral_radius(companion_matrix(B)) < 0.95:
                break
        spec = VarDgpSpec(B=tuple(B), sigma=np.eye(2))
        H = 15
        path = np.zeros((H + 3, 2))
        for t in range(2, H + 3):
            acc = np.array([1.0, 0.0]) if t == 2 else np.zeros(2)
            for ell, b in enumerate(B, start=1):
                acc = acc + b @ path[t - ell]
            path[t] = acc
        for response in (0, 1):
            irf = true_reduced_form_irf(spec, response, 0, range(H + 1))
            worst = max(worst, float(np.max(np.abs(irf - path[2:, response]))))
    ok = scalar_ok and worst < 1e-10
    report(4, "companion-power responses match impulse propagation", ok,
           f"max abs error {worst:.1e}")
    assert scalar_ok
    assert worst < 1e-10


def test_criterion_5_coverage_sparse_design(section3_report):
    cov = [coverage(section3_report, DOUBLE_OGA, h, 0.95) for h in range(1, 21)]
    ok = all(0.90 <= c <= 0.98 for c in cov)
    report(5, "95% coverage within [0.90, 0.98] at horizons 1-20", ok,
           f"min {min(cov):.3f}, max {max(cov):.3f}")
    assert section3_report.failures == 0
    for h, c in enumerate(cov, start=1):
        assert 0.90 <= c <= 0.98, f"horizon {h}: coverage {c:.3f}"


def test_criterion_6_width_ordering(section3_report):
    narrower = 0
    for h in range(1, 21):
        wd = median_width(section3_report, DOUBLE_OGA, h, 0.95)
        wc = median_width(section3_report, CONVENTIONAL_LP, h, 0.95)
        narrower += wd <= wc
    ok = narrower >= 16
    report(6, "selection-based intervals narrower at >= 80% of horizons", ok,
           f"{narrower}/20 horizons")
    assert narrower >= 16


def test_criterion_7_size_under_null():
    # all three series are mutually independent white noise
    dgp = VarDgpSpec(B=(np.zeros((3, 3)),), sigma=np.eye(3), burn_in=20)
    lp = LpSpec(
        response="y2", shock="y1", horizons=(1,),
        contemporaneous=("y2", "y3"), lagged=("y1", "y2", "y3"), lags=2,
    )
    design = McDesign(dgp=dgp, T=200, lp_spec=lp, oga=OgaConfig(c_star=2.0),
                      hac=HacConfig())
    rep = run_monte_carlo(design, methods=(DOUBLE_OGA,), n_reps=500,
                          levels=(0.95,), seed=107)
    cov = coverage(rep, DOUBLE_OGA, 1, 0.95)
    ok = 0.91 <= cov <= 0.99
    report(7, "null coverage of zero effect in [0.91, 0.99]", ok,
           f"coverage {cov:.3f}")
    assert 0.91 <= cov <= 0.99


def build_panel_arrays(n_units, n_periods, outcome_fn, adopt):
    unit, time_, outcome, treat = [], [], [], []
    for i in range(n_units):
        p = adopt.get(i)
        for t in range(n_periods):
            d = 1.0 if p is not None and t >= p else 0.0
            unit.append(i)
            time_.append(t)
            treat.append(d)
            outcome.append(outcome_fn(i, t))
    return PanelDataset(
        unit=np.array(unit), time=np.array(time_),
        outcome=np.array(outcome), treatment=np.array(treat),
    )


def test_criterion_8_lpdid_exactness_and_recovery():
    # noiseless two-group parallel trends: exact recovery
    effects = {0: 0.7, 1: 1.4, 2: 2.1, 3: 2.8}

    def noiseless(i, t):
        base = 3.0 * i + 0.25 * t
        if i == 0 and t >= 12:
            base += effects[min(t - 12, 3)]
        return base

    panel = build_panel_arrays(2, 24, noiseless, adopt={0: 12})
    result = lpdid_estimate(
        panel, LpDidSpec(horizons=(0, 1, 2, 3), method=CONVENTIONAL_LP)
    )
    assert not result.errors
    exact_err = max(
        abs(est.beta - effects[est.horizon]) for est in result.estimates
    )

    # known effect path 0.2 * h over 200 replications, 200 units, 40 periods
    rng = np.random.default_rng(108)
    horizons = (1, 2, 3, 4)
    betas = {h: [] for h in horizons}
    for _ in range(200):
        adopt = {
            i: int(rng.integers(6, 34))
            for i in range(200) if rng.random() < 0.5
        }
        alpha = rng.normal(0.0, 1.0, size=200)
        delta = rng.normal(0.0, 1.0, size=48)
        noise = rng.normal(0.0, 0.5, size=(200, 48))

        def outcome(i, t, adopt=adopt, alpha=alpha, delta=delta, noise=noise):
            val = alpha[i] + delta[t] + noise[i, t]
            p = adopt.get(i)
            if p is not None and t >= p:
                val += 0.2 * (t - p)
            return val

        panel = build_panel_arrays(200, 40, outcome, adopt)
        res = lpdid_estimate(
            panel, LpDidSpec(horizons=horizons, method=CONVENTIONAL_LP)
        )
        for est in res.estimates:
            betas[est.horizon].append(est.beta)

    recovery_ok = True
    detail = []
    for h in horizons:
        arr = np.asarray(betas[h])
        mc_se = arr.std(ddof=1) / np.sqrt(arr.size)
        gap = abs(arr.mean() - 0.2 * h)
        detail.append(f"h={h}: {arr.mean():.4f} vs {0.2 * h:.1f}")
        if gap > 2 * mc_se:
            recovery_ok = False
    ok = exact_err <= 1e-10 and recovery_ok
    report(8, "event-study estimator: exact in noiseless data, unbiased on "
              "the known effect path", ok,
           f"exact err {exact_err:.1e}; " + ", ".join(detail))
    assert exact_err <= 1e-10
    assert recovery_ok


def test_criterion_9_thread_count_determinism(tmp_path):
    cfg = {
        "output": str(tmp_path / "mc.csv"),
        "seed": 109,
        "n_reps": 6,
        "methods": [DOUBLE_OGA, CONVENTIONAL_LP],
        "levels": [0.95],
        "T": 300,
        "design": {"kind": "section3", "variant": "sparse", "rho": 0.5},
        "estimation": {"horizons": [1, 2, 3]},
        "selection": {"c_star": 2.0},
    }
    cfg_path = tmp_path / "cfg.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    outputs = []
    for threads in ("1", "3"):
        assert cli_main(
            ["montecarlo", "--config", str(cfg_path), "--threads", threads]
        ) == 0
        outputs.append((tmp_path / "mc.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report(9, "report bytes identical across worker counts", ok)
    assert ok
    with open(tmp_path / "mc.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 6
