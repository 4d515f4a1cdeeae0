"""Benchmark inputs, made from the workload seed with numpy alone.

The generators here do not call hdlp, so a change to the package cannot
change the inputs it is measured on. Every file is written with floats at
17 significant digits; the same seed gives byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Ten-variable sparse design at rho = 0.5, as in the paper's section 3.
N_SERIES = 10
DGP_LAGS = 12
RHO = 0.5
TAU = 0.3
BURN_IN = 500
T = 300

# Event-study panel.
PANEL_UNITS = 1000
PANEL_UNITS_SMALL = 250
PANEL_PERIODS = 24
PANEL_COVARIATES = 8
PANEL_BLANK_SHARE = 0.01
COVARIATE_LOADINGS = (0.5, -0.3, 0.2, 0.0, 0.0, 0.0, 0.1, 0.0)


def treatment_effect(h: int) -> float:
    """Effect on y_{t+h} - y_{t-1} for a unit that adopts at t."""
    return 1.0 + 0.25 * h


def section3_lag_matrices() -> list[np.ndarray]:
    """Lag matrices of the sparse section-3 system (no damping is needed)."""
    a = np.linspace(0.4, 0.05, N_SERIES - 1) * (-1.0) ** np.arange(N_SERIES - 1)
    mats = []
    for ell in range(1, DGP_LAGS + 1):
        b = np.zeros((N_SERIES, N_SERIES))
        if ell == 1:
            b[0, 0] = RHO
        b[1:, 1::2] = ((-1.0) ** (ell + 1) * a**ell / ell)[:, None]
        mats.append(b)
    return mats


def simulate_section3(rng: np.random.Generator) -> np.ndarray:
    idx = np.arange(N_SERIES)
    chol = np.linalg.cholesky(TAU ** np.abs(idx[:, None] - idx[None, :]))
    total = T + BURN_IN
    u = rng.standard_normal((total, N_SERIES)) @ chol.T
    mats = section3_lag_matrices()
    y = np.zeros((total, N_SERIES))
    for t in range(total):
        acc = u[t].copy()
        for ell, b in enumerate(mats, start=1):
            if t >= ell:
                acc += b @ y[t - ell]
        y[t] = acc
    return y[BURN_IN:]


def _cell(value) -> str:
    if isinstance(value, float):
        return "" if np.isnan(value) else format(value, ".17g")
    return str(value)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_wide_series(path: Path, seed: int, k: int):
    """The k-th T=300 section-3 dataset of this seed (wide CSV, y1..y10)."""
    values = simulate_section3(np.random.default_rng([seed, 1, k]))
    header = [f"y{i + 1}" for i in range(N_SERIES)]
    write_csv(path, header, values.tolist())


def write_panel(path: Path, seed: int, n_units: int):
    """Long panel: string unit ids, half the units adopting at random periods.

    The outcome is unit + period effects + an AR(1) disturbance + covariate
    loadings + the treatment effect, which enters the level only, so the
    long difference y_{t+h} - y_{t-1} of a unit adopting at t moves by
    treatment_effect(h). One percent of outcome and covariate cells are
    blank.
    """
    rng = np.random.default_rng([seed, 2, n_units])
    P, K = PANEL_PERIODS, PANEL_COVARIATES
    periods = np.arange(1, P + 1)
    adopts = rng.random(n_units) < 0.5
    start = np.where(adopts, rng.integers(4, P + 1, n_units), P + 100)
    alpha = rng.normal(0.0, 1.0, n_units)
    gamma = np.cumsum(rng.normal(0.0, 0.3, P))
    X = rng.normal(0.0, 1.0, (n_units, P, K)) + rng.normal(0.0, 0.5, (n_units, 1, K))
    eps = rng.normal(0.0, 1.0, (n_units, P))
    ar = np.zeros((n_units, P))
    ar[:, 0] = eps[:, 0]
    for t in range(1, P):
        ar[:, t] = 0.5 * ar[:, t - 1] + eps[:, t]
    event = periods[None, :] - start[:, None]
    treated = event >= 0
    effect = np.where(treated, 1.0 + 0.25 * np.maximum(event, 0), 0.0)
    y = alpha[:, None] + gamma[None, :] + ar + X @ np.asarray(COVARIATE_LOADINGS) + effect
    y[rng.random(y.shape) < PANEL_BLANK_SHARE] = np.nan
    X[rng.random(X.shape) < PANEL_BLANK_SHARE] = np.nan

    header = ["unit", "time", "outcome", "treatment"] + [
        f"c{j + 1}" for j in range(K)
    ]
    rows = []
    for i in range(n_units):
        uid = f"u{i:04d}"
        for t in range(P):
            rows.append(
                [uid, int(periods[t]), float(y[i, t]), int(treated[i, t])]
                + [float(v) for v in X[i, t]]
            )
    write_csv(path, header, rows)


def write_config(template: str, path: Path, **overrides):
    """A run config: the bundled template with data/output paths filled in."""
    import yaml

    with open(CONFIG_DIR / template) as fh:
        cfg = yaml.safe_load(fh)
    cfg.update({k: str(v) if isinstance(v, Path) else v for k, v in overrides.items()})
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
