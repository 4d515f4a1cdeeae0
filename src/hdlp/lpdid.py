"""Event-study estimation on panels with a clean-control sample restriction.

For horizon h the long difference y_{t+h} - y_{t-1} is regressed on the
treatment switch for observations that are either newly treated at t or
still untreated at t+h; everything else (already treated, or treated during
the window) is dropped. Time effects are absorbed by within-period
demeaning, which keeps them out of the penalty. The regression itself is the
time-series partialling-out core (``lp._partial_out``): lagged outcomes and
extra covariates are screened by double selection or all kept, and the
switch coefficient is read off the residuals. What is specific to panels
stays here: the demeaning, the variance choice and the absorbed time effects
in the degrees of freedom. Standard errors come from the same v*u long-run
variance as the time-series estimator, computed over the restricted sample
ordered by (time, unit), or from a by-unit cluster sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateShock,
    DimensionMismatch,
    HdlpError,
    NoCleanControls,
    NonAbsorbingTreatment,
    NoTreatedUnits,
)
from .hac import HacConfig, hac_variance
from .linalg import SPAN_RTOL
from .lp import DOUBLE_OGA, METHODS, _confidence_intervals, _partial_out
from .selection import OgaConfig

TREATED = "treated"
CLEAN = "clean"

VARIANCE_HAC = "hac"
VARIANCE_CLUSTER = "cluster"


@dataclass(eq=False)
class PanelDataset:
    """Long-format panel: one row per (unit, time).

    Treatment must be absorbing within each unit. Outcome and covariates may
    contain NaN; such rows drop out per horizon wherever they are needed.
    """

    unit: np.ndarray
    time: np.ndarray
    outcome: np.ndarray
    treatment: np.ndarray
    covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.unit = np.asarray(self.unit)
        self.time = np.asarray(self.time, dtype=np.int64)
        self.outcome = np.asarray(self.outcome, dtype=np.float64)
        self.treatment = np.asarray(self.treatment, dtype=np.float64)
        n = self.unit.shape[0]
        for name, arr in (("time", self.time), ("outcome", self.outcome),
                          ("treatment", self.treatment)):
            if arr.shape[0] != n:
                raise DimensionMismatch(f"{name} length differs from unit length")
        self.covariates = {
            k: np.asarray(v, dtype=np.float64) for k, v in self.covariates.items()
        }
        for k, v in self.covariates.items():
            if v.shape[0] != n:
                raise DimensionMismatch(f"covariate {k!r} length differs")
        if not np.all(np.isin(self.treatment, (0.0, 1.0))):
            raise ValueError("treatment must be binary 0/1 with no missing values")

        self._row: dict[tuple, int] = {}
        for r, (i, t) in enumerate(zip(self.unit, self.time)):
            key = (i, int(t))
            if key in self._row:
                raise ValueError(f"duplicate (unit, time) pair {key}")
            self._row[key] = r

        for i in np.unique(self.unit):
            mask = self.unit == i
            d = self.treatment[mask][np.argsort(self.time[mask])]
            if np.any(np.diff(d) < 0):
                raise NonAbsorbingTreatment(
                    f"unit {i!r} switches from treated back to untreated"
                )

    @property
    def n_rows(self) -> int:
        return self.unit.shape[0]

    def row(self, unit, time: int) -> int | None:
        return self._row.get((unit, int(time)))


def restrict_sample(panel: PanelDataset, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows usable at horizon h, each labeled "treated" or "clean".

    A row (i, t) is kept when the unit is observed at t-1 and t+h with
    non-missing outcomes there, and it is either newly treated at t or still
    untreated at t+h. Previously treated rows satisfy neither and drop out.
    Returned indices are ordered by (time, unit).
    """
    keep: list[int] = []
    labels: list[str] = []
    for r in range(panel.n_rows):
        i, t = panel.unit[r], int(panel.time[r])
        prev = panel.row(i, t - 1)
        ahead = panel.row(i, t + h)
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


@dataclass(frozen=True)
class LpDidSpec:
    """Estimation layout: horizons, outcome-lag controls, variance flavor."""

    horizons: tuple[int, ...]
    outcome_lags: int = 0
    extra_controls: tuple[str, ...] = ()
    time_effects: bool = True
    method: str = DOUBLE_OGA
    levels: tuple[float, ...] = (0.95,)
    variance: str = VARIANCE_HAC

    def __post_init__(self):
        object.__setattr__(self, "horizons", tuple(int(h) for h in self.horizons))
        object.__setattr__(self, "extra_controls", tuple(self.extra_controls))
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.horizons or any(h < 0 for h in self.horizons):
            raise ValueError("horizons must be nonempty and nonnegative")
        if self.outcome_lags < 0:
            raise ValueError("outcome_lags must be nonnegative")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.variance not in (VARIANCE_HAC, VARIANCE_CLUSTER):
            raise ValueError(f"unknown variance {self.variance!r}")


@dataclass(eq=False)
class LpDidEstimate:
    horizon: int
    method: str
    beta: float
    se: float
    cis: dict[float, tuple[float, float]]
    n_treated: int
    n_clean: int
    selected: tuple[int, ...]
    control_names: tuple[str, ...]
    bandwidth: int | None
    variance: str
    effective_T: int


@dataclass(eq=False)
class LpDidResult:
    estimates: tuple[LpDidEstimate, ...]
    errors: dict[int, str]

    def by_horizon(self) -> dict[int, LpDidEstimate]:
        return {est.horizon: est for est in self.estimates}


def _assemble(panel: PanelDataset, spec: LpDidSpec, h: int):
    """Long differences, treatment switch, controls; listwise-complete rows."""
    idx, labels = restrict_sample(panel, h)
    if idx.size == 0 or not np.any(labels == TREATED):
        raise NoTreatedUnits(f"no newly treated observations at horizon {h}")
    if not np.any(labels == CLEAN):
        raise NoCleanControls(f"no clean-control observations at horizon {h}")

    control_names = tuple(
        f"outcome_lag{j}" for j in range(1, spec.outcome_lags + 1)
    ) + spec.extra_controls

    rows = []
    for r, label in zip(idx, labels):
        i, t = panel.unit[r], int(panel.time[r])
        prev = panel.row(i, t - 1)
        ahead = panel.row(i, t + h)
        controls = []
        complete = True
        for j in range(1, spec.outcome_lags + 1):
            rl = panel.row(i, t - j)
            val = panel.outcome[rl] if rl is not None else np.nan
            if not np.isfinite(val):
                complete = False
                break
            controls.append(val)
        if complete:
            for name in spec.extra_controls:
                val = panel.covariates[name][r]
                if not np.isfinite(val):
                    complete = False
                    break
                controls.append(val)
        if not complete:
            continue
        dy = panel.outcome[ahead] - panel.outcome[prev]
        dd = 1.0 if label == TREATED else 0.0
        rows.append((int(panel.time[r]), panel.unit[r], dy, dd, controls))

    if not rows:
        raise NoTreatedUnits(f"no complete observations at horizon {h}")
    times = np.array([r[0] for r in rows])
    units = np.array([r[1] for r in rows], dtype=object)
    dy = np.array([r[2] for r in rows])
    dd = np.array([r[3] for r in rows])
    C = (
        np.array([r[4] for r in rows])
        if control_names
        else np.zeros((len(rows), 0))
    )
    if not np.any(dd == 1.0):
        raise NoTreatedUnits(f"no newly treated observations survive at horizon {h}")
    if not np.any(dd == 0.0):
        raise NoCleanControls(f"no clean controls survive at horizon {h}")
    return times, units, dy, dd, C, control_names


def _demean_within(groups: np.ndarray, *arrays):
    """Subtract group means from 1-D or 2-D arrays; returns demeaned copies."""
    _, g = np.unique(groups, return_inverse=True)
    counts = np.bincount(g)
    out = []
    for a in arrays:
        cols = np.asarray(a, dtype=np.float64).reshape(g.shape[0], -1)
        means = np.empty((counts.shape[0], cols.shape[1]))
        for j in range(cols.shape[1]):
            means[:, j] = np.bincount(g, weights=cols[:, j]) / counts
        out.append((cols - means[g]).reshape(np.shape(a)))
    return out


def _cluster_omega(groups: np.ndarray, psi: np.ndarray) -> float:
    """Sum over groups of the squared within-group sum of psi."""
    _, g = np.unique(groups, return_inverse=True)
    return float(np.sum(np.bincount(g, weights=psi) ** 2))


def _lpdid_one(
    panel: PanelDataset,
    spec: LpDidSpec,
    h: int,
    oga_config: OgaConfig,
    hac_config: HacConfig,
) -> LpDidEstimate:
    times, units, dy, dd, C, control_names = _assemble(panel, spec, h)
    n_treated = int(np.sum(dd == 1.0))
    n_clean = int(np.sum(dd == 0.0))

    keep = np.arange(C.shape[1])
    if spec.time_effects:
        norms = np.linalg.norm(C, axis=0)
        dy, dd, C = _demean_within(times, dy, dd, C)
        # a control the time effects absorb is left with rounding noise only
        keep = np.flatnonzero(np.linalg.norm(C, axis=0) > SPAN_RTOL * norms)
        C = C[:, keep]
        base = None
    else:
        base = np.ones((dy.shape[0], 1))

    if float(dd @ dd) / dd.shape[0] < 1e-12:
        raise DegenerateShock(
            "treatment switch has no variation within time cells"
        )

    fit = _partial_out(C, base, dd, dy, spec.method, oga_config)
    T = dy.shape[0]

    if spec.variance == VARIANCE_HAC:
        sigma_sq, _, _, bandwidth = hac_variance(fit.v, fit.u, hac_config.bandwidth)
    else:
        tau_sq = float(fit.v @ fit.v) / T
        if tau_sq < 1e-12:
            raise DegenerateShock("treatment residual variance is numerically zero")
        omega = _cluster_omega(units, fit.v * fit.u) / T
        sigma_sq = omega / tau_sq**2
        bandwidth = None
    if hac_config.dof_correction:
        absorbed = len(np.unique(times)) if spec.time_effects else 0
        dof = T - fit.rank - absorbed
        if dof <= 0:
            raise DegenerateShock(
                f"no residual degrees of freedom: T={T}, design rank "
                f"{fit.rank} plus {absorbed} absorbed time effects"
            )
        sigma_sq *= T / dof
    se = float(np.sqrt(sigma_sq / T))

    return LpDidEstimate(
        horizon=h,
        method=spec.method,
        beta=fit.beta,
        se=se,
        cis=_confidence_intervals(fit.beta, se, spec.levels),
        n_treated=n_treated,
        n_clean=n_clean,
        selected=tuple(int(keep[j]) for j in fit.union),
        control_names=control_names,
        bandwidth=bandwidth,
        variance=spec.variance,
        effective_T=T,
    )


def lpdid_estimate(
    panel: PanelDataset,
    spec: LpDidSpec,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
) -> LpDidResult:
    """Per-horizon event-study estimates.

    Package errors and linear-algebra failures at one horizon are recorded
    and do not abort the others; any other exception propagates.
    """
    oga_config = oga_config or OgaConfig()
    hac_config = hac_config or HacConfig()
    estimates: list[LpDidEstimate] = []
    errors: dict[int, str] = {}
    for h in spec.horizons:
        try:
            estimates.append(_lpdid_one(panel, spec, h, oga_config, hac_config))
        except (HdlpError, np.linalg.LinAlgError) as exc:
            errors[h] = f"{type(exc).__name__}: {exc}"
    return LpDidResult(estimates=tuple(estimates), errors=errors)
