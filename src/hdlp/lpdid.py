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
in the degrees of freedom. Standard errors come from the time-series
inference tail (``lp._inference``); a panel horizon is the core's batch of
one. Its variance is the same v*u long-run variance, computed over the
restricted sample ordered by (time, unit), or a by-unit cluster sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateShock,
    DimensionMismatch,
    HdlpError,
    NoCleanControls,
    NonAbsorbingTreatment,
    NoTreatedUnits,
)
from .hac import HacConfig
from .linalg import SPAN_RTOL
from .lp import DEFAULT_LEVELS, DOUBLE_OGA, METHODS, _inference, _partial_out
from .selection import OgaConfig, _unwrap

TREATED = "treated"
CLEAN = "clean"

VARIANCE_HAC = "hac"
VARIANCE_CLUSTER = "cluster"


@dataclass(eq=False)
class PanelDataset:
    """Long-format panel: one row per (unit, time).

    Treatment must be absorbing within each unit. Outcome and covariates may
    contain NaN; such rows drop out per horizon wherever they are needed.
    ``unit_code`` holds each row's unit as its rank among the sorted units.
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
            raise DataError("treatment must be binary 0/1 with no missing values")
        if n and not -(2**62) < self.time.min() <= self.time.max() < 2**62:
            # keeps time + k lookups clear of int64 wrap-around
            raise DataError("time values must lie strictly within +-2**62")

        # one key per row, (unit code, time rank) flattened: memory stays
        # O(rows) however sparse the time coding is
        self._units, self.unit_code = np.unique(self.unit, return_inverse=True)
        self._times, time_rank = np.unique(self.time, return_inverse=True)
        key = self.unit_code * self._times.shape[0] + time_rank
        self._order = np.argsort(key)
        self._keys = key[self._order]

        same = np.diff(self._keys) == 0
        if np.any(same):
            r = self._order[np.argmax(same)]
            raise DataError(
                f"duplicate (unit, time) pair ({self.unit[r]!r}, {self.time[r]})"
            )
        same_unit = np.diff(self.unit_code[self._order]) == 0
        back = same_unit & (np.diff(self.treatment[self._order]) < 0)
        if np.any(back):
            i = self.unit[self._order[np.argmax(back)]]
            raise NonAbsorbingTreatment(
                f"unit {i!r} switches from treated back to untreated"
            )

    @property
    def n_rows(self) -> int:
        return self.unit.shape[0]

    def _find(self, codes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Row of each (unit code, time) cell, -1 where the panel lacks it."""
        rank = np.searchsorted(self._times, times)
        rank_ok = rank < self._times.shape[0]
        rank = np.where(rank_ok, rank, 0)
        key = codes * self._times.shape[0] + rank
        pos = np.minimum(np.searchsorted(self._keys, key), self._keys.shape[0] - 1)
        found = rank_ok & (self._times[rank] == times) & (self._keys[pos] == key)
        return np.where(found, self._order[pos], -1)

    def _at(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Row of the same unit k periods after each row's time, or -1."""
        return self._find(self.unit_code[rows], self.time[rows] + k)

    def row(self, unit, time: int) -> int | None:
        code = np.flatnonzero(self._units == unit)
        if code.size == 0:
            return None
        r = int(self._find(code, np.array([int(time)]))[0])
        return r if r >= 0 else None


def restrict_sample(panel: PanelDataset, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows usable at horizon h, each labeled "treated" or "clean".

    A row (i, t) is kept when the unit is observed at t-1 and t+h with
    non-missing outcomes there, and it is either newly treated at t or still
    untreated at t+h. Previously treated rows satisfy neither and drop out.
    Returned indices are ordered by (time, unit).
    """
    rows = np.arange(panel.n_rows)
    prev, ahead = panel._at(rows, -1), panel._at(rows, h)
    y, d = panel.outcome, panel.treatment
    seen = (prev >= 0) & (ahead >= 0)
    seen[seen] = np.isfinite(y[prev[seen]]) & np.isfinite(y[ahead[seen]])
    rows, prev, ahead = rows[seen], prev[seen], ahead[seen]
    delta_d = d[rows] - d[prev]
    treated = delta_d == 1.0
    keep = treated | ((delta_d == 0.0) & (d[ahead] == 0.0))
    rows, treated = rows[keep], treated[keep]
    order = np.lexsort((panel.unit_code[rows], panel.time[rows]))
    labels = np.where(treated[order], TREATED, CLEAN).astype(object)
    return rows[order], labels


@dataclass(frozen=True)
class LpDidSpec:
    """Estimation layout: horizons, outcome-lag controls, variance flavor."""

    horizons: tuple[int, ...]
    outcome_lags: int = 0
    extra_controls: tuple[str, ...] = ()
    time_effects: bool = True
    method: str = DOUBLE_OGA
    levels: tuple[float, ...] = DEFAULT_LEVELS
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

    cols = []
    for j in range(1, spec.outcome_lags + 1):
        lag = panel._at(idx, -j)
        cols.append(np.where(lag >= 0, panel.outcome[lag], np.nan))
    cols += [panel.covariates[name][idx] for name in spec.extra_controls]
    C = np.column_stack(cols) if cols else np.zeros((idx.shape[0], 0))
    complete = np.isfinite(C).all(axis=1)
    idx, C = idx[complete], C[complete]
    if idx.size == 0:
        raise NoTreatedUnits(f"no complete observations at horizon {h}")

    times = panel.time[idx]
    units = panel.unit_code[idx]
    dy = panel.outcome[panel._at(idx, h)] - panel.outcome[panel._at(idx, -1)]
    dd = (labels[complete] == TREATED).astype(np.float64)
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

    if float(dd @ dd) / dd.shape[0] < 1e-12:
        raise DegenerateShock(
            "treatment switch has no variation within time cells"
        )

    fit = _partial_out(C, not spec.time_effects, dd, dy, spec.method, oga_config)
    se, cis, _, _, _, bandwidth = _unwrap(_inference(
        [fit], hac_config, spec.levels,
        clusters=units if spec.variance == VARIANCE_CLUSTER else None,
        absorbed=len(np.unique(times)) if spec.time_effects else 0,
    )[0])
    return LpDidEstimate(
        horizon=h,
        method=spec.method,
        beta=fit.beta,
        se=se,
        cis=cis,
        n_treated=n_treated,
        n_clean=n_clean,
        selected=tuple(int(keep[j]) for j in fit.union),
        control_names=control_names,
        bandwidth=bandwidth,
        variance=spec.variance,
        effective_T=dy.shape[0],
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
