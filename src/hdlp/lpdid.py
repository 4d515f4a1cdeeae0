"""Event-study estimation on panels with a clean-control sample restriction.

For horizon h the long difference y_{t+h} - y_{t-1} is regressed on the
treatment switch for observations that are either newly treated at t or
still untreated at t+h; everything else (already treated, or treated during
the window) is dropped. Time effects are absorbed by within-period
demeaning, which keeps them out of the penalty. Each horizon is one
``LpDataset`` (long difference, switch, the controls the time effects kept,
a constant only without time effects) fitted by the time-series entry
``lp._fit`` as a batch of one: lagged outcomes and extra covariates are
screened by double selection or all kept, and the switch coefficient is read
off the residuals. What is specific to panels stays here: the demeaning, the
variance choice and the absorbed time effects, which count in the design
rank and so in the degrees of freedom. The variance is the same v*u
long-run variance, computed over the restricted sample ordered by (time,
unit), or a by-unit cluster sum.

``lpdid_estimate`` returns the time-series ``IrfResult`` of ``LpEstimate``
records, with the same failure policy as ``estimate_irf``. Each record
carries the core's rank, variance pieces and c_star values; LP-DiD adds
n_treated, n_clean, control_names (the candidates, lagged outcomes first)
and the variance kind, and its selections index control_names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    NoCleanControls,
    NonAbsorbingTreatment,
    NoTreatedUnits,
)
from .hac import HacConfig
from .linalg import SPAN_RTOL
from .lp import (
    DOUBLE_OGA,
    METHODS,
    IrfResult,
    LpDataset,
    LpEstimate,
    _attempt,
    _fit,
    _horizons,
    _unwrap,
)
from .selection import OgaConfig

VARIANCE_HAC = "hac"
VARIANCE_CLUSTER = "cluster"


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Long-format panel: one row per (unit, time).

    Treatment must be absorbing within each unit. Outcome and covariates may
    contain NaN; such rows drop out per horizon wherever they are needed.
    ``unit_code`` holds each row's unit as its rank among the sorted units.
    Frozen, so the row lookup keys built here cannot go stale.
    """

    unit: np.ndarray
    time: np.ndarray
    outcome: np.ndarray
    treatment: np.ndarray
    covariates: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("unit", np.asarray(self.unit))
        time = np.asarray(self.time)
        if time.dtype.kind not in "iu":  # floats, or integers too wide for int64
            time = time.astype(np.float64)
            if not np.array_equal(time, np.trunc(time)):  # NaN fails too
                raise DataError("time values must be integers")
        if time.size and not -(2**62) < time.min() <= time.max() < 2**62:
            # keeps time + k lookups clear of int64 wrap-around
            raise DataError("time values must lie strictly within +-2**62")
        put("time", time.astype(np.int64))
        put("outcome", np.asarray(self.outcome, dtype=np.float64))
        put("treatment", np.asarray(self.treatment, dtype=np.float64))
        n = self.unit.shape[0]
        for name, arr in (("time", self.time), ("outcome", self.outcome),
                          ("treatment", self.treatment)):
            if arr.shape[0] != n:
                raise DimensionMismatch(f"{name} length differs from unit length")
        put("covariates", {
            k: np.asarray(v, dtype=np.float64) for k, v in self.covariates.items()
        })
        for k, v in self.covariates.items():
            if v.shape[0] != n:
                raise DimensionMismatch(f"covariate {k!r} length differs")
        if not np.all(np.isin(self.treatment, (0.0, 1.0))):
            raise DataError("treatment must be binary 0/1 with no missing values")

        # one key per row, (unit code, time rank) flattened: memory stays
        # O(rows) however sparse the time coding is
        try:
            _, unit_code = np.unique(self.unit, return_inverse=True)
        except TypeError:  # unit ids numpy cannot sort, such as 1 beside "1"
            raise DataError("unit column mixes label types that cannot be "
                            "ordered") from None
        times, time_rank = np.unique(self.time, return_inverse=True)
        key = unit_code * times.shape[0] + time_rank
        order = np.argsort(key)
        put("unit_code", unit_code)
        put("_times", times)
        put("_order", order)
        put("_keys", key[order])

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

    def _at(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Row of the same unit k periods after each row's time, or -1."""
        times = self.time[rows] + k
        rank = np.searchsorted(self._times, times)
        rank_ok = rank < self._times.shape[0]
        rank = np.where(rank_ok, rank, 0)
        key = self.unit_code[rows] * self._times.shape[0] + rank
        pos = np.minimum(np.searchsorted(self._keys, key), self._keys.shape[0] - 1)
        found = rank_ok & (self._times[rank] == times) & (self._keys[pos] == key)
        return np.where(found, self._order[pos], -1)


def restrict_sample(panel: PanelDataset, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows usable at horizon h, and per row whether it is newly treated
    (True) or a clean control (False).

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
    return rows[order], treated[order]


@dataclass(frozen=True)
class LpDidSpec:
    """Estimation layout: horizons, outcome-lag controls, variance flavor."""

    horizons: tuple[int, ...]
    outcome_lags: int = 0
    extra_controls: tuple[str, ...] = ()
    time_effects: bool = True
    method: str = DOUBLE_OGA
    variance: str = VARIANCE_HAC

    def __post_init__(self):
        object.__setattr__(self, "horizons", _horizons(self.horizons))
        object.__setattr__(self, "extra_controls", tuple(self.extra_controls))
        if self.outcome_lags < 0:
            raise ValueError("outcome_lags must be nonnegative")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.variance not in (VARIANCE_HAC, VARIANCE_CLUSTER):
            raise ValueError(f"unknown variance {self.variance!r}")


def _assemble(panel: PanelDataset, spec: LpDidSpec, h: int):
    """Long differences, treatment switch, controls; listwise-complete rows."""
    idx, treated = restrict_sample(panel, h)
    if not treated.any():
        raise NoTreatedUnits(f"no newly treated observations at horizon {h}")
    if treated.all():
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
    idx, treated, C = idx[complete], treated[complete], C[complete]
    if idx.size == 0:
        raise NoTreatedUnits(f"no complete observations at horizon {h}")
    if not treated.any():
        raise NoTreatedUnits(f"no newly treated observations survive at horizon {h}")
    if treated.all():
        raise NoCleanControls(f"no clean controls survive at horizon {h}")

    times = panel.time[idx]
    units = panel.unit_code[idx]
    dy = panel.outcome[panel._at(idx, h)] - panel.outcome[panel._at(idx, -1)]
    return times, units, dy, treated.astype(np.float64), C, control_names


def _demean_within(groups: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, int]:
    """M (rows x columns) less its group means, and the number of groups."""
    _, g = np.unique(groups, return_inverse=True)
    counts = np.bincount(g)
    sums = np.column_stack([np.bincount(g, weights=column) for column in M.T])
    return M - (sums / counts[:, None])[g], counts.shape[0]


def _lpdid_one(
    panel: PanelDataset,
    spec: LpDidSpec,
    h: int,
    oga_config: OgaConfig | None,
    hac_config: HacConfig | None,
) -> LpEstimate:
    times, units, dy, dd, C, control_names = _assemble(panel, spec, h)
    n_treated = int(np.sum(dd == 1.0))
    n_clean = int(np.sum(dd == 0.0))

    keep, absorbed = np.arange(C.shape[1]), 0
    if spec.time_effects:
        norms = np.linalg.norm(C, axis=0)
        M, absorbed = _demean_within(times, np.column_stack([dy, dd, C]))
        dy, dd, C = M[:, 0], M[:, 1], M[:, 2:]
        # a control the time effects absorb is left with rounding noise only
        keep = np.flatnonzero(np.linalg.norm(C, axis=0) > SPAN_RTOL * norms)
        C = C[:, keep]

    dataset = LpDataset(
        y=dy, x=dd, W=C, column_map=tuple((control_names[j], 0) for j in keep),
        horizon=h, intercept=not spec.time_effects,
    )
    est = _unwrap(_fit(
        [dataset], spec.method, oga_config, hac_config,
        clusters=units if spec.variance == VARIANCE_CLUSTER else None,
        absorbed=absorbed,
    )[0])
    # the selections index the controls the time effects kept; map them back
    selections = {name: tuple(keep[list(getattr(est, name))].tolist())
                  for name in ("selected_y", "selected_x", "union")}
    return replace(est, **selections, n_treated=n_treated, n_clean=n_clean,
                   control_names=control_names, variance=spec.variance)


def lpdid_estimate(
    panel: PanelDataset,
    spec: LpDidSpec,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
) -> IrfResult:
    """Per-horizon event-study estimates, in spec.horizons order.

    Package errors and linear-algebra failures at one horizon are recorded
    and do not abort the others; any other exception propagates.
    """
    errors: dict[int, str] = {}
    estimates = [_attempt(errors, h, _lpdid_one, panel, spec, h, oga_config,
                          hac_config) for h in spec.horizons]
    return IrfResult(method=spec.method, errors=errors,
                     estimates=tuple(est for est in estimates if est is not None))
