"""Event-study estimation on panels with a clean-control sample restriction.

For horizon h the long difference y_{t+h} - y_{t-1} is regressed on the
treatment switch for observations that are either newly treated at t or
still untreated at t+h; everything else (already treated, or treated during
the window) is dropped. Time effects are absorbed by within-period
demeaning, which keeps them out of the penalty. Each horizon is one
``LpDataset`` (long difference, switch, the controls the time effects kept,
a constant only without time effects) fitted by the time-series entry
``lp._fit`` as a batch of one, so lagged outcomes and extra covariates are
screened by double selection or all kept. What is specific to panels stays
here: the demeaning, the variance choice (the v*u long-run variance over
the sample in (time, unit) order, or a by-unit cluster sum) and the
absorbed time effects, which count in the design rank.

Each call builds what no horizon changes once: the rows in (time, unit)
order, each row's previous row and treatment, and the lag/covariate matrix
with its completeness mask. A horizon adds one lookup of the rows h periods
ahead and boolean masks; its rows stay in time order, so its time effects
are runs of equal time.

``lpdid_estimate`` returns the time-series ``IrfResult`` of ``LpEstimate``
records, with the same failure policy as ``estimate_irf``. LP-DiD adds
n_treated, n_clean, control_names (the candidates, lagged outcomes first)
and the variance kind; its selections index control_names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    NoCleanControls,
    NonAbsorbingTreatment,
    NonFinite,
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
            try:
                time = time.astype(np.float64)
            except OverflowError:  # an integer too wide even for a float
                raise DataError("time values must lie strictly within +-2**62") from None
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

        # each row's unit as its rank among the sorted labels: one dict pass
        # numbers the labels by first appearance, and only the distinct
        # labels are sorted (np.unique sorts every row's object label)
        first: dict = {}
        try:
            code = [first.setdefault(u, len(first)) for u in self.unit.tolist()]
            by_label = sorted(range(len(first)), key=list(first).__getitem__)
        except TypeError:  # unit ids that cannot be ordered, such as 1 beside "1"
            raise DataError("unit column mixes label types that cannot be "
                            "ordered") from None
        rank = np.argsort(np.array(by_label, dtype=np.intp))  # number -> rank
        unit_code = rank[np.array(code, dtype=np.intp)]
        # one key per row, (unit code, time rank) flattened: memory stays
        # O(rows) however sparse the time coding is
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


@dataclass(frozen=True, eq=False)
class _Layout:
    """What every horizon of one lpdid_estimate call shares: the rows that
    can enter some horizon's sample, in (time, unit) order, each one's row
    one period earlier, whether it is newly treated, and its controls
    (outcome lags, then the extra covariates) with whether all are finite."""

    panel: PanelDataset
    rows: np.ndarray
    prev: np.ndarray
    treated: np.ndarray
    controls: np.ndarray
    complete: np.ndarray
    control_names: tuple[str, ...]

    @classmethod
    def of(cls, panel: PanelDataset, spec: LpDidSpec) -> _Layout:
        y, d = panel.outcome, panel.treatment
        rows = np.lexsort((panel.unit_code, panel.time))
        prev = panel._at(rows, -1)
        # the unit is seen one period earlier, untreated and with a finite
        # outcome; treatment is absorbing, so a row treated earlier is no
        # clean control at any horizon
        ok = prev >= 0
        ok[ok] = (d[prev[ok]] == 0.0) & np.isfinite(y[prev[ok]])
        rows, prev = rows[ok], prev[ok]
        lags = [prev, *(panel._at(rows, -j) for j in range(2, spec.outcome_lags + 1))]
        cols = [np.where(lag >= 0, y[lag], np.nan) for lag in lags[: spec.outcome_lags]]
        cols += [panel.covariates[name][rows] for name in spec.extra_controls]
        C = np.column_stack(cols) if cols else np.zeros((rows.shape[0], 0))
        return cls(
            panel=panel, rows=rows, prev=prev, treated=d[rows] == 1.0, controls=C,
            complete=np.isfinite(C).all(axis=1),
            control_names=tuple(f"outcome_lag{j}" for j in range(1, spec.outcome_lags + 1))
            + spec.extra_controls,
        )


def restrict_sample(layout: _Layout, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in layout.rows usable at horizon h, in (time, unit) order,
    and the row h periods after each.

    A row (i, t) is kept when the unit is observed at t-1 and t+h with
    non-missing outcomes there, and it is either newly treated at t or still
    untreated at t+h. Previously treated rows satisfy neither and drop out.
    """
    panel = layout.panel
    ahead = panel._at(layout.rows, h)
    pos = np.flatnonzero(ahead >= 0)
    ahead = ahead[pos]
    keep = np.isfinite(panel.outcome[ahead]) & (
        layout.treated[pos] | (panel.treatment[ahead] == 0.0))
    return pos[keep], ahead[keep]


def _assemble(layout: _Layout, h: int):
    """Times, unit codes, long differences, treatment switches and controls
    of the rows kept at horizon h, in (time, unit) order; listwise-complete
    rows only."""
    pos, ahead = restrict_sample(layout, h)
    treated = layout.treated[pos]
    if not treated.any():
        raise NoTreatedUnits(f"no newly treated observations at horizon {h}")
    if treated.all():
        raise NoCleanControls(f"no clean-control observations at horizon {h}")
    complete = layout.complete[pos]
    pos, ahead, treated = pos[complete], ahead[complete], treated[complete]
    if pos.size == 0:
        raise NoTreatedUnits(f"no complete observations at horizon {h}")
    if not treated.any():
        raise NoTreatedUnits(f"no newly treated observations survive at horizon {h}")
    if treated.all():
        raise NoCleanControls(f"no clean controls survive at horizon {h}")
    panel, rows = layout.panel, layout.rows[pos]
    dy = panel.outcome[ahead] - panel.outcome[layout.prev[pos]]
    return (panel.time[rows], panel.unit_code[rows], dy, treated.astype(np.float64),
            layout.controls[pos])


def _demean_runs(groups: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, int]:
    """M (rows x columns) less the means of its runs of equal group values,
    and the number of runs; groups is sorted, so each group is one run."""
    g = np.cumsum(np.r_[False, groups[1:] != groups[:-1]])
    counts = np.bincount(g)
    sums = np.column_stack([np.bincount(g, weights=column) for column in M.T])
    return M - np.repeat(sums / counts[:, None], counts, axis=0), counts.shape[0]


def _lpdid_one(
    layout: _Layout,
    spec: LpDidSpec,
    h: int,
    oga_config: OgaConfig | None,
    hac_config: HacConfig | None,
) -> LpEstimate:
    times, units, dy, dd, C = _assemble(layout, h)
    n_treated = int(np.sum(dd == 1.0))
    n_clean = int(np.sum(dd == 0.0))

    keep, absorbed = np.arange(C.shape[1]), 0
    if spec.time_effects:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(C, axis=0)
        if not np.isfinite(norms).all():  # as _fit fails it, before keep drops it
            raise NonFinite("the squares of a candidate control overflow")
        M, absorbed = _demean_runs(times, np.column_stack([dy, dd, C]))
        dy, dd, C = M[:, 0], M[:, 1], M[:, 2:]
        # a control the time effects absorb is left with rounding noise only
        keep = np.flatnonzero(np.linalg.norm(C, axis=0) > SPAN_RTOL * norms)
        C = C[:, keep]

    dataset = LpDataset(
        y=dy, x=dd, W=C, column_map=tuple((layout.control_names[j], 0) for j in keep),
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
                   control_names=layout.control_names, variance=spec.variance)


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
    layout = _Layout.of(panel, spec)
    errors: dict[int, str] = {}
    estimates = [_attempt(errors, h, _lpdid_one, layout, spec, h, oga_config,
                          hac_config) for h in spec.horizons]
    return IrfResult(method=spec.method, errors=errors,
                     estimates=tuple(est for est in estimates if est is not None))
