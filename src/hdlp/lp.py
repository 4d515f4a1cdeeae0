"""Per-horizon projection regressions with double selection of controls.

For each horizon h the raw series matrix is turned into an aligned dataset
(response led h steps, shock at time t, contemporaneous controls, lagged
controls up to the configured depth) and the shock coefficient is estimated
by one partialling-out core, ``_fit``, which the time-series estimators and
the panel estimator in ``lpdid`` all call with LpDatasets. It chooses a
control set, either by double selection (select controls once against the
response, once against the shock, keep the union) or by taking every
control, reads beta off the two residuals on one orthonormal basis of that
set (Frisch-Waugh-Lovell), and scales the long-run (or by-cluster) variance
of psi = v * u by the fourth power of the shock-residual second moment. It
writes each regression's LpEstimate once, complete. Confidence intervals
are not stored: ``interval`` reads them off beta and se, floats or arrays.

An LpDataset's W holds the candidate controls only, and selections index
its columns. The intercept is a flag: always in the projection, never a
selection candidate, exempt from the penalty count. Greedy paths start from
its closed-form unit column instead of factoring it.

Every horizon's design is a row prefix of the design at the shortest
horizon, so ``estimate_irf`` builds the datasets once and hands all horizons
to ``_fit`` as one batch of row-prefix regressions on that design, per
method: one lockstep greedy run, one batched Gram-Schmidt for the unions,
one pivoted QR and one Cholesky factor for every no-selection prefix that
keeps its rank (linalg.prefix_residuals, by one formula on the complement
of the design's column space, formed or applied as the QR's reflectors),
one Newey-West call. Like those kernels, it returns one record or error
per dataset; ``_unwrap`` hands one back or raises its error. One regression
is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    DataError,
    DegenerateShock,
    DimensionMismatch,
    HdlpError,
    InsufficientSample,
    NonFinite,
    UnknownColumn,
    _count,
)
from .hac import PSI_FIRST_STAGE_E, HacConfig, dots, hac_variance
from .linalg import SPAN_RTOL, extend, orthogonalize, prefix_residuals
from .selection import OgaConfig, oga_hdaic_select

DOUBLE_OGA = "double_oga"
CONVENTIONAL_LP = "conventional_lp"
METHODS = (DOUBLE_OGA, CONVENTIONAL_LP)

DEFAULT_LEVELS = (0.95,)


@dataclass(frozen=True, eq=False)
class TimeSeriesMatrix:
    """Raw observation matrix, one named series per column."""

    values: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a 2-D array")
        if vals.shape[0] < 1:
            raise DimensionMismatch("need at least one row")
        if not np.all(np.isfinite(vals)):
            raise NonFinite("time series contains non-finite entries")
        cols = tuple(self.columns)
        if len(cols) != vals.shape[1]:
            raise DimensionMismatch(
                f"{len(cols)} names for {vals.shape[1]} columns"
            )
        if len(set(cols)) != len(cols):
            repeated = next(c for i, c in enumerate(cols) if c in cols[:i])
            raise DataError(f"column names must be unique; {repeated!r} repeats")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "columns", cols)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumn(name) from None


def _horizons(values) -> tuple[int, ...]:
    """The horizons as a tuple of ints; a ValueError says what is wrong with them."""
    horizons = tuple(_count(h, "a horizon") for h in values)
    if not horizons or len(set(horizons)) < len(horizons):
        raise ValueError("horizons must be nonempty, nonnegative and distinct")
    return horizons


@dataclass(frozen=True)
class LpSpec:
    """What to regress on what, and how deep the lag structure goes."""

    response: str
    shock: str
    horizons: tuple[int, ...]
    contemporaneous: tuple[str, ...] = ()
    lagged: tuple[str, ...] = ()
    lags: int = 0
    lag_augment: int = 0
    include_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "horizons", _horizons(self.horizons))
        object.__setattr__(self, "contemporaneous", tuple(self.contemporaneous))
        object.__setattr__(self, "lagged", tuple(self.lagged))
        for name in ("lags", "lag_augment"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.shock in self.contemporaneous:
            raise ValueError("the shock cannot also be a contemporaneous control")

    @property
    def lag_depth(self) -> int:
        return self.lags + self.lag_augment


@dataclass(frozen=True, eq=False)
class LpDataset:
    """One regression's aligned arrays: response y, shock x and the
    candidate controls W, whose columns column_map names as (source, lag).
    intercept adds a constant to every projection; it is not a column of W.
    An estimate's selections are column indices of W. Its sample size,
    effective_T, is the length of y; x and W have one row per entry of y."""

    y: np.ndarray
    x: np.ndarray
    W: np.ndarray
    column_map: tuple[tuple[str, int], ...]
    horizon: int
    intercept: bool

    def __post_init__(self):
        shapes = [np.shape(a) for a in (self.y, self.x, self.W)]
        y_shape, x_shape, W_shape = shapes
        if (len(y_shape) != 1 or x_shape != y_shape or len(W_shape) != 2
                or W_shape[0] != y_shape[0]):
            raise DimensionMismatch(f"y, x and W have shapes {shapes}; "
                                    "need (T,), (T,) and (T, p)")
        if len(self.column_map) != W_shape[1]:
            raise DimensionMismatch(
                f"{len(self.column_map)} column names for {W_shape[1]} columns of W"
            )

    @property
    def effective_T(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class LpEstimate:
    """One regression's shock coefficient, selections (sorted candidate
    indices) and variance pieces, for the time-series and panel estimators.

    rank counts the final design: union controls, intercept and shock (in
    LP-DiD also the time effects absorbed by demeaning). sigma_sq is
    omega / tau_sq**2, times T / (T - rank) under the dof correction, and
    se = sqrt(sigma_sq / effective_T). residuals_u is the final residual,
    residuals_v and residuals_e those of the shock and outcome selections.
    LP-DiD adds n_treated, n_clean, control_names (the candidates) and its
    variance kind.
    """

    horizon: int
    method: str
    beta: float
    effective_T: int
    rank: int
    selected_y: tuple[int, ...]
    selected_x: tuple[int, ...]
    union: tuple[int, ...]
    c_star_y: float | None
    c_star_x: float | None
    residuals_u: np.ndarray = field(repr=False)
    residuals_v: np.ndarray = field(repr=False)
    residuals_e: np.ndarray = field(repr=False)
    se: float
    sigma_sq: float
    tau_sq: float
    omega: float
    bandwidth: int | None
    n_treated: int | None = None
    n_clean: int | None = None
    control_names: tuple[str, ...] | None = None
    variance: str | None = None

    def ci(self, level: float) -> tuple[float, float]:
        """The two-sided normal interval beta -/+ z * se at this level."""
        return interval(self.beta, self.se, level)


def interval(beta, se, level: float):
    """The two-sided normal interval beta -/+ z * se at this level, of floats
    or, elementwise, of arrays: the same bits either way."""
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return beta - z * se, beta + z * se


@dataclass(frozen=True, eq=False)
class IrfResult:
    """Per-horizon estimates in horizon order; failed horizons land in errors."""

    method: str
    estimates: tuple[LpEstimate, ...]
    errors: dict[int, str]

    def by_horizon(self) -> dict[int, LpEstimate]:
        return {est.horizon: est for est in self.estimates}


def build_lp_dataset(
    data: TimeSeriesMatrix, spec: LpSpec, h: int, anchor: LpDataset | None = None
) -> LpDataset:
    """Align response, shock and controls for horizon h.

    Row t of the output pairs y_{t+h} with x_t, the contemporaneous controls
    at t and the lagged controls at t-1 .. t-depth; the effective sample is
    n_rows - h - depth and must be at least 8. Rows run t = depth ..
    n_rows-h-1, so W and x at horizon h are the first rows of W and x at any
    shorter horizon: given anchor, a dataset of the same data and spec at a
    horizon <= h, they are views of its first rows.
    """
    h = _count(h, "a horizon")
    depth = spec.lag_depth
    eff = data.n_rows - h - depth
    if eff < 8:
        raise InsufficientSample(
            f"{data.n_rows} rows leave {eff} usable at horizon {h} with "
            f"lag depth {depth}; need at least 8"
        )
    vals = data.values
    start, stop = depth, data.n_rows - h
    y = vals[start + h : stop + h, data.index(spec.response)].copy()
    if anchor is not None:
        if anchor.effective_T < eff:
            raise DimensionMismatch(
                f"anchor at horizon {anchor.horizon} is shorter than horizon {h}"
            )
        return replace(anchor, y=y, x=anchor.x[:eff], W=anchor.W[:eff], horizon=h)
    shock = data.index(spec.shock)
    contemp = [data.index(c) for c in spec.contemporaneous]
    lagged = [data.index(c) for c in spec.lagged]

    x = vals[start:stop, shock].copy()
    lagged_vals = vals.take(lagged, axis=1)  # row-major, as are its row slices
    blocks = [vals.take(contemp, axis=1)[start:stop]]
    blocks += [lagged_vals[start - ell : stop - ell] for ell in range(1, depth + 1)]
    cmap = [(name, 0) for name in spec.contemporaneous]
    cmap += [(name, ell) for ell in range(1, depth + 1) for name in spec.lagged]
    return LpDataset(
        y=y, x=x, W=np.concatenate(blocks, axis=1), column_map=tuple(cmap),
        horizon=h, intercept=spec.include_intercept,
    )


def _fit(datasets: list[LpDataset], method: str, oga_config: OgaConfig | None,
         hac_config: HacConfig | None, clusters=None, absorbed: int = 0) -> list:
    """Per dataset, its complete LpEstimate or the error that regression
    alone would raise. The datasets are row prefixes of the first: row i of
    X and of Y (k x n, zero-padded) is dataset i's shock and response on the
    first rows[i] rows (non-increasing) of its candidates C. absorbed counts
    the effects removed from the data beforehand, which the rank includes,
    and clusters switches the variance to by-cluster sums.

    DOUBLE_OGA selects columns of C against y and against x, every path in
    one lockstep oga_hdaic_select call, and controls for the union, whose
    basis is the shock path's orthonormal basis extended by Gram-Schmidt
    with the outcome-only columns (in index order, skipping spanned ones);
    v and e come off each path's basis (_union_residuals). CONVENTIONAL_LP,
    or an empty C, controls for every column (prefix_residuals: one pivoted
    QR serves every prefix that keeps its rank, through the complement of
    its column space, formed or reflected); v and e are then the final
    residuals. beta = x_resid'y_resid / x_resid'x_resid on the union basis. The shock is degenerate when it is zero, or constant
    while the intercept is in, or when what is left of it is at most
    SPAN_RTOL of its norm. It is NonFinite when the squares of y or x, or
    beta or se, overflow; every regression of the batch is NonFinite when
    the squares of a column of C overflow, since that column's norm can
    neither scale it into the QR nor set its admission floor.

    psi = v * u with u the final residual, or e under psi_source
    first_stage_e; Omega is its Bartlett long-run variance, or its
    by-cluster sum, for every live regression in one hac_variance call. The
    dof factor is T / (T - rank).
    """
    anchor = datasets[0]
    rows = [ds.effective_T for ds in datasets]
    C = np.asarray(anchor.W, dtype=np.float64)  # a hand-made W may hold integers
    k, (n, p), intercept = len(datasets), C.shape, anchor.intercept
    X, Y = np.zeros((2, k, n))
    for i, ds in enumerate(datasets):
        X[i, : rows[i]], Y[i, : rows[i]] = ds.x, ds.y
    out: list = [None] * k  # each regression's error, then its estimate
    with np.errstate(over="ignore"):  # an overflowing square is NonFinite below
        x_norm = np.linalg.norm(X, axis=1)
        centred = X
        if intercept:  # then a constant shock lies in every projection's span
            T = np.asarray(rows)
            centred = (X - (X.sum(axis=1) / T)[:, None]) * (np.arange(n) < T[:, None])
        for i in np.flatnonzero(np.linalg.norm(centred, axis=1) <= SPAN_RTOL * x_norm):
            out[i] = DegenerateShock("shock series is constant")
        y_norm = np.linalg.norm(Y, axis=1)
        for i in np.flatnonzero(~np.isfinite(np.hypot(x_norm, y_norm))):
            out[i] = NonFinite("the squares of the response or shock overflow")
            X[i] = Y[i] = 0.0  # their infinite greedy gains would never advance a path
        if not np.isfinite(np.linalg.norm(C, axis=0)).all():
            return [NonFinite("the squares of a candidate control overflow") for _ in out]
    if method == DOUBLE_OGA and p:
        resid, v, e, rank, sets = _union_residuals(C, intercept, X, Y, rows,
                                                  oga_config, out)
    else:
        resid = np.stack([Y, X], axis=1)
        rank = prefix_residuals(C, intercept, resid, rows, out)
        v, e = resid[:, 1], resid[:, 0]
        every = tuple(range(p))
        sets = [dict(selected_y=every, selected_x=every, union=every,
                     c_star_y=None, c_star_x=None)] * k
    y_resid, x_resid = resid[:, 0], resid[:, 1]
    xx = dots(x_resid, x_resid)
    degenerate = xx <= (SPAN_RTOL * x_norm) ** 2
    beta = dots(x_resid, y_resid) / np.where(degenerate, 1.0, xx)
    u = y_resid - beta[:, None] * x_resid
    for i in np.flatnonzero(degenerate):
        out[i] = out[i] or DegenerateShock(
            "shock has no variation left after projecting on the selected controls"
        )
    live = [i for i in range(k) if out[i] is None]
    if not live:
        return out
    hac_config = hac_config or HacConfig()
    psi_u = e if hac_config.psi_source == PSI_FIRST_STAGE_E else u
    width = max(rows[i] for i in live)  # zeros below it
    variances = hac_variance(v[live, :width].T, psi_u[live, :width].T,
                             hac_config.bandwidth, clusters, [rows[i] for i in live])
    for i, variance in zip(live, variances):
        if isinstance(variance, Exception):
            out[i] = variance
            continue
        sigma_sq, tau_sq, omega, K = variance
        T, r = rows[i], int(rank[i]) + 1 + absorbed
        if hac_config.dof_correction:
            if T <= r:
                out[i] = InsufficientSample(
                    f"no residual degrees of freedom: T={T}, design rank {r}"
                )
                continue
            sigma_sq *= T / (T - r)
        se = float(np.sqrt(sigma_sq / T))
        if not (abs(beta[i]) < np.inf and se < np.inf):  # false on inf and nan
            out[i] = NonFinite("beta or its standard error overflows")
            continue
        out[i] = LpEstimate(
            horizon=datasets[i].horizon, method=method, beta=float(beta[i]),
            effective_T=T, rank=r, residuals_u=u[i, :T], residuals_v=v[i, :T],
            residuals_e=e[i, :T], se=se,
            sigma_sq=sigma_sq, tau_sq=tau_sq, omega=omega, bandwidth=K, **sets[i],
        )
    return out


def _union_residuals(C, intercept, X, Y, rows, oga_config, failed):
    """Double selection for every regression not yet failed: the residuals
    of y and x on its union basis (k x 2 x n), v and e off its paths' bases,
    the union rank and the selections as LpEstimate fields. A selection
    error fails its regression. Each chosen basis is a row block of the
    selection's zero-padded paths x rows x columns array, so each residual
    is one batched product on it; the unions start from a padded copy of
    the shock paths' blocks, and the s-th outcome-only column of every
    union joins it in one batched Gram-Schmidt step.
    """
    n = C.shape[0]
    k = len(rows)
    Z = np.empty((n, 2 * k))  # columns 2i and 2i + 1: y and x of regression i
    Z[:, 0::2], Z[:, 1::2] = Y.T, X.T
    paths, Q = oga_hdaic_select(C, Z, oga_config or OgaConfig(), intercept,
                                np.repeat(rows, 2))
    for i in range(k):  # the shock check, then the outcome path, then the shock's
        failed[i] = failed[i] or next(
            (s for s in paths[2 * i : 2 * i + 2] if isinstance(s, Exception)), None)
    live = [i for i in range(k) if failed[i] is None]
    resid, v, e = np.zeros((k, 2, n)), np.zeros((k, n)), np.zeros((k, n))
    rank = np.zeros(k, dtype=np.intp)
    sets: list = [None] * k
    if not live:
        return resid, v, e, rank, sets
    sel_y = [paths[2 * i] for i in live]
    sel_x = [paths[2 * i + 1] for i in live]
    extra = []
    for i, sy, sx in zip(live, sel_y, sel_x):
        set_y, set_x = tuple(sorted(sy.chosen_set)), tuple(sorted(sx.chosen_set))
        union = tuple(sorted(set(set_y) | set(set_x)))
        sets[i] = dict(selected_y=set_y, selected_x=set_x, union=union,
                       c_star_y=sy.c_star_used, c_star_x=sx.c_star_used)
        extra.append(sorted(set(set_y) - set(set_x)))
    ic = int(intercept)
    m = ic + np.array([sx.chosen_m for sx in sel_x])
    n_extra = np.array([len(cols) for cols in extra])
    at = 2 * np.array(live)  # each regression's outcome path; its shock path is next
    e[live] = orthogonalize(Q[at, : ic + max(sy.chosen_m for sy in sel_y)],
                            Y[live][:, None, :])[:, 0]
    B = np.pad(Q[at + 1, : m.max()], ((0, 0), (0, n_extra.max()), (0, 0)))  # the unions
    v[live] = orthogonalize(B[:, : m.max()], X[live][:, None, :])[:, 0]

    inside = np.arange(n) < np.asarray(rows)[live, None]
    for step in range(n_extra.max()):
        V = C.T[[c[step] if step < len(c) else 0 for c in extra]] * inside
        V[n_extra <= step] = 0.0  # a zero series never grows its basis
        extend(B, m, V)
    resid[live] = orthogonalize(B, np.stack([Y[live], X[live]], axis=1))
    rank[live] = m
    return resid, v, e, rank, sets


def _attempt(errors: dict, h: int, fn, *args, **kwargs):
    """fn(*args, **kwargs), or None with its failure recorded as
    errors[h] = "Class: message" when it raises a package error or a
    linear-algebra failure. Any other exception is a bug and propagates."""
    try:
        return fn(*args, **kwargs)
    except (HdlpError, np.linalg.LinAlgError) as exc:
        errors[h] = f"{type(exc).__name__}: {exc}"
        return None


def _unwrap(fit):
    """One entry of _fit's list: its LpEstimate, or its error raised."""
    if isinstance(fit, Exception):
        raise fit
    return fit


def double_oga_lp(dataset: LpDataset, oga_config: OgaConfig | None = None,
                  hac_config: HacConfig | None = None, *, fit=None) -> LpEstimate:
    """Double-selection estimate of the shock coefficient at one horizon.

    Controls are selected twice (against the response and against the
    shock); the final regression uses their union. The shock residual kept
    for the variance is the one from the shock selection equation, not a
    re-residualization on the union. fit is the horizon's entry of a batch
    the caller has run, as estimate_irf does for every horizon at once; by
    default the dataset is run alone, both paths in lockstep.
    """
    return _unwrap(fit or _fit([dataset], DOUBLE_OGA, oga_config, hac_config)[0])


def conventional_lp(dataset: LpDataset, hac_config: HacConfig | None = None, *,
                    fit=None) -> LpEstimate:
    """No selection: regress on the shock and every control, same variance.

    fit is the horizon's entry of a batch the caller has run, as
    estimate_irf does for every horizon on one factorization; by default it
    is one pivoted QR of W.
    """
    return _unwrap(fit or _fit([dataset], CONVENTIONAL_LP, None, hac_config)[0])


def estimate_irf(
    data: TimeSeriesMatrix,
    spec: LpSpec,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
    method: str = DOUBLE_OGA,
) -> IrfResult:
    """Estimate the shock coefficient at every requested horizon.

    Horizons are independent regressions on row-prefix views of the dataset
    at the smallest horizon that builds (the anchor), nothing is copied, and
    all of them are one batch of the core, _fit. A package error or a
    linear-algebra failure at one horizon is recorded and does not abort the
    others. Any other exception is a bug and propagates.
    """
    return _irfs(data, spec, oga_config, hac_config, (method,))[method]


def _irfs(data, spec, oga_config, hac_config, methods) -> dict[str, IrfResult]:
    """estimate_irf for each of methods, {method: IrfResult}, on one build of
    the horizons' datasets: a horizon that fails to build fails in each."""
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    built: dict[int, str] = {}
    datasets: dict[int, LpDataset] = {}
    anchor = None
    for h in sorted(spec.horizons):
        dataset = _attempt(built, h, build_lp_dataset, data, spec, h, anchor)
        if dataset is not None:
            datasets[h] = dataset
            anchor = anchor or dataset

    results = {}
    for method in methods:
        errors = dict(built)
        fits = (_fit(list(datasets.values()), method, oga_config, hac_config)
                if datasets else [])
        record = double_oga_lp if method == DOUBLE_OGA else conventional_lp
        done = {h: _attempt(errors, h, record, dataset, fit=fit)
                for (h, dataset), fit in zip(datasets.items(), fits)}
        estimates = tuple(done[h] for h in spec.horizons if done.get(h) is not None)
        results[method] = IrfResult(method=method, estimates=estimates, errors=errors)
    return results
