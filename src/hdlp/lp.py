"""Per-horizon projection regressions with double selection of controls.

For each horizon h the raw series matrix is turned into an aligned dataset
(response led h steps, shock at time t, contemporaneous controls, lagged
controls up to the configured depth) and the shock coefficient is estimated
by one partialling-out core, ``_partial_out``. It chooses a control set,
either by double selection (select controls once against the response, once
against the shock, keep the union) or by taking every control, and reads
beta off the two residuals on one orthonormal basis of that set
(Frisch-Waugh-Lovell). The no-selection benchmark and the panel estimator
in ``lpdid`` call the same core and the same inference tail, ``_inference``:
intervals use the long-run (or by-cluster) variance of psi = v * u scaled by
the fourth power of the shock-residual second moment.

The intercept, when requested, is protected: always in the projection,
never a selection candidate, exempt from the penalty count. Greedy paths
start from its closed-form unit column instead of factoring it.

Every horizon's design is a row prefix of the design at the shortest
horizon, so ``estimate_irf`` hands all horizons to the core and to the
inference tail as one batch of row-prefix regressions on that design: one
lockstep greedy run, one batched Gram-Schmidt for the unions, one Cholesky
factor for every no-selection prefix, one Newey-West call. Then
``double_oga_lp`` or ``conventional_lp`` builds each horizon's record. A
single regression is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateShock,
    DimensionMismatch,
    HdlpError,
    InsufficientSample,
    NonFinite,
    UnknownColumn,
)
from .hac import PSI_FIRST_STAGE_E, HacConfig, dots, hac_variance
from .linalg import SPAN_RTOL, PrefixBasis, extend, orthogonalize
from .selection import OgaConfig, _as_paths, _unwrap, oga_hdaic_select

DOUBLE_OGA = "double_oga"
CONVENTIONAL_LP = "conventional_lp"
METHODS = (DOUBLE_OGA, CONVENTIONAL_LP)

INTERCEPT_NAME = "const"
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
            raise ValueError("column names must be unique")
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
        object.__setattr__(self, "horizons", tuple(int(h) for h in self.horizons))
        object.__setattr__(self, "contemporaneous", tuple(self.contemporaneous))
        object.__setattr__(self, "lagged", tuple(self.lagged))
        if not self.horizons or any(h < 0 for h in self.horizons):
            raise ValueError("horizons must be nonempty and nonnegative")
        if self.lags < 0 or self.lag_augment < 0:
            raise ValueError("lag counts must be nonnegative")
        if self.shock in self.contemporaneous:
            raise ValueError("the shock cannot also be a contemporaneous control")

    @property
    def lag_depth(self) -> int:
        return self.lags + self.lag_augment


@dataclass(frozen=True, eq=False)
class LpDataset:
    """Aligned arrays for one horizon; column_map records (source, lag) per W column."""

    y: np.ndarray
    x: np.ndarray
    W: np.ndarray
    column_map: tuple[tuple[str, int], ...]
    horizon: int
    effective_T: int
    intercept_index: int | None

    @property
    def candidate_indices(self) -> tuple[int, ...]:
        return tuple(
            j for j in range(self.W.shape[1]) if j != self.intercept_index
        )


@dataclass(frozen=True, eq=False)
class LpEstimate:
    """Shock coefficient at one horizon with its variance pieces and selections."""

    horizon: int
    method: str
    beta: float
    se: float
    cis: dict[float, tuple[float, float]]
    selected_y: tuple[int, ...]
    selected_x: tuple[int, ...]
    union: tuple[int, ...]
    tau_sq: float
    omega: float
    sigma_sq: float
    bandwidth: int
    effective_T: int
    c_star_y: float | None
    c_star_x: float | None
    residuals_u: np.ndarray = field(repr=False)
    residuals_v: np.ndarray = field(repr=False)


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
        return replace(anchor, y=y, x=anchor.x[:eff], W=anchor.W[:eff],
                       horizon=h, effective_T=eff)
    shock = data.index(spec.shock)
    contemp = [data.index(c) for c in spec.contemporaneous]
    lagged = [data.index(c) for c in spec.lagged]

    x = vals[start:stop, shock].copy()
    lagged_vals = vals.take(lagged, axis=1)  # row-major, as are its row slices
    blocks = [vals.take(contemp, axis=1)[start:stop]]
    blocks += [lagged_vals[start - ell : stop - ell] for ell in range(1, depth + 1)]
    cmap = [(name, 0) for name in spec.contemporaneous]
    cmap += [(name, ell) for ell in range(1, depth + 1) for name in spec.lagged]
    intercept_index = None
    if spec.include_intercept:
        blocks.append(np.ones((eff, 1)))
        cmap.append((INTERCEPT_NAME, 0))
        intercept_index = len(cmap) - 1
    W = np.concatenate(blocks, axis=1)
    return LpDataset(
        y=y, x=x, W=W, column_map=tuple(cmap), horizon=h,
        effective_T=eff, intercept_index=intercept_index,
    )


@dataclass(frozen=True, eq=False)
class _Partialled:
    """Output of the partialling-out core for one regression."""

    beta: float
    u: np.ndarray  # final-regression residual
    v: np.ndarray  # shock residual on the shock-selected controls
    e: np.ndarray  # outcome residual on the outcome-selected controls
    rank: int  # rank of the final design: union controls, intercept and shock
    selected_y: tuple[int, ...]
    selected_x: tuple[int, ...]
    union: tuple[int, ...]
    c_star_y: float | None
    c_star_x: float | None


def _partial_out(C: np.ndarray, intercept: bool, x: np.ndarray, y: np.ndarray,
                 method: str, oga_config: OgaConfig | None, rows=None):
    """Shock coefficient of y on x, controlling for chosen columns of C and,
    when intercept is set, a constant.

    1-D x and y are one regression on all rows; its _Partialled is returned
    or its error raised. 2-D x and y (n x k) are k regressions, the i-th on
    the first rows[i] rows (non-increasing; all by default) of C and of its
    columns; the call returns one _Partialled, or the error that regression
    alone would raise, per column.

    DOUBLE_OGA selects columns of C against y and against x, every path in
    one lockstep oga_hdaic_select call, and controls for the union, whose
    basis is the shock path's orthonormal basis extended by Gram-Schmidt
    with the outcome-only columns (in index order, skipping spanned ones);
    v and e come off each path's basis (_union_residuals). CONVENTIONAL_LP,
    or an empty C, controls for every column (_design_residuals); v and e
    are then the final residuals. beta = x_resid'y_resid / x_resid'x_resid
    on the union basis. The shock is degenerate when it is constant or when
    what is left of it is at most SPAN_RTOL of its norm.
    """
    C, X, rows, single = _as_paths(C, x, rows)
    Y = _as_paths(C, y, rows)[1]
    n, p = C.shape
    k = len(rows)
    T = np.asarray(rows)
    inside = np.arange(n) < T[:, None]
    X = X.T * inside  # one series per row, zero below its rows
    Y = Y.T * inside
    failed: list = [None] * k
    x_norm = np.linalg.norm(X, axis=1)
    if p:
        centred = (X - (X.sum(axis=1) / T)[:, None]) * inside
        for i in np.flatnonzero(np.linalg.norm(centred, axis=1) <= SPAN_RTOL * x_norm):
            failed[i] = DegenerateShock("shock series is constant")
    if method == DOUBLE_OGA and p:
        resid, v, e, rank, sets = _union_residuals(C, intercept, X, Y, rows,
                                                  oga_config, failed)
    else:
        resid, rank = _design_residuals(C, intercept, X, Y, rows, failed)
        v, e = resid[:, 1], resid[:, 0]
        sets = [(tuple(range(p)),) * 3 + (None, None)] * k
    y_resid, x_resid = resid[:, 0], resid[:, 1]
    xx = dots(x_resid, x_resid)
    degenerate = xx <= (SPAN_RTOL * x_norm) ** 2
    beta = dots(x_resid, y_resid) / np.where(degenerate, 1.0, xx)
    u = y_resid - beta[:, None] * x_resid
    out = []
    for i, t in enumerate(rows):
        if failed[i] is None and degenerate[i]:
            failed[i] = DegenerateShock(
                "shock has no variation left after projecting on the selected controls"
            )
        if failed[i] is not None:
            out.append(failed[i])
            continue
        set_y, set_x, union, c_star_y, c_star_x = sets[i]
        out.append(_Partialled(
            beta=float(beta[i]), u=u[i, :t], v=v[i, :t], e=e[i, :t],
            rank=int(rank[i]) + 1, selected_y=set_y, selected_x=set_x,
            union=union, c_star_y=c_star_y, c_star_x=c_star_x,
        ))
    return _unwrap(out[0]) if single else out


def _union_residuals(C, intercept, X, Y, rows, oga_config, failed):
    """Double selection for every regression not yet failed: the residuals
    of y and x on its union basis (k x 2 x n), v and e off its paths' bases,
    the union rank and (set_y, set_x, union, c_star_y, c_star_x). A
    selection error fails its regression. The chosen bases sit in
    zero-padded regressions x columns x rows arrays, so each residual is one
    batched product, and the s-th outcome-only column of every union joins
    it in one batched Gram-Schmidt step.
    """
    n = C.shape[0]
    k = len(rows)
    Z = np.empty((n, 2 * k))  # columns 2i and 2i + 1: y and x of regression i
    Z[:, 0::2], Z[:, 1::2] = Y.T, X.T
    paths = oga_hdaic_select(C, Z, oga_config or OgaConfig(), intercept,
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
        sets[i] = set_y, set_x, union, sy.c_star_used, sx.c_star_used
        extra.append(sorted(set(set_y) - set(set_x)))
    m = np.array([sx.basis.shape[1] for sx in sel_x])
    n_extra = np.array([len(cols) for cols in extra])
    B_y = np.zeros((len(live), max(sy.basis.shape[1] for sy in sel_y), n))
    B = np.zeros((len(live), m.max() + n_extra.max(), n))  # the unions
    for a, (i, sy, sx) in enumerate(zip(live, sel_y, sel_x)):
        B_y[a, : sy.basis.shape[1], : rows[i]] = sy.basis.T
        B[a, : m[a], : rows[i]] = sx.basis.T
    e[live] = orthogonalize(B_y, Y[live][:, None, :])[:, 0]
    v[live] = orthogonalize(B[:, : m.max()], X[live][:, None, :])[:, 0]

    inside = np.arange(n) < np.asarray(rows)[live, None]
    for step in range(n_extra.max()):
        V = C.T[[c[step] if step < len(c) else 0 for c in extra]] * inside
        V[n_extra <= step] = 0.0  # a zero series never grows its basis
        extend(B, m, V)
    resid[live] = orthogonalize(B, np.stack([Y[live], X[live]], axis=1))
    rank[live] = m
    return resid, v, e, rank, sets


def _design_residuals(C, intercept, X, Y, rows, failed):
    """The residuals of y and x (k x 2 x n) on the column space of [C, 1]
    (C alone without intercept) on each regression's rows, and its rank.

    One pivoted QR at the first regression's rows serves every later one
    whose prefix keeps its rank (PrefixBasis.reach, one Cholesky for all of
    them); the first it cannot serve is factored afresh and serves those
    after it. A factorization that fails fails its regression.
    """
    k = len(rows)
    resid = np.zeros((k, 2, C.shape[0]))
    rank = np.zeros(k, dtype=np.intp)
    i = 0
    while i < k:
        N = rows[i]
        try:
            basis = PrefixBasis.of(C[:N], intercept).reach(rows[-1])
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
            i += 1
            continue
        j = i + sum(1 for r in rows[i:] if r >= basis.min_rows)
        V = np.stack([Y[i:j, :N], X[i:j, :N]], axis=1).reshape(-1, N)
        resid[i:j, :, :N] = basis.residual(V, np.repeat(rows[i:j], 2)).reshape(-1, 2, N)
        rank[i:j] = basis.rank
        i = j
    return resid, rank


def _inference(fits: list, hac_config: HacConfig, levels,
               clusters: np.ndarray | None = None, absorbed: int = 0) -> list:
    """Per fit, (se, cis, sigma_sq, tau_sq, omega, bandwidth) for its beta,
    or its error; a fit that is an error stays one.

    psi = v * u with u the final residual, or the outcome-selection residual
    e under psi_source first_stage_e; Omega is its Bartlett long-run
    variance, or its by-cluster sum when clusters are given, for every fit
    in one hac_variance call on their zero-padded residuals. The dof factor
    is T / (T - rank - absorbed), absorbed counting effects removed before
    the core ran.
    """
    out = list(fits)
    ok = [i for i, fit in enumerate(fits) if not isinstance(fit, Exception)]
    if not ok:
        return out
    rows = [fits[i].v.shape[0] for i in ok]
    V, U = np.zeros((2, len(ok), max(rows)))
    first_stage = hac_config.psi_source == PSI_FIRST_STAGE_E
    for a, i in enumerate(ok):
        V[a, : rows[a]] = fits[i].v
        U[a, : rows[a]] = fits[i].e if first_stage else fits[i].u
    variances = hac_variance(V.T, U.T, hac_config.bandwidth, clusters, rows)
    z = {float(level): NormalDist().inv_cdf(0.5 + level / 2.0) for level in levels}
    for i, T, variance in zip(ok, rows, variances):
        if isinstance(variance, Exception):
            out[i] = variance
            continue
        sigma_sq, tau_sq, omega, K = variance
        fit = fits[i]
        if hac_config.dof_correction:
            dof = T - fit.rank - absorbed
            if dof <= 0:
                out[i] = InsufficientSample(
                    f"no residual degrees of freedom: T={T}, design rank "
                    f"{fit.rank} plus {absorbed} absorbed effects"
                )
                continue
            sigma_sq *= T / dof
        se = float(np.sqrt(sigma_sq / T))
        cis = {level: (fit.beta - q * se, fit.beta + q * se) for level, q in z.items()}
        out[i] = se, cis, sigma_sq, tau_sq, omega, K
    return out


def _controls(dataset: LpDataset) -> np.ndarray:
    """The dataset's candidate columns: W without its intercept column, a
    view when the intercept is the last column, as build_lp_dataset puts it."""
    j = dataset.intercept_index
    if j is None:
        return dataset.W
    if j == dataset.W.shape[1] - 1:
        return dataset.W[:, :j]
    return np.delete(dataset.W, j, axis=1)


def _fit(datasets: list[LpDataset], method: str, oga_config, hac_config, levels):
    """Per dataset, its (_Partialled, inference) pair or its error. The
    datasets are row prefixes of the first; all of them are partialled out
    in one core call and take their variances in one inference call."""
    anchor = datasets[0]
    rows = [ds.effective_T for ds in datasets]
    X = np.zeros((len(datasets), anchor.effective_T))
    Y = np.zeros_like(X)
    for i, ds in enumerate(datasets):
        X[i, : rows[i]], Y[i, : rows[i]] = ds.x, ds.y
    fits = _partial_out(_controls(anchor), anchor.intercept_index is not None,
                        X.T, Y.T, method, oga_config, rows)
    inference = _inference(fits, hac_config or HacConfig(), levels)
    return [inf if isinstance(inf, Exception) else (f, inf)
            for f, inf in zip(fits, inference)]


def _estimate(dataset: LpDataset, method: str, oga_config: OgaConfig | None,
              hac_config: HacConfig | None, levels, fit=None) -> LpEstimate:
    """The record of one horizon from its fit, an entry of _fit; by default
    the dataset is the batch of one."""
    if fit is None:
        fit = _fit([dataset], method, oga_config, hac_config, levels)[0]
    if isinstance(fit, Exception):
        raise fit
    part, (se, cis, sigma_sq, tau_sq, omega, K) = fit
    return LpEstimate(
        horizon=dataset.horizon, method=method, beta=part.beta, se=se, cis=cis,
        selected_y=part.selected_y, selected_x=part.selected_x, union=part.union,
        tau_sq=tau_sq, omega=omega, sigma_sq=sigma_sq, bandwidth=K,
        effective_T=dataset.effective_T, c_star_y=part.c_star_y,
        c_star_x=part.c_star_x, residuals_u=part.u, residuals_v=part.v,
    )


def double_oga_lp(dataset: LpDataset, oga_config: OgaConfig | None = None,
                  hac_config: HacConfig | None = None, levels=DEFAULT_LEVELS, *,
                  fit=None) -> LpEstimate:
    """Double-selection estimate of the shock coefficient at one horizon.

    Controls are selected twice (against the response and against the
    shock); the final regression uses their union. The shock residual kept
    for the variance is the one from the shock selection equation, not a
    re-residualization on the union. fit is the horizon's entry of a batch
    the caller has run, as estimate_irf does for every horizon at once; by
    default the dataset is run alone, both paths in lockstep.
    """
    return _estimate(dataset, DOUBLE_OGA, oga_config, hac_config, levels, fit)


def conventional_lp(dataset: LpDataset, hac_config: HacConfig | None = None,
                    levels=DEFAULT_LEVELS, *, fit=None) -> LpEstimate:
    """No selection: regress on the shock and every control, same variance.

    fit is the horizon's entry of a batch the caller has run, as
    estimate_irf does for every horizon on one factorization; by default it
    is one pivoted QR of W.
    """
    return _estimate(dataset, CONVENTIONAL_LP, None, hac_config, levels, fit)


def estimate_irf(
    data: TimeSeriesMatrix,
    spec: LpSpec,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
    levels=DEFAULT_LEVELS,
    method: str = DOUBLE_OGA,
) -> IrfResult:
    """Estimate the shock coefficient at every requested horizon.

    Horizons are independent regressions on row-prefix views of the dataset
    at the smallest horizon that builds (the anchor); their controls are
    column views of those, nothing is copied. All horizons are one batch of
    the partialling-out core and of the inference tail; a horizon whose
    shock is degenerate fails on that check before its selections are read.
    The no-selection benchmark factors the design once and reads every
    longer horizon off the same basis; where a prefix may lose rank it
    factors the horizon's own design, which then serves the longer
    horizons. double_oga_lp or conventional_lp builds each horizon's record.
    A package error or a linear-algebra failure at one horizon is recorded
    and does not abort the others. Any other exception is a bug and
    propagates.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    oga_config = oga_config or OgaConfig()
    errors: dict[int, str] = {}

    def attempt(h, fn, *args, **kwargs):
        """fn(...), or None with the failure recorded against horizon h."""
        try:
            return fn(*args, **kwargs)
        except (HdlpError, np.linalg.LinAlgError) as exc:
            errors[h] = f"{type(exc).__name__}: {exc}"

    datasets: dict[int, LpDataset] = {}
    anchor = None
    for h in sorted(set(spec.horizons)):
        dataset = attempt(h, build_lp_dataset, data, spec, h, anchor)
        if dataset is not None:
            datasets[h] = dataset
            anchor = anchor or dataset

    done: dict[int, LpEstimate] = {}
    fits = _fit(list(datasets.values()), method, oga_config, hac_config,
                levels) if datasets else []
    for (h, dataset), fit in zip(datasets.items(), fits):
        if method == DOUBLE_OGA:
            done[h] = attempt(h, double_oga_lp, dataset, oga_config, hac_config,
                              levels, fit=fit)
        else:
            done[h] = attempt(h, conventional_lp, dataset, hac_config, levels,
                              fit=fit)
    estimates = tuple(done[h] for h in spec.horizons if done.get(h) is not None)
    return IrfResult(method=method, estimates=estimates, errors=errors)

