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

The intercept, when requested, rides along as a protected design column:
always in the projection, never a selection candidate, exempt from the
penalty count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
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
from .hac import PSI_FIRST_STAGE_E, HacConfig, hac_variance
from .linalg import PrefixBasis, gram_schmidt_extend, orthogonal_residual
from .selection import OgaConfig, oga_hdaic_select

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

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index(name)]


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
    rank: int  # rank of the final design: union controls, base and the shock
    selected_y: tuple[int, ...]
    selected_x: tuple[int, ...]
    union: tuple[int, ...]
    c_star_y: float | None
    c_star_x: float | None


def _partial_out(
    C: np.ndarray,
    base: np.ndarray | None,
    x: np.ndarray,
    y: np.ndarray,
    method: str,
    oga_config: OgaConfig | None,
    design: PrefixBasis | None = None,
) -> _Partialled:
    """Shock coefficient of y on x, controlling for chosen columns of C and all of base.

    DOUBLE_OGA selects columns of C against y and against x and controls for
    the union, whose basis is the shock path's own orthonormal basis extended
    by Gram-Schmidt with the outcome-only columns (in index order, skipping
    spanned ones); v and e come off each path's basis. CONVENTIONAL_LP, or an
    empty C, controls for every column through design, the basis of [C, base]
    (one pivoted QR when the caller holds none); v and e are then the final
    residuals. beta = x_resid'y_resid / x_resid'x_resid on the union basis.
    """
    p = C.shape[1]
    if p and float(np.var(x)) < 1e-12:
        raise DegenerateShock("shock series is constant")
    sel_y = sel_x = None
    if method == DOUBLE_OGA and p:
        oga_config = oga_config or OgaConfig()
        sel_y = oga_hdaic_select(C, y, oga_config, base=base)
        sel_x = oga_hdaic_select(C, x, oga_config, base=base)
        set_y = tuple(sorted(sel_y.chosen_set))
        set_x = tuple(sorted(sel_x.chosen_set))
        Q = sel_x.basis
        for j in sorted(set(set_y) - set(set_x)):
            q = gram_schmidt_extend(Q, C[:, j])
            if q is not None:
                Q = np.column_stack([Q, q])
        residual, rank = partial(orthogonal_residual, Q), Q.shape[1]
    else:
        set_y = set_x = tuple(range(p))
        if design is None:
            design = PrefixBasis.of(C if base is None else np.column_stack([C, base]))
        residual, rank = design.residual, design.rank
    union = tuple(sorted(set(set_y) | set(set_x)))

    x_resid = residual(x)
    T = x.shape[0]
    xx = float(x_resid @ x_resid)
    if xx / T < 1e-12:
        raise DegenerateShock(
            "shock has no variation left after projecting on the selected controls"
        )
    y_resid = residual(y)
    beta = float(x_resid @ y_resid) / xx
    return _Partialled(
        beta=beta, u=y_resid - beta * x_resid,
        v=orthogonal_residual(sel_x.basis, x) if sel_x else x_resid,
        e=orthogonal_residual(sel_y.basis, y) if sel_y else y_resid,
        rank=rank + 1, selected_y=set_y, selected_x=set_x, union=union,
        c_star_y=sel_y.c_star_used if sel_y else None,
        c_star_x=sel_x.c_star_used if sel_x else None,
    )


def _inference(
    fit: _Partialled,
    hac_config: HacConfig,
    levels,
    clusters: np.ndarray | None = None,
    absorbed: int = 0,
):
    """(se, cis, sigma_sq, tau_sq, omega, bandwidth) for fit.beta.

    psi = v * u with u the final residual, or the outcome-selection residual
    e under psi_source first_stage_e; Omega is its Bartlett long-run variance,
    or its by-cluster sum when clusters are given. The dof factor is
    T / (T - rank - absorbed), absorbed counting effects removed before the
    core ran.
    """
    u = fit.e if hac_config.psi_source == PSI_FIRST_STAGE_E else fit.u
    sigma_sq, tau_sq, omega, K = hac_variance(
        fit.v, u, hac_config.bandwidth, clusters
    )
    T = u.shape[0]
    if hac_config.dof_correction:
        dof = T - fit.rank - absorbed
        if dof <= 0:
            raise InsufficientSample(
                f"no residual degrees of freedom: T={T}, design rank "
                f"{fit.rank} plus {absorbed} absorbed effects"
            )
        sigma_sq *= T / dof
    se = float(np.sqrt(sigma_sq / T))
    cis = {}
    for level in levels:
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        cis[float(level)] = (fit.beta - z * se, fit.beta + z * se)
    return se, cis, sigma_sq, tau_sq, omega, K


def _estimate(
    dataset: LpDataset,
    method: str,
    oga_config: OgaConfig | None,
    hac_config: HacConfig | None,
    levels,
    design: PrefixBasis | None = None,
) -> LpEstimate:
    Wc, base = dataset.W, None
    if dataset.intercept_index is not None:
        Wc = np.delete(dataset.W, dataset.intercept_index, axis=1)
        base = dataset.W[:, [dataset.intercept_index]]
    fit = _partial_out(Wc, base, dataset.x, dataset.y, method, oga_config, design)
    se, cis, sigma_sq, tau_sq, omega, K = _inference(
        fit, hac_config or HacConfig(), levels
    )
    return LpEstimate(
        horizon=dataset.horizon,
        method=method,
        beta=fit.beta,
        se=se,
        cis=cis,
        selected_y=fit.selected_y,
        selected_x=fit.selected_x,
        union=fit.union,
        tau_sq=tau_sq,
        omega=omega,
        sigma_sq=sigma_sq,
        bandwidth=K,
        effective_T=dataset.effective_T,
        c_star_y=fit.c_star_y,
        c_star_x=fit.c_star_x,
        residuals_u=fit.u,
        residuals_v=fit.v,
    )


def double_oga_lp(
    dataset: LpDataset,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
    levels=DEFAULT_LEVELS,
) -> LpEstimate:
    """Double-selection estimate of the shock coefficient at one horizon.

    Controls are selected twice (against the response and against the
    shock); the final regression uses their union. The shock residual kept
    for the variance is the one from the shock selection equation, not a
    re-residualization on the union.
    """
    return _estimate(dataset, DOUBLE_OGA, oga_config, hac_config, levels)


def conventional_lp(
    dataset: LpDataset,
    hac_config: HacConfig | None = None,
    levels=DEFAULT_LEVELS,
    *,
    design: PrefixBasis | None = None,
) -> LpEstimate:
    """No selection: regress on the shock and every control, same variance.

    design is a basis of W's column space on the dataset's rows, such as an
    earlier horizon's basis read on them (PrefixBasis.on_rows); by default
    it is one pivoted QR of W.
    """
    return _estimate(dataset, CONVENTIONAL_LP, None, hac_config, levels, design)


def estimate_lp(
    dataset: LpDataset,
    method: str,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
    levels=DEFAULT_LEVELS,
) -> LpEstimate:
    if method == DOUBLE_OGA:
        return double_oga_lp(dataset, oga_config, hac_config, levels)
    if method == CONVENTIONAL_LP:
        return conventional_lp(dataset, hac_config, levels)
    raise ValueError(f"unknown method {method!r}")


def estimate_irf(
    data: TimeSeriesMatrix,
    spec: LpSpec,
    oga_config: OgaConfig | None = None,
    hac_config: HacConfig | None = None,
    levels=DEFAULT_LEVELS,
    method: str = DOUBLE_OGA,
) -> IrfResult:
    """Estimate the shock coefficient at every requested horizon.

    Horizons are independent regressions, run in increasing order on
    row-prefix views of the dataset at the smallest horizon that builds. The
    no-selection benchmark factors that design once and reads every longer
    horizon off the same basis; where a prefix may lose rank it factors the
    horizon's own design, which then serves the longer horizons. A package
    error or a linear-algebra failure at one horizon is recorded and does not
    abort the others. Any other exception is a bug and propagates.
    """
    done: dict[int, LpEstimate] = {}
    errors: dict[int, str] = {}
    anchor = design = None
    for h in sorted(set(spec.horizons)):
        try:
            dataset = build_lp_dataset(data, spec, h, anchor)
            anchor = anchor or dataset
            if method == CONVENTIONAL_LP:
                design = design and design.on_rows(dataset.effective_T)
                design = design or PrefixBasis.of(dataset.W)
                done[h] = conventional_lp(dataset, hac_config, levels, design=design)
            else:
                done[h] = estimate_lp(dataset, method, oga_config, hac_config, levels)
        except (HdlpError, np.linalg.LinAlgError) as exc:
            errors[h] = f"{type(exc).__name__}: {exc}"
    estimates = tuple(done[h] for h in spec.horizons if h in done)
    return IrfResult(method=method, estimates=estimates, errors=errors)
