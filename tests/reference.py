"""Reference routines for the tests.

The library reads every fit off the orthonormal bases its greedy paths
build, so it carries no general OLS solver. These independent pivoted-QR
routines are the oracle the tests compare it against. Rank deficiency is
handled by a rank-revealing (pivoted) QR with a relative pivot tolerance of
1e-10: dependent columns are dropped and get zero coefficients. The
economic QR's range basis (orthonormal_columns) is the oracle for the
library's rank and complement, the two-pass residual and Gram-Schmidt
step for its batched projection kernel, the per-prefix Cholesky for its
one-factor prefix residuals, the lag-by-lag autoregression loop and the
stacked loop that allocates each step for its in-place simulator, the
one-path greedy loop for its lockstep greedy kernel, and the one-path
holdout for its batched c_star tuning. The scalar criterion, its argmin and a tuning-only entry
point (select_c_star) read the library's batched curves and holdout.
panel_row finds one cell of a panel with a plain mask over its unit and
time columns, independent of the panel's keyed row lookup.

The library's kernels take one column per path or series and return one
result or error per column, except oga_order, which returns its lockstep
arrays. order_one, select_one, newey_west_one and hac_one run one series as
a batch of one and raise its error; bartlett_sum is the long-run variance of
one series as it is defined. coverage, median_width and replication read
one cell of a Monte Carlo report and run one replication as a block of one;
per_level_report is the reduction of records to a report as it was done on
intervals stored per level, one Python float at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import math

import numpy as np
import scipy.linalg

from hdlp.dgp import VarDgpSpec, _generator, true_reduced_form_irf
from hdlp.errors import AllColumnsDegenerate, DimensionMismatch, NonFinite
from hdlp.hac import hac_variance, newey_west
from hdlp.linalg import PREFIX_EIG_TOL, SPAN_RTOL
from hdlp.lp import TimeSeriesMatrix
from hdlp.lpdid import PanelDataset
from hdlp.montecarlo import McCell, McDesign, McReport, _block
from hdlp.selection import (
    TIE_RTOL,
    OgaConfig,
    _as_paths,
    _budgets,
    _hdaic_curves,
    _holdout_c_stars,
    _train_rows,
    oga_hdaic_select,
    oga_order,
)


def one(results):
    """The only entry of a batch of one, raised when it is an error."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def order_one(W, y, M, intercept: bool = False):
    """oga_order on the one series y: (order, sigma_sq, Q), Q its basis as
    columns, or AllColumnsDegenerate raised when it has no admissible column."""
    y = np.asarray(y, dtype=np.float64)[:, None]
    picks, sigma_sq, Q, [length] = oga_order(W, y, M, intercept)
    if M and not length:
        raise AllColumnsDegenerate("no admissible column at the first step")
    return (picks[0, :length].tolist(), sigma_sq[0, :length].tolist(),
            Q[0, : intercept + length].T)


def select_one(W, y, config: OgaConfig, intercept: bool = False):
    """oga_hdaic_select on the one series y: its SelectionPath, or its error raised."""
    return one(oga_hdaic_select(W, np.asarray(y, dtype=np.float64)[:, None], config,
                                intercept)[0])


def newey_west_one(psi, K) -> float:
    """newey_west of the one series psi."""
    return float(one(newey_west(np.asarray(psi, dtype=np.float64)[:, None], K)))


def hac_one(v, u, K=None, clusters=None):
    """hac_variance of the one pair (v, u): its tuple, or its error raised."""
    return one(hac_variance(np.asarray(v, dtype=np.float64)[:, None],
                            np.asarray(u, dtype=np.float64)[:, None], K, clusters))


def bartlett_sum(psi, K: int) -> float:
    """The Bartlett long-run variance of one series, summed as it is defined:
    over lags |ell| < K, (1 - |ell|/K) sum_t psi_t psi_{t-|ell|} / (T - |ell|)."""
    psi = np.asarray(psi, dtype=np.float64)
    T = psi.shape[0]
    return sum((1.0 - abs(ell) / K) * float(psi[abs(ell):] @ psi[: T - abs(ell)])
               / (T - abs(ell)) for ell in range(1 - K, K))


def coverage(report: McReport, method: str, horizon: int, level: float) -> float:
    return report.cells[(method, horizon, float(level))].coverage


def median_width(report: McReport, method: str, horizon: int, level: float) -> float:
    return report.cells[(method, horizon, float(level))].median_width


def replication(design: McDesign, methods, seed: int, rep: int) -> dict:
    """One replication's record: simulated and estimated as a block of one."""
    return next(_block(design, methods, seed, [rep]))


def per_level_report(design: McDesign, methods, levels, records) -> McReport:
    """The report as it was reduced from records that held each success's
    interval at each level: the intervals formed one float at a time, the
    way LpEstimate.ci forms one, then hits and widths summed in Python."""
    levels = tuple(float(v) for v in levels)
    horizons = design.lp_spec.horizons
    truth_arr = true_reduced_form_irf(
        design.dgp, design.response_index, design.innovation_index, horizons
    )
    truth = {h: float(v) for h, v in zip(horizons, truth_arr)}
    z = {level: NormalDist().inv_cdf(0.5 + level / 2.0) for level in levels}
    cells, failures = {}, 0
    for method in methods:
        for h in horizons:
            entries = [rec["methods"][method][str(h)] for rec in records]
            ok = [e for e in entries if "error" not in e]
            failures += len(entries) - len(ok)
            for level in levels:
                cis = [(e["beta"] - z[level] * e["se"], e["beta"] + z[level] * e["se"])
                       for e in ok]
                hits = sum(lo <= truth[h] <= hi for lo, hi in cis)
                widths = [hi - lo for lo, hi in cis]
                coverage = hits / len(ok) if ok else float("nan")
                width = float(np.median(widths)) if widths else float("nan")
                cells[(method, h, level)] = McCell(coverage, width, len(ok))
    return McReport(
        n_reps=len(records), methods=tuple(methods), horizons=horizons,
        levels=levels, truth=truth, cells=cells, failures=failures,
    )


def _as_design(X) -> np.ndarray:
    """X as a float64 design, a 1-D X as its one column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be 1-D or 2-D, got ndim={X.ndim}")
    return X


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Least-squares fit: coefficients, residuals, residual sum of squares, rank."""

    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    rank: int


def ols_fit(X, y) -> OlsFit:
    """OLS of y on the columns of X.

    Dependent columns (relative pivot below 1e-10) are dropped and their
    coefficients set to zero; residuals are always y - X @ coefficients.
    """
    X = _as_design(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] < 1:
        raise DimensionMismatch("need at least one observation")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise NonFinite("design or response contains non-finite entries")

    T, p = X.shape
    if p == 0:
        return OlsFit(np.zeros(0), y.copy(), float(y @ y), 0)

    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        resid = y.copy()
        return OlsFit(np.zeros(p), resid, float(resid @ resid), 0)
    rank = int(np.sum(diag > SPAN_RTOL * diag[0]))
    coef = np.zeros(p)
    if rank > 0:
        qty = Q[:, :rank].T @ y
        coef[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], qty)
    resid = y - X @ coef
    return OlsFit(coef, resid, float(resid @ resid), rank)


def orthonormal_columns(X, intercept: bool = False) -> np.ndarray:
    """Orthonormal basis for the column space of the n x p design X (and of a
    constant column after X's when intercept is set), from scipy's economic
    pivoted QR of the column-equilibrated design: the range basis, and the
    rank by its width, under the library's rule."""
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if p + intercept == 0:
        return np.zeros((n, 0))
    norms = np.linalg.norm(X, axis=0)
    scaled = X / np.where(norms > 0.0, norms, 1.0)
    if intercept:
        scaled = np.column_stack([scaled, np.full(n, 1.0 / np.sqrt(n))])
    Q, R, _ = scipy.linalg.qr(scaled, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros((n, 0))
    return Q[:, : int(np.sum(diag > SPAN_RTOL * diag[0]))]


def orthogonal_residual(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v minus its projection on the orthonormal columns of Q, in two passes."""
    r = v - Q @ (Q.T @ v)
    r -= Q @ (Q.T @ r)
    return r


def gram_schmidt_extend(orthobasis, new_col) -> np.ndarray | None:
    """Unit vector extending an orthonormal basis by one column.

    Returns None when new_col is already spanned: its residual norm is at
    most SPAN_RTOL times its own norm, which a zero column always is. Two
    projection passes keep the result orthogonal even for nearly dependent
    inputs.
    """
    Q = _as_design(orthobasis)
    c = np.asarray(new_col, dtype=np.float64).ravel()
    if Q.shape[0] != c.shape[0]:
        raise DimensionMismatch(
            f"orthobasis has {Q.shape[0]} rows but new column has {c.shape[0]}"
        )
    r = c - Q @ (Q.T @ c)
    r -= Q @ (Q.T @ r)
    nrm = np.linalg.norm(r)
    if nrm <= SPAN_RTOL * np.linalg.norm(c):
        return None
    return r / nrm


def prefix_residual_one_prefix(Q: np.ndarray, n: int, v: np.ndarray):
    """Residual of v (n entries) on the column space of the first n rows of
    the orthonormal Q, from that prefix's own Cholesky factor of I - UU',
    U = Q[n:], and triangular solve G = L^{-1} U; None when the Cholesky
    factorization fails or the eigenvalue bound 1 / (d + ||G||_F^2) of the
    d dropped rows is below PREFIX_EIG_TOL."""
    U = Q[n:]
    d = U.shape[0]
    try:
        L = np.linalg.cholesky(np.eye(d) - U @ U.T)
    except np.linalg.LinAlgError:
        return None
    G = scipy.linalg.solve_triangular(L, U, lower=True, check_finite=False)
    if (d + float(np.sum(G * G))) * PREFIX_EIG_TOL > 1.0:
        return None
    Q = Q[:n]
    r = v
    for _ in range(2):
        a = Q.T @ r
        r = r - Q @ (a + G.T @ (G @ a))
    return r


def project_out(basis, v) -> np.ndarray:
    """Residual of v after projecting onto the column space of basis.

    Uses an orthonormalized basis with one re-orthogonalization pass, so
    applying the projection twice changes nothing beyond rounding.
    """
    basis = _as_design(basis)
    v = np.asarray(v, dtype=np.float64).ravel()
    if basis.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"basis has {basis.shape[0]} rows but vector has {v.shape[0]}"
        )
    if basis.shape[1] == 0:
        return v.copy()
    return orthogonal_residual(orthonormal_columns(basis), v)


def simulate_var_per_lag(spec: VarDgpSpec, T: int, seed) -> TimeSeriesMatrix:
    """simulate_var's draws, advanced one lag matrix at a time: y_t = u_t +
    sum over lags l <= t of B_l y_{t-l}."""
    rng = _generator(seed)
    total = T + spec.burn_in
    chol = np.linalg.cholesky(spec.sigma)
    u = rng.standard_normal((total, spec.n)) @ chol.T
    y = np.zeros((total, spec.n))
    for t in range(total):
        acc = u[t].copy()
        for ell, b in enumerate(spec.B, start=1):
            if t - ell >= 0:
                acc += b @ y[t - ell]
        y[t] = acc
    names = tuple(f"y{i + 1}" for i in range(spec.n))
    return TimeSeriesMatrix(values=y[spec.burn_in :], columns=names)


def simulate_var_stacked(spec: VarDgpSpec, T: int, seed) -> TimeSeriesMatrix:
    """simulate_var's draws, advanced by one stacked matvec per step into a
    freshly allocated sum: y_t = u_t + [B_K .. B_1] [y_{t-K}; ..; y_{t-1}]."""
    rng = _generator(seed)
    total = T + spec.burn_in
    chol = np.linalg.cholesky(spec.sigma)
    u = rng.standard_normal((total, spec.n)) @ chol.T
    K = spec.K
    B = np.hstack(spec.B[::-1])
    y = np.zeros((K + total, spec.n))
    for t in range(total):
        y[K + t] = u[t] + B @ y[t : K + t].ravel()
    names = tuple(f"y{i + 1}" for i in range(spec.n))
    return TimeSeriesMatrix(values=y[K + spec.burn_in :], columns=names)


def oga_order_one_path(W, y, M: int, intercept: bool = False):
    """One greedy path at a time, as oga_order ran before it stepped many
    paths in lockstep: per step one W'r matvec, a Gram-Schmidt extension of
    a growing basis, and one W'q matvec; ties within TIE_RTOL times the
    starting RSS, as oga_order has them. Returns (order, sigma_sq, Q), or
    raises AllColumnsDegenerate with no admissible column at the first step.
    """
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    T, p = W.shape
    norms_sq = np.einsum("ij,ij->j", W, W)
    floor = SPAN_RTOL**2 * norms_sq

    Q = np.full((T, int(intercept)), 1.0 / math.sqrt(T))
    r = y - Q @ (Q.T @ y)
    tie = TIE_RTOL * float(r @ r)
    proj_sq = np.maximum(norms_sq - np.sum((W.T @ Q) ** 2, axis=1), 0.0)

    order: list[int] = []
    sigma_sq: list[float] = []
    alive = proj_sq > floor
    while len(order) < M:
        if not np.any(alive):
            if not order:
                raise AllColumnsDegenerate("no admissible column at the first step")
            break
        num = W.T @ r
        gain = np.where(alive, num * num / np.maximum(proj_sq, 1e-300), -np.inf)
        j = int(np.argmax(gain >= gain.max() - tie))
        q = gram_schmidt_extend(Q, W[:, j])
        if q is None:
            alive[j] = False
            continue
        order.append(j)
        alive[j] = False
        Q = np.column_stack([Q, q])
        r = r - q * (q @ r)
        c = W.T @ q
        proj_sq = np.maximum(proj_sq - c * c, 0.0)
        alive &= proj_sq > floor
        sigma_sq.append(float(r @ r) / T)
    return order, sigma_sq, Q


def holdout_c_star_one_path(W, y, n, path, candidates, intercept: bool = False):
    """One column's tuned c_star, as select_c_star chose it before it tuned
    every column in one pass: the candidate whose cut of path, a greedy path
    on the first n rows of W and y, predicts the other rows best; ties go to
    the smaller candidate. The holdout rows of the path's basis solve
    X_te = Q_te R with X = [1, W[:, order]], and the fit at cut m predicts
    the running sum of Q_te's columns weighted by Q'y; each cut is the
    first minimum of the scalar hdaic along the path on the n rows.
    """
    order, sigma_sq, Q = path
    T, p = W.shape
    X = W[:, order]
    if intercept:
        X = np.column_stack([np.ones(T), X])
    Q_te = np.linalg.solve((Q.T @ X[:n]).T, X[n:].T).T
    pred = np.cumsum(Q_te * (Q.T @ y[:n]), axis=1)[:, int(intercept):]
    err = y[n:, None] - pred
    mspe = np.einsum("ij,ij->j", err, err) / err.shape[0]

    def cut(c):
        values = [hdaic(s, m, p, n, float(c)) for m, s in enumerate(sigma_sq, start=1)]
        return int(np.argmin(values))

    return float(min(sorted(candidates), key=lambda c: mspe[cut(c)]))


def hdaic(sigma_sq: float, m: int, p, T: int, c_star: float) -> float:
    """Penalized residual variance (1 + c_star * m * log(p) / T) * sigma_sq."""
    return (1.0 + c_star * m * math.log(p) / T) * sigma_sq


def select_hdaic(sigma_sq_path, p: int, T: int, c_star: float) -> int:
    """Smallest m (1-based) minimizing the library's one-pass criterion
    curve along the path."""
    path = list(sigma_sq_path)
    if not path:
        raise ValueError("sigma_sq_path must be nonempty")
    curve = _hdaic_curves(np.array([path], dtype=np.float64), p, [T],
                          np.array([[c_star]], dtype=np.float64))
    return int(np.argmin(curve)) + 1


def select_c_star(
    W, y, candidates, config: OgaConfig | None = None, intercept: bool = False,
    rows=None,
):
    """The library's tuned c_star for y's columns on their own: the training
    paths of every column in one lockstep oga_order run, whose arrays go to
    one batched holdout pass (_holdout_c_stars), as oga_hdaic_select tunes
    them. Ties go to the smaller candidate; returns one c_star or error per
    column."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    config = config or OgaConfig()
    W, Y, rows = _as_paths(W, y, rows)
    if min(rows, default=2) < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    train = [_train_rows(T, config) for T in rows]
    paths = oga_order(W, Y, _budgets(train, W.shape[1], config), intercept, train)
    return _holdout_c_stars(W, Y, rows, train, paths, candidates, intercept)


def panel_row(panel: PanelDataset, unit, time: int) -> int | None:
    """The row of the panel's (unit, time) cell, or None if it lacks one."""
    rows = np.flatnonzero((panel.unit == unit) & (panel.time == time))
    return int(rows[0]) if rows.size else None

