"""Reference routines for the tests.

The library reads every fit off the orthonormal bases its greedy paths
build, so it carries no general OLS solver. These independent pivoted-QR
routines are the oracle the tests compare it against. Rank deficiency is
handled by a rank-revealing (pivoted) QR with a relative pivot tolerance of
1e-10: dependent columns are dropped and get zero coefficients. The
two-pass residual and Gram-Schmidt step are the oracles for the library's
batched projection kernel, the per-prefix Cholesky for its one-factor
prefix basis, the lag-by-lag autoregression loop and the stacked loop that
allocates each step for its in-place simulator, the one-path greedy loop
for its lockstep greedy kernel, and the one-path holdout for its batched
c_star tuning. The scalar criterion, its argmin and a tuning-only entry
point (select_c_star) read the library's batched curves and holdout.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
import scipy.linalg

from hdlp.dgp import VarDgpSpec, _generator
from hdlp.errors import AllColumnsDegenerate, DimensionMismatch, NonFinite
from hdlp.linalg import (
    PIVOT_RTOL,
    PREFIX_EIG_TOL,
    SPAN_RTOL,
    _as_design,
    orthonormal_columns,
)
from hdlp.lp import TimeSeriesMatrix
from hdlp.selection import (
    TIE_RTOL,
    OgaConfig,
    _as_paths,
    _budgets,
    _hdaic_curves,
    _holdout_c_stars,
    _train_rows,
    _unwrap,
    oga_order,
)


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
    rank = int(np.sum(diag > PIVOT_RTOL * diag[0]))
    coef = np.zeros(p)
    if rank > 0:
        qty = Q[:, :rank].T @ y
        coef[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], qty)
    resid = y - X @ coef
    return OlsFit(coef, resid, float(resid @ resid), rank)


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
    a growing basis, and one W'q matvec. Returns (order, sigma_sq, Q), or
    raises AllColumnsDegenerate with no admissible column at the first step.
    """
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    T, p = W.shape
    norms_sq = np.einsum("ij,ij->j", W, W)
    floor = SPAN_RTOL**2 * norms_sq

    Q = np.full((T, int(intercept)), 1.0 / math.sqrt(T))
    r = y - Q @ (Q.T @ y)
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
        j = int(np.argmax(gain >= gain.max() * (1.0 - TIE_RTOL)))
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
    paths of every column in one lockstep oga_order run and one batched
    holdout pass (_holdout_c_stars), as oga_hdaic_select tunes them. Ties
    go to the smaller candidate; a 1-D y returns one c_star or raises its
    error, a 2-D y one c_star or error per column."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    config = config or OgaConfig()
    W, Y, rows, single = _as_paths(W, y, rows)
    if min(rows, default=2) < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    train = [_train_rows(T, config) for T in rows]
    paths = oga_order(W, Y, _budgets(train, W.shape[1], config), intercept, train)
    out = _holdout_c_stars(W, Y, rows, train, paths, candidates, intercept)
    return _unwrap(out[0]) if single else out
