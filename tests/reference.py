"""Reference routines for the tests.

The library reads every fit off the orthonormal bases its greedy paths
build, so it carries no general OLS solver. These independent pivoted-QR
routines are the oracle the tests compare it against. Rank deficiency is
handled by a rank-revealing (pivoted) QR with a relative pivot tolerance of
1e-10: dependent columns are dropped and get zero coefficients. The
lag-by-lag autoregression loop is the oracle for the library's stacked
simulator, the one-path greedy loop for its lockstep greedy kernel, and the
one-path holdout for its batched c_star tuning.
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
    SPAN_RTOL,
    _as_design,
    gram_schmidt_extend,
    orthogonal_residual,
    orthonormal_columns,
)
from hdlp.lp import TimeSeriesMatrix
from hdlp.selection import TIE_RTOL, hdaic


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
