"""Reference routines for the tests.

The library reads every fit off the orthonormal bases its greedy paths
build, so it carries no general OLS solver. These independent pivoted-QR
routines are the oracle the tests compare it against. Rank deficiency is
handled by a rank-revealing (pivoted) QR with a relative pivot tolerance of
1e-10: dependent columns are dropped and get zero coefficients. The
lag-by-lag autoregression loop is the oracle for the library's stacked
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hdlp.dgp import VarDgpSpec, _generator
from hdlp.errors import DimensionMismatch, NonFinite
from hdlp.linalg import PIVOT_RTOL, _as_design, orthogonal_residual, orthonormal_columns
from hdlp.lp import TimeSeriesMatrix


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
