"""Dense least-squares kernels used throughout the estimators.

Everything works on plain float64 arrays. Rank deficiency is handled by a
rank-revealing (pivoted) QR with a relative pivot tolerance of 1e-10:
dependent columns are dropped and get zero coefficients instead of raising,
because unions of selected lag columns are routinely collinear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite

PIVOT_RTOL = 1e-10
SPAN_RTOL = 1e-10  # a column this far inside an existing span counts as degenerate


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Least-squares fit: coefficients, residuals, residual sum of squares, rank."""

    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    rank: int


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be 1-D or 2-D, got ndim={X.ndim}")
    return X


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


def orthonormal_columns(X) -> np.ndarray:
    """Orthonormal basis for the column space of X (rank revealed by pivoted QR)."""
    X = _as_design(X)
    if X.shape[1] == 0:
        return np.zeros((X.shape[0], 0))
    Q, R, _ = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros((X.shape[0], 0))
    rank = int(np.sum(diag > PIVOT_RTOL * diag[0]))
    return Q[:, :rank]


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


def orthogonal_residual(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v minus its projection on the orthonormal columns of Q, in two passes."""
    r = v - Q @ (Q.T @ v)
    r -= Q @ (Q.T @ r)
    return r


def gram_schmidt_extend(orthobasis, new_col) -> np.ndarray | None:
    """Unit vector extending an orthonormal basis by one column.

    Returns None when new_col is already spanned (residual norm below
    1e-10 times the column norm). Two projection passes keep the result
    orthogonal even for nearly dependent inputs.
    """
    Q = _as_design(orthobasis)
    c = np.asarray(new_col, dtype=np.float64).ravel()
    if Q.shape[0] != c.shape[0]:
        raise DimensionMismatch(
            f"orthobasis has {Q.shape[0]} rows but new column has {c.shape[0]}"
        )
    nrm0 = np.linalg.norm(c)
    if Q.shape[1] == 0:
        if nrm0 < SPAN_RTOL:
            return None
        return c / nrm0
    r = c - Q @ (Q.T @ c)
    r -= Q @ (Q.T @ r)
    nrm = np.linalg.norm(r)
    if nrm < SPAN_RTOL * nrm0:
        return None
    return r / nrm
