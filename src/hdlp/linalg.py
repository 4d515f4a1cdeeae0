"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays. Rank deficiency is handled by a
rank-revealing (pivoted) QR with a relative pivot tolerance of 1e-10, or by
a 1e-10 span test when a basis grows one column at a time: dependent columns
are dropped instead of raising, because unions of selected lag columns are
routinely collinear.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch

PIVOT_RTOL = 1e-10
SPAN_RTOL = 1e-10  # a column this far inside an existing span counts as degenerate


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be 1-D or 2-D, got ndim={X.ndim}")
    return X


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
