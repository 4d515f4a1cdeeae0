"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays. Rank deficiency is handled by a
rank-revealing (pivoted) QR of the column-equilibrated design with a
relative pivot tolerance of 1e-10, or by a span test relative to the
column's own norm when a basis grows one column at a time: dependent
columns are dropped instead of raising, because unions of selected lag
columns are routinely collinear. A basis of a design also serves every row
prefix of that design (PrefixBasis), as long as the prefix keeps the
design's rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch

PIVOT_RTOL = 1e-10
SPAN_RTOL = 1e-10  # a column this far inside an existing span counts as degenerate
# a row prefix keeps its design's basis while the smallest eigenvalue of its
# Gram matrix Q_n'Q_n is provably at least this; projections then lose at most
# a factor 1e4 of accuracy to the solve
PREFIX_EIG_TOL = 1e-4


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"design must be 1-D or 2-D, got ndim={X.ndim}")
    return X


def orthonormal_columns(X) -> np.ndarray:
    """Orthonormal basis for the column space of X (rank revealed by pivoted QR).

    Each column is divided by its norm first (zero columns stay zero), so a
    column's pivot is judged against its own scale: the rank does not
    depend on the units a series is measured in.
    """
    X = _as_design(X)
    if X.shape[1] == 0:
        return np.zeros((X.shape[0], 0))
    norms = np.linalg.norm(X, axis=0)
    scaled = np.empty_like(X, order="F")  # LAPACK's layout, so QR works in place
    np.divide(X, np.where(norms > 0.0, norms, 1.0), out=scaled)
    Q, R, _ = scipy.linalg.qr(scaled, overwrite_a=True, mode="economic", pivoting=True)
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


@dataclass(frozen=True, eq=False)
class PrefixBasis:
    """Orthonormal basis Q of a design X, used for the projection on the
    column space of X's first n rows.

    X[:n] = Q[:n] R, so with U = Q[n:] (the dropped rows) the projection of v
    on that column space is Q[:n] (a + U'(I - UU')^{-1} U a), a = Q[:n]'v
    (Woodbury on (Q[:n]'Q[:n])^{-1} = (I - U'U)^{-1}). G = L^{-1} U, L the
    Cholesky factor of I - UU', turns the correction into G'(G a). With no
    dropped rows G is empty and residual() is orthogonal_residual(Q, v).
    """

    Q: np.ndarray
    n: int
    G: np.ndarray

    @classmethod
    def of(cls, X) -> "PrefixBasis":
        """Basis of all of X's rows, from one pivoted QR."""
        Q = orthonormal_columns(X)
        return cls(Q, Q.shape[0], np.zeros((0, Q.shape[1])))

    @property
    def rank(self) -> int:
        return self.Q.shape[1]

    def on_rows(self, n: int) -> "PrefixBasis | None":
        """The basis read on the first n rows, or None when they may lose rank.

        The smallest eigenvalue of I - UU' (that of Q[:n]'Q[:n]) is at least
        1 / trace((I - UU')^{-1}) = 1 / (d + ||G||_F^2) for d dropped rows;
        below PREFIX_EIG_TOL, or when the Cholesky factorization fails, the
        caller factors X[:n] afresh. (The Cholesky diagonal alone bounds that
        eigenvalue only from above.)
        """
        if not 0 < n <= self.Q.shape[0]:
            raise DimensionMismatch(
                f"a basis of {self.Q.shape[0]} rows has no {n}-row prefix"
            )
        U = self.Q[n:]
        d = U.shape[0]
        try:
            L = np.linalg.cholesky(np.eye(d) - U @ U.T)
        except np.linalg.LinAlgError:
            return None
        G = scipy.linalg.solve_triangular(L, U, lower=True, check_finite=False)
        if (d + float(np.sum(G * G))) * PREFIX_EIG_TOL > 1.0:
            return None
        return PrefixBasis(self.Q, n, G)

    def residual(self, v: np.ndarray) -> np.ndarray:
        """v minus its projection on the prefix's column space, in two passes."""
        Q = self.Q[: self.n]
        r = v
        for _ in range(2):
            a = Q.T @ r
            r = r - Q @ (a + self.G.T @ (self.G @ a))
        return r
