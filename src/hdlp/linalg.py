"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays. Rank deficiency is handled by a
rank-revealing (pivoted) QR of the column-equilibrated design with a
relative pivot tolerance of 1e-10, or by a span test relative to the
column's own norm when a basis grows one column at a time: dependent
columns are dropped instead of raising, because unions of selected lag
columns are routinely collinear. A basis of a design also serves every row
prefix of that design (PrefixBasis), as long as the prefix keeps the
design's rank; every prefix is read off one Cholesky factor. One two-pass
kernel (orthogonalize, and extend on top of it) takes the residuals of many
series on many zero-padded bases, or on one basis read on many prefixes, in
a few batched products: greedy steps, unions and final residuals alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

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


def orthonormal_columns(X, intercept: bool = False) -> np.ndarray:
    """Orthonormal basis for the column space of X (rank revealed by pivoted
    QR), and of a constant column after X's when intercept is set.

    Each column is divided by its norm first (zero columns stay zero), so a
    column's pivot is judged against its own scale: the rank does not
    depend on the units a series is measured in.
    """
    X = _as_design(X)
    n, p = X.shape
    if p + intercept == 0:
        return np.zeros((n, 0))
    norms = np.linalg.norm(X, axis=0)
    scaled = np.empty((n, p + intercept), order="F")  # LAPACK's layout: QR in place
    np.divide(X, np.where(norms > 0.0, norms, 1.0), out=scaled[:, :p])
    if intercept:
        scaled[:, p] = 1.0 / np.sqrt(n)
    Q, R, _ = scipy.linalg.qr(scaled, overwrite_a=True, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros((X.shape[0], 0))
    rank = int(np.sum(diag > PIVOT_RTOL * diag[0]))
    return Q[:, :rank]


def orthogonalize(B, V, inside=None, G=None, dropped=None) -> np.ndarray:
    """V minus its projection on the row space of B, in two passes, in place.

    B (k x m x n) holds k bases of up to m orthonormal rows, zero-padded,
    or one basis (1 x m x n) for every series; V (k x c x n) holds c series
    per basis, zero on rows they do not use, and inside (broadcast against
    V) keeps their residuals zero there. G and dropped read one basis on row
    prefixes (PrefixBasis): series j, with dropped[j] rows dropped, has
    coefficients a + G_d'(G_d a), G_d the first dropped[j] rows of G.
    """
    for _ in range(2):
        a = B @ V.transpose(0, 2, 1)  # k x m x c
        if G is not None and G.shape[0]:
            g = G @ a
            g *= np.arange(G.shape[0])[:, None] < dropped
            a += G.T @ g
        V -= a.transpose(0, 2, 1) @ B
        if inside is not None:
            V *= inside
    return V


def extend(B: np.ndarray, m: np.ndarray, V: np.ndarray, going=None) -> np.ndarray:
    """Grow each basis B[i] (its first m[i] rows; the rest are zero) by the
    unit residual of the series V[i] against it, in place, and advance m;
    return the indices of the bases that grew. V[i] is spanned, and B[i]
    left alone, when its residual norm is at most SPAN_RTOL times its own
    norm (a zero series always is); with going, only marked bases grow.
    """
    norms = np.linalg.norm(V, axis=1)
    orthogonalize(B[:, : m.max(initial=0)], V[:, None, :])
    resid = np.linalg.norm(V, axis=1)
    grow = resid > SPAN_RTOL * norms
    new = np.flatnonzero(grow if going is None else going & grow)
    B[new, m[new]] = V[new] / resid[new, None]
    m[new] += 1
    return new


@dataclass(frozen=True, eq=False)
class PrefixBasis:
    """Orthonormal basis Q of a design X, used for the projection on the
    column space of X's first n rows, for every n from min_rows up.

    X[:n] = Q[:n] R, so with U = Q[n:] (the d dropped rows) the projection of
    v on that column space is Q[:n] (a + U'(I - UU')^{-1} U a), a = Q[:n]'v
    (Woodbury on (Q[:n]'Q[:n])^{-1} = (I - U'U)^{-1}). G = L^{-1} U, L the
    Cholesky factor of I - UU', turns the correction into G'(G a). Taken in
    reverse order, the dropped rows of every prefix are the leading rows of
    those of the shortest, U~, so each prefix's L and G are the leading
    block and rows of the one L and G of U~ (Golub & Van Loan, Matrix
    Computations, section 4.2). G holds them; the prefix with d dropped
    rows reads its first d rows.
    """

    Q: np.ndarray
    G: np.ndarray

    @classmethod
    def of(cls, X, intercept: bool = False) -> "PrefixBasis":
        """Basis of all of X's rows (and a constant column when intercept is
        set), from one pivoted QR."""
        Q = orthonormal_columns(X, intercept)
        return cls(Q, np.zeros((0, Q.shape[1])))

    @property
    def rank(self) -> int:
        return self.Q.shape[1]

    @property
    def min_rows(self) -> int:
        """The shortest prefix the basis serves."""
        return self.Q.shape[0] - self.G.shape[0]

    def reach(self, n: int) -> "PrefixBasis":
        """The basis read on every prefix of at least n rows that keeps its rank.

        The smallest eigenvalue of I - UU' (that of Q[:n]'Q[:n]) is at least
        1 / trace((I - UU')^{-1}) = 1 / (d + ||G_d||_F^2) for d dropped rows,
        a running sum over G's rows. The prefixes served stop before the
        first whose bound is below PREFIX_EIG_TOL, or whose leading block of
        I - U~U~' the Cholesky factorization reports not positive definite
        (LAPACK's info); the caller factors that prefix afresh. (The
        Cholesky diagonal alone bounds that eigenvalue only from above.)
        """
        N = self.Q.shape[0]
        if not 0 < n <= N:
            raise DimensionMismatch(f"a basis of {N} rows has no {n}-row prefix")
        U = self.Q[n:][::-1]
        d = U.shape[0]
        if d:
            L, info = scipy.linalg.lapack.dpotrf(np.eye(d) - U @ U.T, lower=True)
            d = d if info == 0 else info - 1
        G = scipy.linalg.solve_triangular(L[:d, :d], U[:d], lower=True,
                                          check_finite=False) if d else U[:0]
        bound = np.arange(1, d + 1) + np.cumsum(np.einsum("ij,ij->i", G, G))
        return PrefixBasis(self.Q, G[: np.count_nonzero(bound * PREFIX_EIG_TOL <= 1.0)])

    def residual(self, V: np.ndarray, rows) -> np.ndarray:
        """Residuals of the series in V's rows, in place: series i lives on
        the first rows[i] rows (at least min_rows), is zero below, and is
        projected on the column space of that prefix in two passes."""
        N = self.Q.shape[0]
        rows = np.asarray(rows)
        inside = np.arange(N) < rows[:, None]
        return orthogonalize(self.Q.T[None], V[None], inside, self.G, N - rows)[0]
