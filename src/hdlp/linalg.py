"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays: a design is n x p, and the
batched kernels take one zero-padded series per row. Rank deficiency
follows one rule, SPAN_RTOL: a column whose part outside the span of the
columns before it is at most 1e-10 of its own norm is dropped, not raised
on, because unions of selected lag columns are routinely collinear. A basis
grown one column at a time tests that directly; a pivoted QR tests its
pivots against the first, on the column-equilibrated design, where every
nonzero column and the intercept column have unit norm. A basis of a design
also serves every row prefix of that design (prefix_residuals), as long as
the prefix keeps the design's rank; every prefix is read off one Cholesky
factor. One two-pass kernel (orthogonalize, and extend on top of it) takes
the residuals of many series on many zero-padded bases, or on one basis
read on many prefixes, in a few batched products: greedy steps, unions and
final residuals alike.

Only the pivoted QR and the prefix Cholesky need scipy, and only the
no-selection fits run them, so scipy is imported on their first call
(_scipy), not with the package: greedy double selection runs on numpy
alone. The module global, not an import inside each function, holds it, so
a caller that rebinds module attributes (a tracer, a test) still sees the
calls.
"""

from __future__ import annotations

import numpy as np

scipy = None  # bound by _scipy on first use

SPAN_RTOL = 1e-10  # a column this far inside an existing span counts as degenerate
# a row prefix keeps its design's basis while the smallest eigenvalue of its
# Gram matrix Q_n'Q_n is provably at least this; projections then lose at most
# a factor 1e4 of accuracy to the solve
PREFIX_EIG_TOL = 1e-4


def _scipy():
    """scipy, with scipy.linalg and its LAPACK wrappers loaded."""
    global scipy
    if scipy is None:
        import scipy.linalg.lapack
    return scipy


def orthonormal_columns(X, intercept: bool = False) -> np.ndarray:
    """Orthonormal basis for the column space of the n x p design X (rank
    revealed by pivoted QR), and of a constant column after X's when
    intercept is set.

    Each column is divided by its norm first (zero columns stay zero), so a
    column's pivot is judged against its own scale: the rank does not
    depend on the units a series is measured in.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if p + intercept == 0:
        return np.zeros((n, 0))
    norms = np.linalg.norm(X, axis=0)
    scaled = np.empty((n, p + intercept), order="F")  # LAPACK's layout: QR in place
    np.divide(X, np.where(norms > 0.0, norms, 1.0), out=scaled[:, :p])
    if intercept:
        scaled[:, p] = 1.0 / np.sqrt(n)
    Q, R, _ = _scipy().linalg.qr(scaled, overwrite_a=True, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros((X.shape[0], 0))
    rank = int(np.sum(diag > SPAN_RTOL * diag[0]))
    return Q[:, :rank]


def orthogonalize(B, V, inside=None, G=None, dropped=None) -> np.ndarray:
    """V minus its projection on the row space of B, in two passes, in place.

    B (k x m x n) holds k bases of up to m orthonormal rows, zero-padded,
    or one basis (1 x m x n) for every series; V (k x c x n) holds c series
    per basis, zero on rows they do not use, and inside (broadcast against
    V) keeps their residuals zero there. G and dropped read one basis on row
    prefixes (prefix_residuals): series j, with dropped[j] rows dropped, has
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


def prefix_residuals(C, intercept: bool, V: np.ndarray, rows, failed) -> np.ndarray:
    """Residuals of the series in V (k x c x n; regression i's are zero
    below rows[i], and rows do not increase) on the column space of the
    first rows[i] rows of [C, 1] (C alone without intercept), in place, and
    each regression's rank. A factorization that fails fails its regression:
    the error goes in failed[i].

    One pivoted QR, Q of the first N = rows[i] rows, serves every later
    prefix that keeps its rank. For a prefix of n rows, with U = Q[n:] (the
    d dropped rows), the projection of v on its column space is
    Q[:n] (a + U'(I - UU')^{-1} U a), a = Q[:n]'v (Woodbury on
    (Q[:n]'Q[:n])^{-1} = (I - U'U)^{-1}). G = L^{-1} U, L the Cholesky
    factor of I - UU', turns the correction into G'(G a). Taken in reverse
    order, the dropped rows of every prefix are the leading rows of those of
    the shortest, U~, so each prefix's L and G are the leading block and
    rows of the one L and G of U~ (Golub & Van Loan, Matrix Computations,
    section 4.2); orthogonalize reads the first d rows of G.

    The smallest eigenvalue of I - UU' (that of Q[:n]'Q[:n]) is at least
    1 / trace((I - UU')^{-1}) = 1 / (d + ||G_d||_F^2), a running sum over
    G's rows. The prefixes served stop before the first whose bound is below
    PREFIX_EIG_TOL, or whose leading block of I - U~U~' the Cholesky
    factorization reports not positive definite (LAPACK's info; the Cholesky
    diagonal alone bounds that eigenvalue only from above). That prefix is
    factored afresh and serves those after it.
    """
    k, c, _ = V.shape
    rank = np.zeros(k, dtype=np.intp)
    i = 0
    while i < k:
        N = rows[i]
        try:
            Q = orthonormal_columns(C[:N], intercept)
            U = Q[rows[-1]:][::-1]
            d = U.shape[0]
            linalg = _scipy().linalg
            if d:
                L, info = linalg.lapack.dpotrf(np.eye(d) - U @ U.T, lower=True)
                d = d if info == 0 else info - 1
            G = linalg.solve_triangular(L[:d, :d], U[:d], lower=True,
                                        check_finite=False) if d else U[:0]
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
            i += 1
            continue
        bound = np.arange(1, d + 1) + np.cumsum(np.einsum("ij,ij->i", G, G))
        G = G[: np.count_nonzero(bound * PREFIX_EIG_TOL <= 1.0)]
        j = i + sum(1 for r in rows[i:] if r >= N - G.shape[0])
        served = np.repeat(rows[i:j], c)
        block = V[i:j, :, :N].reshape(-1, N)  # a copy unless N is V's width
        orthogonalize(Q.T[None], block[None], np.arange(N) < served[:, None], G,
                      N - served)
        V[i:j, :, :N] = block.reshape(j - i, c, N)
        rank[i:j] = Q.shape[1]
        i = j
    return rank
