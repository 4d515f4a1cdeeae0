"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays: a design is n x p, and the
batched kernels take one zero-padded series per row. Rank deficiency
follows one rule, SPAN_RTOL: a column whose part outside the span of the
columns before it is at most 1e-10 of its own norm is dropped, not raised
on, because unions of selected lag columns are routinely collinear. A basis
grown one column at a time tests that directly; a pivoted QR tests its
pivots against the first, on the column-equilibrated design, where every
nonzero column and the intercept column have unit norm. A no-selection
fit reads every residual off that QR's orthonormal complement P of the
design's column space (complement): formed once when it is the narrower
factor (a 278 x 220 design has a 58-column complement), applied as the
QR's reflectors otherwise, so a tall design forms no orthogonal factor. One
complement serves every row prefix of its design that keeps the design's
rank (prefix_residuals), all of them read off one Cholesky factor, by one
formula for every design shape. One two-pass kernel (orthogonalize, and
extend on top of it) takes the residuals of many series on many
zero-padded bases in a few batched products: greedy steps and unions.

Only the pivoted QR, its reflectors and the prefix Cholesky need scipy,
and only the no-selection fits run them, so scipy is imported on their
first call (_scipy), not with the package: greedy double selection runs on
numpy alone. The module global, not an import inside each function, holds
it, so a caller that rebinds module attributes (a tracer, a test) still sees
the calls.
"""

from __future__ import annotations

import numpy as np

scipy = None  # bound by _scipy on first use

SPAN_RTOL = 1e-10  # a column this far inside an existing span counts as degenerate
# a row prefix keeps its design's QR while the smallest eigenvalue of its
# Gram matrix Q_n'Q_n is provably at least this; projections then lose at most
# a factor 1e4 of accuracy to the solve
PREFIX_EIG_TOL = 1e-4


def _scipy():
    """scipy, with scipy.linalg and its LAPACK wrappers loaded."""
    global scipy
    if scipy is None:
        import scipy.linalg.lapack
    return scipy


def _optimal(routine, *args, **kwargs):
    """The first output of a LAPACK wrapper run with its optimal workspace,
    queried first, as scipy.linalg.qr sizes it. An illegal argument (LAPACK's
    info < 0) raises LinAlgError, so it fails its regression rather than
    leaving the array half computed."""
    work, info = routine(*args, lwork=-1, **kwargs)[-2:]
    if info == 0:
        out = routine(*args, lwork=int(work[0]), **kwargs)
        info = out[-1]
    if info < 0:
        raise np.linalg.LinAlgError(
            f"illegal value in argument {-info} of {routine.__name__}")
    return out[0]


def complement(X, intercept: bool, d: int):
    """The rank r of the n x p design X (and of a constant column after X's
    when intercept is set), revealed by one pivoted Householder QR; the last
    d rows D of the orthonormal complement P = Q[:, r:] of its column space
    (Q the QR's n x n orthogonal factor), last row first; and the two moves
    onto(A) = AP and back(b) = bP', for series held in rows.

    Each column is divided by its norm first (zero columns stay zero), so a
    column's pivot is judged against its own scale: the rank does not
    depend on the units a series is measured in. The QR is kept in LAPACK's
    raw form. When P is narrow (n - r < r, as in a 278 x 220 design), it is
    formed once by applying Q to [0; I], and each move is one product with
    it; else each move applies Q's reflectors (Q' to A', then Q to [0; b']),
    so a tall design forms neither an n x r nor an n x (n - r) matrix. The
    switch was timed on prefix_residuals (20 prefixes of two series, one
    BLAS thread, best of 100): formed against reflected, 0.24 against
    0.30 ms at n = 80, r = 40; 2.5 against 2.1 ms at n = 278, r = 139; and
    3.3 against 3.7 ms at n = 278, r = 220 (the Monte Carlo's design).
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    linalg = _scipy().linalg
    # no columns: one reflector that is the identity, so P = I
    rank, reflectors, tau = 0, np.zeros((n, 1), order="F"), np.zeros(1)
    if p + intercept:
        norms = np.linalg.norm(X, axis=0)
        scaled = np.empty((n, p + intercept), order="F")  # LAPACK's layout: QR in place
        np.divide(X, np.where(norms > 0.0, norms, 1.0), out=scaled[:, :p])
        if intercept:
            scaled[:, p] = 1.0 / np.sqrt(n)
        (qr, tau), R, _ = linalg.qr(scaled, overwrite_a=True, mode="raw", pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int(np.sum(diag > SPAN_RTOL * diag[0]))
        reflectors = qr[:, : tau.size]  # a wide design has only n of them

    def apply(trans, C):
        return _optimal(linalg.lapack.dormqr, "L", trans, reflectors, tau, C,
                        overwrite_c=1)

    if n - rank < rank:
        unit = np.zeros((n, n - rank), order="F")
        np.fill_diagonal(unit[rank:], 1.0)
        P = apply("N", unit)
        return rank, P[n - d:][::-1], lambda A: A @ P, lambda b: b @ P.T

    def onto(A):
        return apply("T", np.array(A.T, order="F"))[rank:].T

    def back(b):
        C = np.zeros((n, b.shape[0]), order="F")
        C[rank:] = b.T
        return apply("N", C).T

    return rank, onto(np.eye(d, n, n - d)[::-1]), onto, back


def orthogonalize(B, V) -> np.ndarray:
    """V minus its projection on the row space of B, in two passes, in place.

    B (k x m x n) holds k bases of up to m orthonormal rows, zero-padded,
    or one basis (1 x m x n) for every series; V (k x c x n) holds c series
    per basis, zero on rows they do not use.
    """
    for _ in range(2):
        V -= (B @ V.transpose(0, 2, 1)).transpose(0, 2, 1) @ B
    return V


def extend(B: np.ndarray, m: np.ndarray, V: np.ndarray) -> None:
    """Grow each basis B[i] (its first m[i] rows; the rest are zero) by the
    unit residual of the series V[i] against it, in place, and advance m.
    V[i] is spanned, and B[i] left alone, when its residual norm is at most
    SPAN_RTOL times its own norm, so a zero series holds its basis still. V
    comes back holding each basis's new row, zero where none grew; row m[i]
    of every basis is written, so each needs a free row.
    """
    norms = np.sqrt(np.add.reduce(V * V, axis=1))
    orthogonalize(B[:, : m.max(initial=0)], V[:, None, :])
    resid = np.sqrt(np.add.reduce(V * V, axis=1))
    grown = resid > SPAN_RTOL * norms
    V /= np.where(grown, resid, 1.0)[:, None]
    if not grown.all():
        np.copyto(V, 0.0, where=~grown[:, None])
    B[np.arange(len(m)), m] = V
    m += grown


def prefix_residuals(C, intercept: bool, V: np.ndarray, rows, failed) -> np.ndarray:
    """Residuals of the series in V (k x c x n; regression i's are zero
    below rows[i], and rows do not increase) on the column space of the
    first rows[i] rows of [C, 1] (C alone without intercept), in place, and
    each regression's rank. A factorization that fails fails its regression:
    the error goes in failed[i].

    One pivoted QR of the first N = rows[i] rows, of rank r, serves every
    later prefix that keeps its rank, through its complement P (complement).
    For a prefix of n rows, let D be the d = N - n dropped rows of P: the
    prefix's residual space is P times the null space of D, onto which
    I - G'G projects, G = L^{-1} D and LL' = DD'. So the residual of v is
    P (b - G'(G b)), b = P'v, for every design shape. Taken in reverse
    order, the dropped rows of every prefix are the leading rows of those of
    the shortest, so each prefix's L and G are the leading block and rows of
    the one L and G of the shortest (Golub & Van Loan, Matrix Computations,
    section 4.2).

    The smallest eigenvalue of DD' (that of the prefix's Gram matrix
    Q[:n, :r]'Q[:n, :r]) is at least 1 / trace((DD')^{-1}) = 1 / ||L_d^{-1}||_F^2,
    a running sum over the rows of L^{-1}. The prefixes served stop before
    the first whose bound is below PREFIX_EIG_TOL, or whose leading block
    the Cholesky factorization reports not positive definite (LAPACK's info;
    the Cholesky diagonal alone bounds that eigenvalue only from above).
    That prefix is factored afresh and serves those after it.
    """
    k, c, _ = V.shape
    rank = np.zeros(k, dtype=np.intp)
    i = 0
    while i < k:
        N = rows[i]
        try:
            r, D, onto, back = complement(C[:N], intercept, N - rows[-1])
            linalg = _scipy().linalg
            L, info = linalg.lapack.dpotrf(D @ D.T, lower=True)
            d = D.shape[0] if info == 0 else info - 1
            L_inv = linalg.solve_triangular(L[:d, :d], np.eye(d), lower=True,
                                            check_finite=False)
            G, sq = L_inv @ D[:d], np.einsum("ij,ij->i", L_inv, L_inv)
            del D  # a tall design's D is as large as G: keep one of them
            G = G[: np.count_nonzero(np.cumsum(sq) * PREFIX_EIG_TOL <= 1.0)]
            j = i + sum(1 for n in rows[i:] if n >= N - G.shape[0])
            served = np.repeat(rows[i:j], c)
            b = onto(V[i:j, :, :N].reshape(-1, N))
            g = b @ G.T
            g *= np.arange(G.shape[0]) < (N - served)[:, None]
            b -= g @ G
            resid = back(b)
            resid *= np.arange(N) < served[:, None]
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
            i += 1
            continue
        V[i:j, :, :N] = resid.reshape(j - i, c, N)
        rank[i:j] = r
        i = j
    return rank
