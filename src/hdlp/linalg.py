"""Orthonormal-basis kernels behind every fit in the estimators.

Everything works on plain float64 arrays: a design is n x p, and the
batched kernels take one zero-padded series per row. Rank deficiency
follows one rule, SPAN_RTOL: a column whose part outside the span of the
columns before it is at most 1e-10 of its own norm is dropped, not raised
on, because unions of selected lag columns are routinely collinear. A basis
grown one column at a time tests that directly; a pivoted QR tests its
pivots against the first, on the column-equilibrated design, where every
nonzero column and the intercept column have unit norm. Of that QR's
orthogonal factor only the narrower part is formed (narrow_basis): the
basis of the design's column space when the design is tall, else the basis
of its complement (a 278 x 220 design has a 58-column complement), so a
near-square no-selection design costs neither a full orthogonal factor nor
two projections on it. A basis of a design also serves every row prefix of
that design (prefix_residuals), as long as the prefix keeps the design's
rank; every prefix, on either basis, is read off one Cholesky factor. One
two-pass kernel (orthogonalize, and extend on top of it) takes the
residuals of many series on many zero-padded bases, or on one range basis
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


def narrow_basis(X, intercept: bool = False) -> tuple[int, np.ndarray]:
    """The rank r of the n x p design X (and of a constant column after X's
    when intercept is set), revealed by one pivoted Householder QR, and the
    narrower of the two orthonormal bases that QR's n x n factor Q splits
    into: the range Q[:, :r] when r <= n - r, else the complement Q[:, r:]
    (n - r < r columns, so the caller tells them apart by width).

    Each column is divided by its norm first (zero columns stay zero), so a
    column's pivot is judged against its own scale: the rank does not
    depend on the units a series is measured in. The QR is kept in LAPACK's
    raw form, and only the chosen basis is formed: the range as scipy's
    economic mode forms it, the complement by applying Q to [0; I]. The two
    cost about the same near r = 0.4 n (timed in prefix_residuals, one BLAS
    thread, n = 80 and 278); switching at n / 2 keeps the range's operations
    and bits for every design with r <= n / 2 at a cost of at most about 7%
    of that kernel between the two, and the complement wins above n / 2.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if p + intercept == 0:
        return 0, np.zeros((n, 0))
    norms = np.linalg.norm(X, axis=0)
    scaled = np.empty((n, p + intercept), order="F")  # LAPACK's layout: QR in place
    np.divide(X, np.where(norms > 0.0, norms, 1.0), out=scaled[:, :p])
    if intercept:
        scaled[:, p] = 1.0 / np.sqrt(n)
    linalg = _scipy().linalg
    (qr, tau), R, _ = linalg.qr(scaled, overwrite_a=True, mode="raw", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] <= 0.0:
        return 0, np.zeros((n, 0))
    rank = int(np.sum(diag > SPAN_RTOL * diag[0]))
    reflectors = qr[:, : tau.size]  # a wide design has only n of them
    if rank <= n - rank:
        Q = _optimal(linalg.lapack.dorgqr, reflectors, tau, overwrite_a=1)
        return rank, Q[:, :rank]
    unit = np.zeros((n, n - rank), order="F")
    np.fill_diagonal(unit[rank:], 1.0)
    return rank, _optimal(linalg.lapack.dormqr, "L", "N", reflectors, tau, unit,
                          overwrite_c=1)


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

    One pivoted QR of the first N = rows[i] rows, of rank r, serves every
    later prefix that keeps its rank, through the narrower of its two bases
    (narrow_basis). For a prefix of n rows, let U and D be the d = N - n
    dropped rows of the range Q[:, :r] and of the complement P = Q[:, r:];
    the rows of Q are orthonormal, so UU' + DD' = I, and both sides factor
    that one Gram matrix, LL' = DD' = I - UU'. On the range side (r <= N - r:
    tall designs) the projection of v on the prefix's column space is
    Q[:n] (a + U'(I - UU')^{-1} U a), a = Q[:n]'v (Woodbury on
    (Q[:n]'Q[:n])^{-1} = (I - U'U)^{-1}); G = L^{-1} U turns the correction
    into G'(G a), and orthogonalize removes it in two passes. On the
    complement side the residual itself is one pass, P (b - G'(G b)),
    b = P'v, G = L^{-1} D: the prefix's residual space is P times the null
    space of D, onto which I - G'G projects. There DD' is formed directly,
    free of the cancellation in I - UU' near rank loss. Taken in reverse
    order, the dropped rows of every prefix are the leading rows of those of
    the shortest, so each prefix's L and G are the leading block and rows of
    the one L and G of the shortest (Golub & Van Loan, Matrix Computations,
    section 4.2).

    The smallest eigenvalue of DD' (that of Q[:n, :r]'Q[:n, :r]) is at
    least 1 / trace((DD')^{-1}) = 1 / ||L_d^{-1}||_F^2, a running sum over
    the rows of L^{-1}; on the range side it is d + ||G_d||_F^2. The
    prefixes served stop before the first whose bound is below
    PREFIX_EIG_TOL, or whose leading block the Cholesky factorization
    reports not positive definite (LAPACK's info; the Cholesky diagonal
    alone bounds that eigenvalue only from above). That prefix is factored
    afresh and serves those after it.
    """
    k, c, _ = V.shape
    rank = np.zeros(k, dtype=np.intp)
    i = 0
    while i < k:
        N = rows[i]
        try:
            r, B = narrow_basis(C[:N], intercept)
            complement = B.shape[1] < r
            M = B[rows[-1]:][::-1]  # U or D of the shortest prefix, last row first
            d = M.shape[0]
            linalg = _scipy().linalg
            gram = M @ M.T if complement else np.eye(d) - M @ M.T
            L, info = linalg.lapack.dpotrf(gram, lower=True)
            d = d if info == 0 else info - 1
            L = L[:d, :d]
            if complement:  # G's rows are orthonormal here: the bound needs L^{-1}
                L_inv = linalg.solve_triangular(L, np.eye(d), lower=True,
                                                check_finite=False)
                G, sq = L_inv @ M[:d], np.einsum("ij,ij->i", L_inv, L_inv)
            else:
                G = linalg.solve_triangular(L, M[:d], lower=True, check_finite=False)
                sq = 1.0 + np.einsum("ij,ij->i", G, G)
        except np.linalg.LinAlgError as exc:
            failed[i] = exc
            i += 1
            continue
        G = G[: np.count_nonzero(np.cumsum(sq) * PREFIX_EIG_TOL <= 1.0)]
        j = i + sum(1 for n in rows[i:] if n >= N - G.shape[0])
        served = np.repeat(rows[i:j], c)
        dropped = N - served
        inside = np.arange(N) < served[:, None]
        block = V[i:j, :, :N].reshape(-1, N)  # a copy unless N is V's width
        if complement:
            b = block @ B
            g = b @ G.T
            g *= np.arange(G.shape[0]) < dropped[:, None]
            b -= g @ G
            block = (b @ B.T) * inside
        else:
            orthogonalize(B.T[None], block[None], inside, G, dropped)
        V[i:j, :, :N] = block.reshape(j - i, c, N)
        rank[i:j] = r
        i = j
    return rank
