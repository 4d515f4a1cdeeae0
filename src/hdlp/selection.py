"""Greedy covariate ordering with an information-criterion stopping rule.

The ordering step repeatedly picks the candidate whose addition yields the
largest drop in residual sum of squares, which is the scaled-correlation
score evaluated on the candidate's component orthogonal to everything
already selected. The stopping step minimizes

    (1 + c_star * m * log(p) / T) * sigma_sq(m)

over the path, where sigma_sq(m) is the residual variance after m picks.
The penalty constant can be fixed or tuned on a time-ordered holdout.

An optional intercept is always part of the projection, is never a
selection candidate, and does not count toward the penalty. Its basis
column, the constant 1/sqrt(T), is written down rather than factored.

Many short paths cost little more than one: oga_order and oga_hdaic_select
take a 2-D y, one path per column, each on its own
leading rows of one shared design, and advance every path in lockstep with
one matrix product per step. Tuning and cutting run in the same style: the
holdout systems of all training paths are stacked and solved in one call
per path length, every holdout error curve comes from one sum of squares,
and the criterion curves of every path and candidate are one array
expression that repeats the scalar criterion's arithmetic exactly. A path
that fails gets its error in its slot and leaves the others alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllColumnsDegenerate, DimensionMismatch, InsufficientSample
from .linalg import SPAN_RTOL, extend

DEFAULT_C_STAR_CANDIDATES = (1.6, 1.8, 2.0, 2.2, 2.4)
TIE_RTOL = 1e-12  # greedy gains this close to the best one count as a tie


@dataclass(frozen=True)
class OgaConfig:
    """Tuning knobs for the greedy selection.

    c_star: fixed penalty constant; a tuple means data-driven choice over
        those candidates, and None means data-driven over
        DEFAULT_C_STAR_CANDIDATES.
    max_steps_override: hard cap on the number of greedy steps.
    mbar_scale / delta_assumed: constants of the step-budget formula
        ceil(mbar_scale * (T / max(log p, 1)^3) ** (1 / (2 * delta_assumed))),
        which is defined only up to unknown constants, hence configurable.
    eval_fraction: tail share held out when tuning c_star.
    """

    c_star: float | tuple[float, ...] | None = 2.0
    max_steps_override: int | None = None
    mbar_scale: float = 5.0
    delta_assumed: float = 2.0
    eval_fraction: float = 0.2

    def __post_init__(self):
        if isinstance(self.c_star, tuple):
            if not self.c_star or any(c <= 0 for c in self.c_star):
                raise ValueError("c_star candidates must be positive and nonempty")
        elif self.c_star is not None and self.c_star <= 0:
            raise ValueError("c_star must be positive")
        if self.mbar_scale <= 0:
            raise ValueError("mbar_scale must be positive")
        if self.delta_assumed <= 1:
            raise ValueError("delta_assumed must exceed 1")
        if not 0 < self.eval_fraction < 0.5:
            raise ValueError("eval_fraction must lie in (0, 0.5)")

    @property
    def tuning_candidates(self) -> tuple[float, ...] | None:
        """Candidate set when c_star is data-driven, else None."""
        if self.c_star is None:
            return DEFAULT_C_STAR_CANDIDATES
        if isinstance(self.c_star, tuple):
            return self.c_star
        return None


@dataclass(frozen=True)
class SelectionPath:
    """Result of one greedy run: ordering, criterion curve, chosen model, and
    an orthonormal basis of the intercept, if any, and the chosen set (pick
    order)."""

    ordered_indices: tuple[int, ...]
    sigma_sq_path: tuple[float, ...]
    hdaic_path: tuple[float, ...]
    chosen_m: int
    chosen_set: tuple[int, ...]
    c_star_used: float
    basis: np.ndarray = field(compare=False, repr=False)


def max_steps(T: int, p: int, config: OgaConfig) -> int:
    """Greedy step budget: min(p, T-1, override, budget formula), at least 1."""
    if T < 2 or p < 1:
        raise ValueError("need T >= 2 and p >= 1")
    logp = max(math.log(p), 1.0)
    budget = math.ceil(
        config.mbar_scale * (T / logp**3) ** (1.0 / (2.0 * config.delta_assumed))
    )
    m = min(p, T - 1, budget)
    if config.max_steps_override is not None:
        m = min(m, config.max_steps_override)
    return max(m, 1)


def _as_paths(W, y, rows):
    """W as a float64 matrix, y as one column per path, and each path's row
    count (all of W's rows by default); also whether y was a single path."""
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    Y = y[:, None] if single else y
    if W.ndim != 2 or Y.ndim != 2 or W.shape[0] != Y.shape[0]:
        raise DimensionMismatch("W must be 2-D with rows matching y")
    n = W.shape[0]
    if rows is None:
        rows = [n] * Y.shape[1]
    rows = [int(r) for r in np.ravel(rows)]
    if len(rows) != Y.shape[1] or not all(1 <= r <= n for r in rows):
        raise DimensionMismatch(f"need one row count in 1..{n} per column of y")
    return W, Y, rows, single


def _unwrap(result):
    """A single path's result, raised when it is the path's error."""
    if isinstance(result, Exception):
        raise result
    return result


def oga_order(W, y, M, intercept: bool = False, rows=None):
    """Order up to M columns of W greedily by residual-variance reduction.

    Each step adds the admissible column whose inclusion drops the RSS the
    most. Gains within TIE_RTOL of the best count as a tie and ties go to
    the lowest index, so rounding never decides between exact duplicates.
    A column whose component orthogonal to the current fit is at most
    SPAN_RTOL of its norm (a zero column, say) is already spanned and never
    picked. Returns the ordering, the per-step residual variances
    ||r_m||^2 / T, and the orthonormal basis built along the way: the
    constant unit column when intercept is set, then one column per pick in
    pick order. The path is shorter than M when the admissible pool empties
    first; with no admissible column at the first step it raises
    AllColumnsDegenerate.

    A 2-D y (n x k) runs k paths in lockstep on one design: path i orders
    the first rows[i] rows of W (all of them by default) against column i
    of y, whose entries below those rows are ignored, for M[i] steps when M
    is a sequence. Residuals are kept zero below each path's rows, so the
    scores W'r_i of every path are one product, formed once and then
    downdated with the product W'q that each step forms anyway for the
    candidates' norms (r_i loses its component along the new basis column
    q, so W'r_i loses W'q times q'r_i); they equal W_i'r_i up to rounding.
    The bases share one preallocated array. A path
    whose pick turns out spanned retries without advancing. Returns one
    (order, sigma_sq, Q) per path, or, for a path with no admissible column
    at its first step, the AllColumnsDegenerate it would raise alone.
    """
    W, Y, rows, single = _as_paths(W, y, rows)
    n, p = W.shape
    k = Y.shape[1]
    steps = np.broadcast_to(np.asarray(M, dtype=np.intp), (k,))
    if k and steps.max() > p:
        raise ValueError(f"M={int(steps.max())} exceeds the number of candidates p={p}")
    T = np.asarray(rows, dtype=np.float64)
    inside = np.arange(n) < T[:, None]  # k x n: the rows each path uses

    floor, proj_sq = _candidate_norms(W, rows, intercept)
    # path i's basis is Q[i, :m[i]], zero below its rows like its residual
    Q = np.zeros((k, int(intercept) + int(steps.max(initial=0)), n))
    R = np.where(inside, Y.T, 0.0)
    if intercept:
        Q[:, 0] = inside / np.sqrt(T)[:, None]
        R -= inside * (R.sum(axis=1) / T)[:, None]
    m = np.full(k, int(intercept))

    S = R @ W  # W'r_i per path, downdated as the residuals move
    WT = np.ascontiguousarray(W.T)  # candidates as rows, for gathering picks
    orders: list[list[int]] = [[] for _ in range(k)]
    sigma_sq: list[list[float]] = [[] for _ in range(k)]
    alive = proj_sq > floor
    while True:
        going = (m - int(intercept) < steps) & alive.any(axis=1)
        if not going.any():
            break
        # RSS drop of candidate j on path i is (W'r_i)_j^2 / proj_sq_ij
        gain = S * S
        gain /= np.maximum(proj_sq, 1e-300)
        gain[~alive] = -np.inf
        best = gain.max(axis=1, keepdims=True)
        j = np.argmax(gain >= best * (1.0 - TIE_RTOL), axis=1)
        # each pick joins its path's basis unless that basis spans it
        v = WT[j]
        v *= inside
        alive[going, j[going]] = False  # picked, or spanned and never picked
        new = extend(Q, m, v, going)
        if not new.size:
            continue
        q = Q[new, m[new] - 1]
        r = R[new]
        qr = np.einsum("kn,kn->k", q, r)[:, None]
        r -= q * qr
        R[new] = r
        c = q @ W  # W'q: downdates both W'r and the candidates' norms
        S[new] -= c * qr
        c *= c
        proj = proj_sq[new]
        proj -= c
        proj_sq[new] = np.maximum(proj, 0.0, out=proj)
        alive[new] &= proj > floor[new]
        rss = np.einsum("kn,kn->k", r, r)
        for i, pick, s in zip(new, j[new], rss / T[new]):
            orders[i].append(int(pick))
            sigma_sq[i].append(float(s))

    paths = [
        AllColumnsDegenerate("no admissible column at the first step")
        if steps[i] and not orders[i]
        else (orders[i], sigma_sq[i], Q[i, : m[i], : rows[i]].T)
        for i in range(k)
    ]
    return _unwrap(paths[0]) if single else paths


def _candidate_norms(W, rows, intercept: bool):
    """Per path, the admission floor SPAN_RTOL^2 ||w_j||^2 and the squared
    norms of the candidates' components orthogonal to the intercept (the
    norms themselves without one), both over the path's rows. They are read
    off one running sum of squares and of values down the rows, which starts
    from the totals over the shortest path's rows."""
    rows = np.asarray(rows)
    lo = rows.min()
    totals = np.empty((rows.max() - lo + 1, 2, W.shape[1]))
    head, rest = W[:lo], W[lo : rows.max()]
    totals[0] = np.einsum("ij,ij->j", head, head), head.sum(axis=0)
    np.multiply(rest, rest, out=totals[1:, 0])
    totals[1:, 1] = rest
    norms_sq, sums = np.cumsum(totals, axis=0, out=totals)[rows - lo].transpose(1, 0, 2)
    proj_sq = norms_sq
    if intercept:
        proj_sq = norms_sq - sums * sums / rows[:, None]
    return SPAN_RTOL**2 * norms_sq, np.maximum(proj_sq, 0.0)


def _hdaic_curves(sigma_sq, p, T, c_star) -> np.ndarray:
    """The criterion at every step of k paths under each of their C penalty
    constants: sigma_sq is k x M (+inf past a path's end), T holds k row
    counts and c_star is k x C; returns k x C x M. Each value takes the
    operations of the scalar (1 + c_star * m * log(p) / T) * sigma_sq in
    that order, so it equals the scalar bit for bit."""
    m = np.arange(1, sigma_sq.shape[1] + 1)
    T = np.asarray(T, dtype=np.float64)[:, None, None]
    return (1.0 + c_star[:, :, None] * m * math.log(p) / T) * sigma_sq[:, None, :]


def _padded(paths) -> np.ndarray:
    """Criterion paths of different lengths as rows of one array, +inf past
    each path's end, where no minimum can land; at least one column, so a
    minimum over the steps of no paths is empty rather than undefined."""
    out = np.full((len(paths), max(map(len, paths), default=1)), np.inf)
    for i, path in enumerate(paths):
        out[i, : len(path)] = path
    return out


def _budgets(counts, p: int, config: OgaConfig) -> list[int]:
    """max_steps per row count; 0 for a single row, which cannot be selected
    on (its path then reports InsufficientSample)."""
    return [max_steps(n, p, config) if n >= 2 else 0 for n in counts]


def oga_hdaic_select(
    W, y, config: OgaConfig, intercept: bool = False, rows=None
):
    """Full selection: order greedily, then cut the path at the criterion minimum.

    A 2-D y selects against each of its columns on that column's rows, as
    oga_order runs them, and returns one SelectionPath per column, or the
    error that column's selection alone would raise (AllColumnsDegenerate,
    or from tuning InsufficientSample or a LinAlgError). With a tuned
    c_star the training-row paths of every column join the same lockstep
    run, and every column is tuned and cut in one pass over arrays.
    """
    W, Y, rows, single = _as_paths(W, y, rows)
    if min(rows, default=2) < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    p, k = W.shape[1], Y.shape[1]
    candidates = config.tuning_candidates
    if candidates:
        train = [_train_rows(T, config) for T in rows]
        paths = oga_order(W, np.hstack([Y, Y]), _budgets(rows + train, p, config),
                          intercept, rows + train)
        c_star = _holdout_c_stars(W, Y, rows, train, paths[k:], candidates,
                                  intercept)
    else:
        paths = oga_order(W, Y, _budgets(rows, p, config), intercept, rows)
        c_star = [float(config.c_star)] * k
    # a tuning error comes first, as tuning runs first on one column alone
    out = [c if isinstance(c, Exception) else path for c, path in zip(c_star, paths)]
    ok = [i for i, path in enumerate(out) if not isinstance(path, Exception)]
    sigma_sq = [paths[i][1] for i in ok]
    c_ok = np.array([c_star[i] for i in ok], dtype=np.float64)[:, None]
    curves = _hdaic_curves(_padded(sigma_sq), p, [rows[i] for i in ok], c_ok)[:, 0]
    m_hat = np.argmin(curves, axis=1) + 1
    for i, s, curve, m in zip(ok, sigma_sq, curves, m_hat.tolist()):
        order, _, Q = paths[i]
        out[i] = SelectionPath(
            ordered_indices=tuple(order),
            sigma_sq_path=tuple(s),
            hdaic_path=tuple(curve[: len(s)].tolist()),
            chosen_m=m,
            chosen_set=tuple(order[:m]),
            c_star_used=c_star[i],
            basis=Q[:, : int(intercept) + m],
        )
    return _unwrap(out[0]) if single else out


def _train_rows(T: int, config: OgaConfig) -> int:
    """Leading rows that tuning selects on; the rest, at least one, are held out."""
    return min(max(int((1.0 - config.eval_fraction) * T), 2), T - 1)


def _holdout_c_stars(W, Y, rows, train, paths, candidates, intercept: bool) -> list:
    """Per column i of Y, the candidate whose cut of paths[i], a greedy path
    on the first train[i] rows, predicts rows train[i]..rows[i] - 1 best;
    ties go to the smaller candidate. A path's error (or InsufficientSample
    for a single training row) stays in its slot.

    On the n training rows X = [1, W[:, order]] (the 1 only with an
    intercept) is Q R, R square. The holdout rows of that basis solve
    X_te = Q_te R, and the fit at cut m projects on the intercept column of
    Q plus its first m picks, so its holdout prediction is a running sum
    over the columns of Q_te weighted by Q'y. Every path is stacked into
    arrays padded to the longest path and the longest holdout: the systems
    R'Z = X_te' are solved in one call per path length, and every holdout
    error curve comes from one sum of squares with the padded rows masked.
    """
    out = [
        InsufficientSample(f"tuning c_star needs at least 3 rows, got {T}")
        if n < 2 and not isinstance(path, Exception) else path
        for T, n, path in zip(rows, train, paths)
    ]
    live = [i for i, path in enumerate(out) if not isinstance(path, Exception)]
    if not live:
        return out
    ic = int(intercept)
    live.sort(key=lambda i: len(out[i][0]))  # equal lengths side by side
    orders, sigma_sq, bases = zip(*(out[i] for i in live))
    size = ic + np.array([len(order) for order in orders])
    n = np.array([train[i] for i in live])
    held = np.array([rows[i] for i in live]) - n
    L, D, H = len(live), int(size[-1]), int(held.max())

    picks = np.zeros((L, D), dtype=np.intp)
    Q = np.zeros((L, W.shape[0], D))  # each basis zero below its training rows
    for a, (order, basis) in enumerate(zip(orders, bases)):
        picks[a, ic : size[a]] = order
        Q[a, : n[a], : size[a]] = basis
    X = W.T[picks].transpose(0, 2, 1)
    te = np.minimum(n[:, None] + np.arange(H), W.shape[0] - 1)
    kept = np.arange(H) < held[:, None]  # L x H: real holdout rows
    X_te = W[te[:, :, None], picks[:, None, :]]
    if intercept:
        X[:, :, 0] = X_te[:, :, 0] = 1.0
    y = Y[:, live].T
    y_te = np.take_along_axis(y, te, axis=1)

    Q_te = np.zeros((L, H, D))
    sizes, starts = np.unique(size, return_index=True)
    for d, a, b in zip(sizes, starts, np.r_[starts[1:], L]):
        R = Q[a:b, :, :d].transpose(0, 2, 1) @ X[a:b, :, :d]
        B = X_te[a:b, :, :d].transpose(0, 2, 1)
        try:
            Z = np.linalg.solve(R.transpose(0, 2, 1), B)
        except np.linalg.LinAlgError:
            Z = np.zeros_like(B)
            for g in range(b - a):
                try:
                    Z[g] = np.linalg.solve(R[g].T, B[g])
                except np.linalg.LinAlgError as exc:
                    out[live[a + g]] = exc
        Q_te[a:b, :, :d] = Z.transpose(0, 2, 1)
    coef = (y[:, None, :] @ Q)[:, 0]  # Q'y over the training rows
    err = y_te[:, :, None] - np.cumsum(Q_te * coef[:, None, :], axis=2)[:, :, ic:]
    err *= kept[:, :, None]
    mspe = np.einsum("lhm,lhm->lm", err, err) / held[:, None]

    by_size = np.sort(np.asarray(candidates, dtype=np.float64))
    curves = _hdaic_curves(_padded(sigma_sq), W.shape[1], n,
                           np.broadcast_to(by_size, (L, by_size.size)))
    cuts = np.argmin(curves, axis=2)
    best = np.argmin(np.take_along_axis(mspe, cuts, axis=1), axis=1)
    for a, i in enumerate(live):
        if not isinstance(out[i], Exception):
            out[i] = float(by_size[best[a]])
    return out

