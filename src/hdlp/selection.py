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

Every selection runs on a batch: y holds one column per path, each path on
its own leading rows of one shared design (rows), and the result is one
entry per column, the path's result or the error that path alone would
raise; one series is the batch y[:, None]. The paths advance in lockstep
with one matrix product per step, so many short paths cost little more than
one, and stay in the arrays that run fills, padded past each path's end,
through tuning and cutting to the caller's union basis. Tuning and cutting
run in the same style: the holdout bases of all training paths are filled
in one forward sweep, every holdout error curve comes from one sum of
squares, and the criterion curves of every path and candidate are one
array expression that repeats the scalar criterion's arithmetic exactly. A
path that fails gets its error in its slot and leaves the others alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsDegenerate, DimensionMismatch, InsufficientSample
from .linalg import SPAN_RTOL, extend

DEFAULT_C_STAR_CANDIDATES = (1.6, 1.8, 2.0, 2.2, 2.4)
TIE_RTOL = 1e-12  # greedy gains this close to the best one, relative to the starting RSS, tie


@dataclass(frozen=True)
class OgaConfig:
    """Tuning knobs for the greedy selection.

    c_star: fixed penalty constant; a tuple means data-driven choice over
        those candidates, and None means data-driven over
        DEFAULT_C_STAR_CANDIDATES.
    max_steps_override: hard cap on the number of greedy steps, at least 1.
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
        if self.max_steps_override is not None and self.max_steps_override < 1:
            raise ValueError("max_steps_override must be at least 1")
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
    """Result of one greedy run: ordering, residual variances, criterion
    curve, chosen model and penalty constant. Its orthonormal basis is a
    row block of the array oga_hdaic_select returns with it."""

    ordered_indices: tuple[int, ...]
    sigma_sq_path: tuple[float, ...]
    hdaic_path: tuple[float, ...]
    chosen_m: int
    c_star_used: float

    @property
    def chosen_set(self) -> tuple[int, ...]:
        """The first chosen_m picks, in pick order."""
        return self.ordered_indices[: self.chosen_m]


def max_steps(T: int, p: int, config: OgaConfig) -> int:
    """Greedy step budget: min(p, T-1, override, budget formula), at least 1."""
    if T < 2 or p < 1:
        raise ValueError("need T >= 2 and p >= 1")
    logp = max(math.log(p), 1.0)
    budget = math.ceil(
        config.mbar_scale * (T / logp**3) ** (1.0 / (2.0 * config.delta_assumed))
    )
    return max(min(p, T - 1, budget, config.max_steps_override or p), 1)


def _as_paths(W, y, rows):
    """W and y (one column per path) as float64 matrices, and each path's
    row count (all of W's rows by default)."""
    W = np.asarray(W, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if W.ndim != 2 or Y.ndim != 2 or W.shape[0] != Y.shape[0]:
        raise DimensionMismatch("W and y must be 2-D with matching rows")
    n = W.shape[0]
    rows = [int(r) for r in np.ravel([n] * Y.shape[1] if rows is None else rows)]
    if len(rows) != Y.shape[1] or not all(1 <= r <= n for r in rows):
        raise DimensionMismatch(f"need one row count in 1..{n} per column of y")
    return W, Y, rows


def oga_order(W, y, M, intercept: bool = False, rows=None):
    """Order up to M columns of W greedily by residual-variance reduction,
    once against each column of y.

    y (n x k) holds k paths: path i orders the first rows[i] rows of W (all
    of them by default) against column i of y, whose entries below those
    rows are ignored, for M[i] steps when M is a sequence. Each step adds
    the admissible column whose inclusion drops the RSS the most. Gains
    within TIE_RTOL times the starting RSS (after the intercept, when set)
    of the best count as a tie and ties go to the lowest index, so rounding
    never decides between exact duplicates: the gains are differences of
    RSS, whose rounding is on the scale of the starting RSS however small
    the gains have become. A column whose component orthogonal to the
    current fit is at most SPAN_RTOL of its norm (a zero column, say) is
    already spanned and never picked. Returns the arrays the paths ran in,
    (picks, sigma_sq, Q, length): path i's length[i] picks and per-step
    residual variances ||r_m||^2 / T lead picks[i] and sigma_sq[i] (0 and
    +inf after them), and Q[i] holds the orthonormal basis it built as rows
    (the constant unit row when intercept is set, then one row per pick),
    zero after them and below rows[i]. A path is shorter than M when its
    admissible pool empties first, and of length 0 with a positive M when it
    has no admissible column at its first step.

    The paths advance in lockstep on one design. Residuals are kept zero
    below each path's rows, so the scores W'r_i of every path are one
    product, formed once and then downdated with the product W'q that each
    step forms anyway for the candidates' norms (r_i loses its component
    along the new basis column q, so W'r_i loses W'q times q'r_i); they
    equal W_i'r_i up to rounding. The bases share one preallocated array.
    A path whose pick turns out spanned retries without advancing. Every
    step updates all k paths in place with whole-array operations: a path
    that did not grow (a spanned pick, or a stopped path) contributes the
    update q = 0, which leaves its state unchanged bit for bit.
    """
    W, Y, rows = _as_paths(W, y, rows)
    n, p = W.shape
    k = Y.shape[1]
    steps = np.broadcast_to(np.asarray(M, dtype=np.intp), (k,))
    if k and steps.max() > p:
        raise ValueError(f"M={int(steps.max())} exceeds the number of candidates p={p}")
    T = np.asarray(rows, dtype=np.float64)
    inside = np.arange(n) < T[:, None]  # k x n: the rows each path uses

    floor, proj_sq = _candidate_norms(W, rows, intercept)
    # path i's basis is Q[i, :m[i]], zero below its rows like its residual,
    # and its picks and residual variances fill its first m[i] - ic slots;
    # a spare row and slot take what a step writes on a path that did not grow
    ic, size = int(intercept), int(steps.max(initial=0)) + 1
    Q = np.zeros((k, ic + size, n))
    picks, sigma_sq = np.zeros((k, size), dtype=np.intp), np.zeros((k, size))
    R = np.where(inside, Y.T, 0.0)
    if intercept:
        Q[:, 0] = inside / np.sqrt(T)[:, None]
        R -= inside * (R.sum(axis=1) / T)[:, None]
    m = np.full(k, ic)
    tie = TIE_RTOL * np.einsum("kn,kn->k", R, R)[:, None]

    S = R @ W  # W'r_i per path, downdated as the residuals move
    dead = ~(proj_sq > floor)  # picked, or spanned and never picked
    gain, den = np.empty((2, k, p))
    every = np.arange(k)
    while True:
        going = (m - ic < steps) & ~dead.all(axis=1)
        if not going.any():
            break
        # RSS drop of candidate j on path i is (W'r_i)_j^2 / proj_sq_ij
        np.multiply(S, S, out=gain)
        gain /= np.maximum(proj_sq, 1e-300, out=den)
        gain[dead] = -np.inf
        best = gain.max(axis=1, keepdims=True)
        best -= tie
        j = np.argmax(gain >= best, axis=1)
        # each pick joins its path's basis unless that basis spans it; a
        # stopped path's pick is zero, and it never goes again
        q = W.T[j]
        q *= inside & going[:, None]
        dead[every, j] = True
        slot = m - ic
        picks[every, slot] = j
        extend(Q, m, q)  # q: each path's new basis row, zero where none grew
        qr = np.einsum("kn,kn->k", q, R)[:, None]
        R -= q * qr
        c = q @ W  # W'q: downdates both W'r and the candidates' norms
        S -= c * qr
        c *= c
        proj_sq -= c
        np.maximum(proj_sq, 0.0, out=proj_sq)
        dead |= ~(proj_sq > floor)
        sigma_sq[every, slot] = np.einsum("kn,kn->k", R, R) / T

    length = m - ic
    past = np.arange(size) >= length[:, None]
    picks[past], sigma_sq[past] = 0, np.inf
    return picks, sigma_sq, Q, length


def _candidate_norms(W, rows, intercept: bool):
    """Per path, the admission floor SPAN_RTOL^2 ||w_j||^2 and the squared
    norms of the candidates' components orthogonal to the intercept (the
    norms themselves without one), both over the path's rows. They are read
    off one running sum of squares and of values down the rows, which starts
    from the totals over the shortest path's rows."""
    rows = np.asarray(rows, dtype=np.intp)
    lo = rows.min(initial=W.shape[0])
    totals = np.empty((W.shape[0] - lo + 1, 2, W.shape[1]))
    head, rest = W[:lo], W[lo:]
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


def _budgets(counts, p: int, config: OgaConfig) -> list[int]:
    """max_steps per row count; 0 for one row, which cannot be selected
    on (its path then reports InsufficientSample)."""
    return [max_steps(n, p, config) if n >= 2 else 0 for n in counts]


def oga_hdaic_select(
    W, y, config: OgaConfig, intercept: bool = False, rows=None
):
    """Full selection: order greedily, then cut the path at the criterion minimum.

    Selects against each column of y on that column's rows, as oga_order
    runs them. Returns one SelectionPath per column, or the error that
    column's selection alone would raise (InsufficientSample for one row,
    AllColumnsDegenerate, or from tuning InsufficientSample), and oga_order's
    basis array Q, whose rows past each SelectionPath's chosen set are
    zeroed. With a tuned c_star the training-row paths of every column join
    the same lockstep run, and every column is tuned and cut in one pass
    over arrays.
    """
    W, Y, rows = _as_paths(W, y, rows)
    p, k = W.shape[1], Y.shape[1]
    candidates = config.tuning_candidates
    if candidates:
        train = [_train_rows(T, config) for T in rows]
        paths = oga_order(W, np.hstack([Y, Y]), _budgets(rows + train, p, config),
                          intercept, rows + train)
        c_star = _holdout_c_stars(W, Y, rows, train, [a[k:] for a in paths],
                                  candidates, intercept)
    else:
        paths = oga_order(W, Y, _budgets(rows, p, config), intercept, rows)
        c_star = [float(config.c_star)] * k
    picks, sigma_sq, Q, length = (a[:k] for a in paths)
    # a tuning error comes first, as tuning runs first on one column alone
    out = [c if isinstance(c, Exception)
           else InsufficientSample(f"selection needs at least 2 rows, got {T}")
           if T < 2 else AllColumnsDegenerate("no admissible column at the first step")
           if not n else None for T, c, n in zip(rows, c_star, length)]
    ok = [i for i, path in enumerate(out) if path is None]
    c_ok = np.array([c_star[i] for i in ok], dtype=np.float64)[:, None]
    curves = _hdaic_curves(sigma_sq[ok], p, [rows[i] for i in ok], c_ok)[:, 0]
    m_hat = np.argmin(curves, axis=1) + 1
    for i, curve, m in zip(ok, curves, m_hat.tolist()):
        n = length[i]
        out[i] = SelectionPath(
            ordered_indices=tuple(picks[i, :n].tolist()),
            sigma_sq_path=tuple(sigma_sq[i, :n].tolist()),
            hdaic_path=tuple(curve[:n].tolist()),
            chosen_m=m,
            c_star_used=c_star[i],
        )
        Q[i, int(intercept) + m :] = 0.0
    return out, Q


def _train_rows(T: int, config: OgaConfig) -> int:
    """Leading rows that tuning selects on; the rest, at least one, are held
    out. One row is its own training row, too few to tune on."""
    return min(max(int((1.0 - config.eval_fraction) * T), 2), max(T - 1, 1))


def _holdout_c_stars(W, Y, rows, train, paths, candidates, intercept: bool) -> list:
    """Per column i of Y, the candidate whose cut of path i of paths,
    oga_order's arrays for greedy paths on the first train[i] rows, predicts
    rows train[i]..rows[i] - 1 best; ties go to the smaller candidate.
    InsufficientSample for one training row, or AllColumnsDegenerate for a
    path with no admissible column, stays in its slot.

    On the n training rows X = [1, W[:, order]] (the 1 only with an
    intercept) is Q R, Q its Gram-Schmidt basis, so R = Q'X is upper
    triangular. The holdout rows of that basis solve X_te = Q_te R, and the
    fit at cut m projects on the intercept column of Q plus its first m
    picks, so its holdout prediction is a running sum over the columns of
    Q_te weighted by Q'y. The paths' arrays are cut to the longest path and
    the holdout rows padded to the longest holdout; one forward sweep fills
    Q_te a column at a time. Pivot R[j, j] is pick j's residual norm, which
    oga_order admits only above SPAN_RTOL of its norm (the intercept's is
    sqrt(n)); a padded column divides by 1 and adds zeros, as its Q'y is 0.
    One sum of squares, padded rows masked, gives every holdout error curve.
    """
    picks, sigma_sq, Q, length = paths
    out = [InsufficientSample(f"tuning c_star needs at least 3 rows, got {T}")
           if n < 2 else AllColumnsDegenerate("no admissible column at the first step")
           if not size else None for T, n, size in zip(rows, train, length)]
    live = [i for i, c in enumerate(out) if c is None]
    if not live:
        return out
    ic = int(intercept)
    size = ic + length[live]
    n = np.array([train[i] for i in live])
    held = np.array([rows[i] for i in live]) - n
    L, D, H = len(live), int(size.max()), int(held.max())

    picks = np.pad(picks[live, : D - ic], ((0, 0), (ic, 0)))  # 0 for the intercept
    # each basis as columns, zero below its training rows; a C-ordered copy,
    # as the products below round by their operands' layout
    Q = np.ascontiguousarray(Q[live, :D].transpose(0, 2, 1))
    X = W.T[picks].transpose(0, 2, 1)
    te = np.minimum(n[:, None] + np.arange(H), W.shape[0] - 1)
    kept = np.arange(H) < held[:, None]  # L x H: real holdout rows
    X_te = W[te[:, :, None], picks[:, None, :]]
    if intercept:
        X[:, :, 0] = X_te[:, :, 0] = 1.0
    y = Y[:, live].T
    y_te = np.take_along_axis(y, te, axis=1)

    R = Q.transpose(0, 2, 1) @ X
    pivot = np.where(np.arange(D) < size[:, None], np.diagonal(R, 0, 1, 2), 1.0)
    Q_te = np.zeros((L, H, D))
    for j in range(D):
        fit = Q_te[:, :, :j] @ R[:, :j, j, None]
        Q_te[:, :, j] = (X_te[:, :, j] - fit[:, :, 0]) / pivot[:, j, None]
    coef = (y[:, None, :] @ Q)[:, 0]  # Q'y over the training rows
    err = y_te[:, :, None] - np.cumsum(Q_te * coef[:, None, :], axis=2)[:, :, ic:]
    err *= kept[:, :, None]
    mspe = np.einsum("lhm,lhm->lm", err, err) / held[:, None]

    by_size = np.sort(np.asarray(candidates, dtype=np.float64))
    curves = _hdaic_curves(sigma_sq[live], W.shape[1], n,
                           np.broadcast_to(by_size, (L, by_size.size)))
    cuts = np.argmin(curves, axis=2)
    best = np.argmin(np.take_along_axis(mspe, cuts, axis=1), axis=1)
    for a, i in enumerate(live):
        out[i] = float(by_size[best[a]])
    return out

