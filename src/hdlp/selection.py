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

Many short paths cost little more than one: oga_order, oga_hdaic_select
and select_c_star take a 2-D y, one path per column, each on its own
leading rows of one shared design, and advance every path in lockstep with
one matrix product per step. A path that fails gets its error in its slot
and leaves the others alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllColumnsDegenerate, DimensionMismatch
from .linalg import SPAN_RTOL

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
    is a sequence. Residuals are kept zero below each path's rows, so one
    product of W' with all residuals scores every path at once, as W_i'r_i
    would up to rounding, and the bases share one preallocated array. A path
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

    orders: list[list[int]] = [[] for _ in range(k)]
    sigma_sq: list[list[float]] = [[] for _ in range(k)]
    alive = proj_sq > floor
    while True:
        going = (m - int(intercept) < steps) & alive.any(axis=1)
        if not going.any():
            break
        # RSS drop of candidate j on path i is (W'r_i)_j^2 / proj_sq_ij
        gain = R @ W
        gain *= gain
        gain /= np.maximum(proj_sq, 1e-300)
        gain[~alive] = -np.inf
        best = gain.max(axis=1, keepdims=True)
        j = np.argmax(gain >= best * (1.0 - TIE_RTOL), axis=1)
        # each pick, two Gram-Schmidt passes against its path's basis
        v = W.T[j]
        v *= inside
        v_norm = np.linalg.norm(v, axis=1)
        B = Q[:, : m.max()]
        for _ in range(2):
            coef = B @ v[:, :, None]
            v -= (coef.transpose(0, 2, 1) @ B)[:, 0]
        v_resid = np.linalg.norm(v, axis=1)
        alive[going, j[going]] = False  # picked, or spanned and never picked
        new = np.flatnonzero(going & (v_resid > SPAN_RTOL * v_norm))
        if not new.size:
            continue
        q = v[new] / v_resid[new, None]
        Q[new, m[new]] = q
        m[new] += 1
        r = R[new]
        r -= q * np.einsum("kn,kn->k", q, r)[:, None]
        R[new] = r
        c = q @ W
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
    norms themselves without one), both over the path's rows. The sums run
    one segment of rows at a time between the distinct row counts."""
    ends, which = np.unique(rows, return_inverse=True)
    prefix = np.zeros((ends.size + 1, 2, W.shape[1]))
    for i, (start, end) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
        seg = W[start:end]
        prefix[i + 1] = prefix[i] + (np.einsum("ij,ij->j", seg, seg), seg.sum(axis=0))
    norms_sq, sums = prefix[1:][which].transpose(1, 0, 2)
    proj_sq = norms_sq
    if intercept:
        proj_sq = norms_sq - sums * sums / np.asarray(rows, dtype=np.float64)[:, None]
    return SPAN_RTOL**2 * norms_sq, np.maximum(proj_sq, 0.0)


def hdaic(sigma_sq: float, m: int, p, T: int, c_star: float) -> float:
    """Penalized residual variance (1 + c_star * m * log(p) / T) * sigma_sq."""
    return (1.0 + c_star * m * math.log(p) / T) * sigma_sq


def select_hdaic(sigma_sq_path, p: int, T: int, c_star: float) -> int:
    """Smallest m (1-based) minimizing the criterion along the path."""
    path = list(sigma_sq_path)
    if not path:
        raise ValueError("sigma_sq_path must be nonempty")
    values = [hdaic(s, m, p, T, c_star) for m, s in enumerate(path, start=1)]
    return int(np.argmin(values)) + 1


def oga_hdaic_select(
    W, y, config: OgaConfig, intercept: bool = False, rows=None
):
    """Full selection: order greedily, then cut the path at the criterion minimum.

    A 2-D y selects against each of its columns on that column's rows, as
    oga_order runs them, and returns one SelectionPath per column, or the
    error that column's selection alone would raise (AllColumnsDegenerate,
    or a LinAlgError from tuning). With a tuned c_star the training-row
    paths of every column join the same lockstep run.
    """
    W, Y, rows, single = _as_paths(W, y, rows)
    if min(rows, default=2) < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    p, k = W.shape[1], Y.shape[1]
    candidates = config.tuning_candidates
    train = [_train_rows(T, config) for T in rows] if candidates else []
    counts = rows + train
    paths = oga_order(
        W, np.hstack([Y, Y]) if candidates else Y,
        [max_steps(T, p, config) for T in counts], intercept, counts,
    )
    out = []
    for i, T in enumerate(rows):
        try:
            if candidates:
                c_star = _holdout_c_star(W[:T], Y[:T, i], train[i],
                                         _unwrap(paths[k + i]), candidates, intercept)
            else:
                c_star = float(config.c_star)
            order, sigma_sq, Q = _unwrap(paths[i])
        except (AllColumnsDegenerate, np.linalg.LinAlgError) as exc:
            out.append(exc)
            continue
        m_hat = select_hdaic(sigma_sq, p, T, c_star)
        out.append(SelectionPath(
            ordered_indices=tuple(order),
            sigma_sq_path=tuple(sigma_sq),
            hdaic_path=tuple(
                hdaic(s, m, p, T, c_star) for m, s in enumerate(sigma_sq, start=1)
            ),
            chosen_m=m_hat,
            chosen_set=tuple(order[:m_hat]),
            c_star_used=c_star,
            basis=Q[:, : int(intercept) + m_hat],
        ))
    return _unwrap(out[0]) if single else out


def _train_rows(T: int, config: OgaConfig) -> int:
    """Leading rows that tuning selects on; the rest, at least one, are held out."""
    return min(max(int((1.0 - config.eval_fraction) * T), 2), T - 1)


def _holdout_c_star(W, y, n, path, candidates, intercept: bool):
    """The candidate whose cut of path, a greedy path on the first n rows of
    W and y, predicts the other rows best; ties go to the smaller candidate.

    On the training rows X = [1, W[:, order]] (the 1 only with an
    intercept) is Q R, R square. The holdout rows of that basis solve
    X_te = Q_te R, and the fit at cut m projects on the intercept column of
    Q plus its first m picks, so its holdout prediction is a running sum
    over the columns of Q_te weighted by Q'y.
    """
    order, sigma_sq, Q = path
    T, p = W.shape
    X = W[:, order]
    if intercept:
        X = np.column_stack([np.ones(T), X])
    Q_te = np.linalg.solve((Q.T @ X[:n]).T, X[n:].T).T
    pred = np.cumsum(Q_te * (Q.T @ y[:n]), axis=1)[:, int(intercept):]
    err = y[n:, None] - pred
    mspe = np.einsum("ij,ij->j", err, err) / err.shape[0]
    cuts = {c: select_hdaic(sigma_sq, p, n, float(c)) for c in candidates}
    return float(min(sorted(candidates), key=lambda c: mspe[cuts[c] - 1]))


def select_c_star(
    W, y, candidates, config: OgaConfig | None = None, intercept: bool = False,
    rows=None,
):
    """Pick the penalty constant with the smallest holdout prediction error.

    The sample is split by time order: selection and fitting on the leading
    (1 - config.eval_fraction) share, squared prediction error on the tail.
    Ties go to the smaller candidate. c_star only decides where the greedy
    path is cut, so one path on the training rows serves every candidate,
    and the holdout error of every cut is read off that path's basis. A 2-D
    y tunes each column on its rows, as oga_order runs them, with all
    training paths in one lockstep run, and returns one c_star, or that
    column's error, per column.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    config = config or OgaConfig()
    W, Y, rows, single = _as_paths(W, y, rows)
    p = W.shape[1]
    train = [_train_rows(T, config) for T in rows]
    paths = oga_order(W, Y, [max_steps(n, p, config) for n in train], intercept, train)
    out = []
    for i, (T, n, path) in enumerate(zip(rows, train, paths)):
        try:
            out.append(_holdout_c_star(
                W[:T], Y[:T, i], n, _unwrap(path), candidates, intercept
            ))
        except (AllColumnsDegenerate, np.linalg.LinAlgError) as exc:
            out.append(exc)
    return _unwrap(out[0]) if single else out
