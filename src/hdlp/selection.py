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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllColumnsDegenerate, DimensionMismatch
from .linalg import SPAN_RTOL, gram_schmidt_extend

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


def oga_order(
    W, y, M: int, intercept: bool = False
) -> tuple[list[int], list[float], np.ndarray]:
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
    first.
    """
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if W.ndim != 2 or W.shape[0] != y.shape[0]:
        raise DimensionMismatch("W must be 2-D with rows matching y")
    T, p = W.shape
    if M > p:
        raise ValueError(f"M={M} exceeds the number of candidates p={p}")
    norms_sq = np.einsum("ij,ij->j", W, W)
    floor = SPAN_RTOL**2 * norms_sq

    Q = np.full((T, int(intercept)), 1.0 / math.sqrt(T))
    r = y - Q @ (Q.T @ y)
    # squared norms of each candidate orthogonal to the current projection
    proj_sq = np.maximum(norms_sq - np.sum((W.T @ Q) ** 2, axis=1), 0.0)

    order: list[int] = []
    sigma_sq: list[float] = []
    alive = proj_sq > floor
    while len(order) < M:
        if not np.any(alive):
            if not order:
                raise AllColumnsDegenerate("no admissible column at the first step")
            break
        num = W.T @ r
        # RSS drop of candidate i is num_i^2 / proj_sq_i
        gain = np.where(alive, num * num / np.maximum(proj_sq, 1e-300), -np.inf)
        j = int(np.argmax(gain >= gain.max() * (1.0 - TIE_RTOL)))
        q = gram_schmidt_extend(Q, W[:, j])
        if q is None:
            alive[j] = False
            continue
        order.append(j)
        alive[j] = False
        Q = np.column_stack([Q, q])
        r = r - q * (q @ r)
        c = W.T @ q
        proj_sq = np.maximum(proj_sq - c * c, 0.0)
        alive &= proj_sq > floor
        sigma_sq.append(float(r @ r) / T)
    return order, sigma_sq, Q


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


def oga_hdaic_select(W, y, config: OgaConfig, intercept: bool = False) -> SelectionPath:
    """Full selection: order greedily, then cut the path at the criterion minimum."""
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if W.shape[0] != y.shape[0] or W.shape[0] < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    T, p = W.shape

    candidates = config.tuning_candidates
    if candidates is not None:
        c_star = select_c_star(W, y, candidates, config, intercept)
    else:
        c_star = float(config.c_star)

    M = max_steps(T, p, config)
    order, sigma_sq, Q = oga_order(W, y, M, intercept)
    m_hat = select_hdaic(sigma_sq, p, T, c_star)
    hdaic_path = tuple(
        hdaic(s, m, p, T, c_star) for m, s in enumerate(sigma_sq, start=1)
    )
    return SelectionPath(
        ordered_indices=tuple(order),
        sigma_sq_path=tuple(sigma_sq),
        hdaic_path=hdaic_path,
        chosen_m=m_hat,
        chosen_set=tuple(order[:m_hat]),
        c_star_used=c_star,
        basis=Q[:, : int(intercept) + m_hat],
    )


def select_c_star(
    W, y, candidates, config: OgaConfig | None = None, intercept: bool = False
) -> float:
    """Pick the penalty constant with the smallest holdout prediction error.

    The sample is split by time order: selection and fitting on the leading
    (1 - config.eval_fraction) share, squared prediction error on the tail.
    Ties go to the smaller candidate. c_star only decides where the greedy
    path is cut, so one path on the training rows serves every candidate,
    and the holdout error of every cut is read off that path's basis.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    if config is None:
        config = OgaConfig()
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    T, p = W.shape
    n = min(max(int((1.0 - config.eval_fraction) * T), 2), T - 1)
    order, sigma_sq, Q = oga_order(W[:n], y[:n], max_steps(n, p, config), intercept)

    # On the training rows X = [1, W[:, order]] (the 1 only with an
    # intercept) is Q R, R square. The holdout rows of that basis solve
    # X_te = Q_te R, and the fit at cut m projects on the intercept column of
    # Q plus its first m picks, so its holdout prediction is a running sum
    # over the columns of Q_te weighted by Q'y.
    X = W[:, order]
    if intercept:
        X = np.column_stack([np.ones(T), X])
    Q_te = np.linalg.solve((Q.T @ X[:n]).T, X[n:].T).T
    pred = np.cumsum(Q_te * (Q.T @ y[:n]), axis=1)[:, int(intercept):]
    err = y[n:, None] - pred
    mspe = np.einsum("ij,ij->j", err, err) / err.shape[0]
    cuts = {c: select_hdaic(sigma_sq, p, n, float(c)) for c in candidates}
    return float(min(sorted(candidates), key=lambda c: mspe[cuts[c] - 1]))
