"""Greedy covariate ordering with an information-criterion stopping rule.

The ordering step repeatedly picks the candidate whose addition yields the
largest drop in residual sum of squares, which is the scaled-correlation
score evaluated on the candidate's component orthogonal to everything
already selected. The stopping step minimizes

    (1 + c_star * m * log(p) / T) * sigma_sq(m)

over the path, where sigma_sq(m) is the residual variance after m picks.
The penalty constant can be fixed or tuned on a time-ordered holdout.

Optional ``base`` columns (an intercept, say) are always part of the
projection, are never selection candidates, and do not count toward the
penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllColumnsDegenerate, DimensionMismatch, ZeroNormColumn
from .linalg import SPAN_RTOL, gram_schmidt_extend, ols_fit, orthonormal_columns

DEFAULT_C_STAR_CANDIDATES = (1.6, 1.8, 2.0, 2.2, 2.4)


@dataclass(frozen=True)
class OgaConfig:
    """Tuning knobs for the greedy selection.

    c_star: fixed penalty constant; a tuple means data-driven choice over
        those candidates, and None means data-driven over c_star_candidates.
    max_steps_override: hard cap on the number of greedy steps.
    mbar_scale / delta_assumed: constants of the step-budget formula
        ceil(mbar_scale * (T / max(log p, 1)^3) ** (1 / (2 * delta_assumed))),
        which is defined only up to unknown constants, hence configurable.
    eval_fraction: tail share held out when tuning c_star.
    """

    c_star: float | tuple[float, ...] | None = 2.0
    c_star_candidates: tuple[float, ...] = DEFAULT_C_STAR_CANDIDATES
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
        if not self.c_star_candidates or any(c <= 0 for c in self.c_star_candidates):
            raise ValueError("c_star_candidates must be positive and nonempty")
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
            return self.c_star_candidates
        if isinstance(self.c_star, tuple):
            return self.c_star
        return None


@dataclass(frozen=True)
class SelectionPath:
    """Result of one greedy run: ordering, criterion curve, chosen model, and
    an orthonormal basis of the base columns and the chosen set (pick order)."""

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


def oga_order(W, y, M: int, base=None) -> tuple[list[int], list[float], np.ndarray]:
    """Order up to M columns of W greedily by residual-variance reduction.

    Each step adds the admissible column whose inclusion drops the RSS the
    most (ties go to the lowest index). Columns whose component orthogonal
    to the current fit falls below 1e-10 of their norm are treated as
    already spanned and skipped. Returns the ordering, the per-step
    residual variances ||r_m||^2 / T, and the orthonormal basis built along
    the way: the orthonormalized base columns, then one column per pick in
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
    if np.any(norms_sq <= 0.0):
        raise ZeroNormColumn("candidate columns must have positive norm")

    if base is not None and np.asarray(base).size:
        Q = orthonormal_columns(base)
    else:
        Q = np.zeros((T, 0))
    r = y - Q @ (Q.T @ y)
    # squared norms of each candidate orthogonal to the current projection
    proj_sq = norms_sq.copy()
    for k in range(Q.shape[1]):
        c = W.T @ Q[:, k]
        proj_sq = np.maximum(proj_sq - c * c, 0.0)

    order: list[int] = []
    sigma_sq: list[float] = []
    alive = proj_sq >= (SPAN_RTOL**2) * norms_sq
    while len(order) < M:
        if not np.any(alive):
            if not order:
                raise AllColumnsDegenerate("no admissible column at the first step")
            break
        num = W.T @ r
        # RSS drop of candidate i is num_i^2 / proj_sq_i
        gain = np.where(alive, num * num / np.maximum(proj_sq, 1e-300), -np.inf)
        j = int(np.argmax(gain))
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
        alive &= proj_sq >= (SPAN_RTOL**2) * norms_sq
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


def oga_hdaic_select(W, y, config: OgaConfig, base=None) -> SelectionPath:
    """Full selection: order greedily, then cut the path at the criterion minimum."""
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if W.shape[0] != y.shape[0] or W.shape[0] < 2:
        raise DimensionMismatch("W and y must share at least two rows")
    T, p = W.shape

    candidates = config.tuning_candidates
    if candidates is not None:
        c_star = select_c_star(
            W, y, candidates, eval_fraction=config.eval_fraction,
            config=config, base=base,
        )
    else:
        c_star = float(config.c_star)

    M = max_steps(T, p, config)
    order, sigma_sq, Q = oga_order(W, y, M, base=base)
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
        basis=Q[:, : Q.shape[1] - len(order) + m_hat],
    )


def select_c_star(
    W, y, candidates, eval_fraction: float = 0.2,
    config: OgaConfig | None = None, base=None,
) -> float:
    """Pick the penalty constant with the smallest holdout prediction error.

    The sample is split by time order: selection and fitting on the leading
    (1 - eval_fraction) share, squared prediction error on the tail. Ties go
    to the smaller candidate. Candidates that cut the path at the same step
    share one holdout fit.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    if not 0 < eval_fraction < 0.5:
        raise ValueError("eval_fraction must lie in (0, 0.5)")
    if config is None:
        config = OgaConfig()
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    T = W.shape[0]
    n_train = int((1.0 - eval_fraction) * T)
    n_train = min(max(n_train, 2), T - 1)
    W_tr, W_te = W[:n_train], W[n_train:]
    y_tr, y_te = y[:n_train], y[n_train:]
    if base is not None and np.asarray(base).size:
        base = np.asarray(base, dtype=np.float64)
        if base.ndim == 1:
            base = base[:, None]
        b_tr, b_te = base[:n_train], base[n_train:]
    else:
        b_tr = b_te = None

    # c_star only decides where the greedy path is cut, so one path serves
    # every candidate and one fit serves every candidate with the same cut
    p = W.shape[1]
    order, sigma_sq, _ = oga_order(W_tr, y_tr, max_steps(n_train, p, config), base=b_tr)
    cuts = {c: select_hdaic(sigma_sq, p, n_train, float(c)) for c in candidates}
    mspe = {}
    for m in sorted(set(cuts.values())):
        cols = order[:m]
        X_tr = W_tr[:, cols] if b_tr is None else np.column_stack([W_tr[:, cols], b_tr])
        X_te = W_te[:, cols] if b_te is None else np.column_stack([W_te[:, cols], b_te])
        err = y_te - X_te @ ols_fit(X_tr, y_tr).coefficients
        mspe[m] = float(err @ err) / err.shape[0]
    return float(min(sorted(candidates), key=lambda c: mspe[cuts[c]]))
