"""Long-run variance estimation for the per-horizon coefficient.

The variance of the shock coefficient is estimated from the two residual
series of the partialled-out regression: tau_sq is the second moment of the
shock residual v, Omega is the Bartlett-kernel long-run variance of the
product series psi = v * u, and the coefficient variance is Omega / tau_sq**2
(the partialled-regression asymptotics; note the fourth power, not the
second). Documented prominently because the scaling is easy to get wrong.
Panels may replace the Bartlett Omega by a by-cluster sum of psi. Both
estimators take a batch of zero-padded series, one per column with its own
length (rows) and bandwidth, so an impulse response takes every horizon's
variance in one call; one series is the batch psi[:, None]. hac_variance
returns one result or error per column; newey_west returns the variances
and raises BandwidthTooLarge for the batch if any length does not exceed
its bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooLarge, DegenerateShock, DimensionMismatch, InsufficientSample

PSI_FINAL_U = "final_u"
PSI_FIRST_STAGE_E = "first_stage_e"


@dataclass(frozen=True)
class HacConfig:
    """bandwidth None means the rule of thumb floor(4 * (T/100)**(2/9)) + 1.

    psi_source picks the residual multiplying v in psi: the final-regression
    residual (default, matches the asymptotic variance) or the first-stage
    residual from the outcome selection equation, kept for replication runs.

    dof_correction scales the coefficient variance by T / (T - k) with k the
    rank of the final design. Irrelevant asymptotically and tiny after
    selection, but essential for the no-selection benchmark, whose residuals
    are overfit by (T - k) / T when k is a sizable share of T.
    """

    bandwidth: int | None = None
    psi_source: str = PSI_FINAL_U
    dof_correction: bool = True

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        if self.psi_source not in (PSI_FINAL_U, PSI_FIRST_STAGE_E):
            raise ValueError(f"unknown psi_source {self.psi_source!r}")


def dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the same row of B, each one BLAS
    dot, so each row gets the bits of a 1-D a @ b."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def auto_bandwidth(T: int) -> int:
    """Newey-West rule of thumb floor(4 * (T/100)**(2/9)) + 1."""
    return int(math.floor(4.0 * (T / 100.0) ** (2.0 / 9.0))) + 1


def newey_west(psi, K, rows=None):
    """Bartlett-weighted long-run variance of psi with bandwidth K.

    Lag ell in (-(K-1), ..., K-1) gets weight (1 - |ell|/K) and
    normalization 1/(T - |ell|); the lag-0 term alone gives the K=1 case
    (1/T) * sum(psi**2). A negative rounding artifact is floored at
    1e-14 times the variance of psi.

    psi (n x k) holds k series, series i in its first rows[i] rows (all n
    by default) and zero below, with bandwidth K[i] when K is a sequence;
    returns their k variances. Each lag is one batched call of BLAS dots,
    one dot per series.
    """
    P = np.ascontiguousarray(np.asarray(psi, dtype=np.float64).T)  # one series per row
    if P.ndim != 2:
        raise DimensionMismatch("psi must be 2-D, one column per series")
    n = P.shape[1]
    T = np.full(len(P), n) if rows is None else np.asarray(rows)
    K = np.broadcast_to(np.asarray(K), T.shape)
    if np.any(K < 1):
        raise ValueError("bandwidth K must be at least 1")
    for t, k in zip(T, K):
        if t <= k:
            raise BandwidthTooLarge(f"series length {t} must exceed bandwidth {k}")
    omega = dots(P, P) / T
    for ell in range(1, int(K.max(initial=1))):
        weight = 1.0 - ell / K
        cross = dots(P[:, ell:], P[:, : n - ell])
        omega += np.where(ell < K, 2.0 * weight * cross / np.maximum(T - ell, 1), 0.0)
    for i in np.flatnonzero(omega < 0.0):
        omega[i] = 1e-14 * float(np.var(P[i, : T[i]]))
    return omega


def cluster_omega(groups, psi) -> float:
    """Sum over groups of the squared within-group sum of psi."""
    _, g = np.unique(groups, return_inverse=True)
    return float(np.sum(np.bincount(g, weights=psi) ** 2))


def hac_variance(residuals_v, residuals_u, K: int | None = None, clusters=None,
                 rows=None):
    """(sigma_sq_h, tau_sq_hat, omega_hat, K_used) from the two residual series.

    tau_sq_hat = mean(v**2), omega_hat = newey_west(v * u, K),
    sigma_sq_h = omega_hat / tau_sq_hat**2. K None means auto_bandwidth(T).
    With clusters (one group label per observation) omega_hat is instead
    cluster_omega(clusters, v * u) / T, K is unused and K_used is None.

    The residuals (n x k each) hold k pairs of series, pair i in its first
    rows[i] rows (all n by default) and zero below; returns one tuple, or
    the error that pair alone would raise, per pair. A Newey-West pair
    needs at least 8 rows, the floor build_lp_dataset also sets; fewer is
    InsufficientSample.
    """
    v = np.asarray(residuals_v, dtype=np.float64)
    u = np.asarray(residuals_u, dtype=np.float64)
    if v.shape != u.shape or v.ndim != 2:
        raise DimensionMismatch("residuals must be 2-D, of one shape, one column per series")
    V = np.ascontiguousarray(v.T)  # one series per row
    psi = V * u.T
    T = np.full(len(V), V.shape[1]) if rows is None else np.asarray(rows)
    tau_sq = dots(V, V) / T
    if clusters is None:
        K_used = [auto_bandwidth(t) if K is None else int(K) for t in T.tolist()]
    else:
        K_used = [None] * len(V)
    out: list = [None] * len(V)
    for i, (t, tau, k) in enumerate(zip(T.tolist(), tau_sq, K_used)):
        if clusters is None and t < 8:
            out[i] = InsufficientSample("need at least 8 observations for the variance")
        elif tau == 0.0:
            out[i] = DegenerateShock("shock residual is zero")
        elif k is not None and t <= k:
            out[i] = BandwidthTooLarge(f"series length {t} must exceed bandwidth {k}")
    ok = [i for i, err in enumerate(out) if err is None]
    omega = np.zeros(len(V))
    if clusters is not None:
        omega[ok] = [cluster_omega(clusters[: T[i]], psi[i, : T[i]]) / T[i] for i in ok]
    elif ok:
        omega[ok] = newey_west(psi[ok].T, [K_used[i] for i in ok], T[ok])
    for i in ok:
        out[i] = (float(omega[i] / tau_sq[i] ** 2), float(tau_sq[i]),
                  float(omega[i]), K_used[i])
    return out
