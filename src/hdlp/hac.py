"""Long-run variance estimation for the per-horizon coefficient.

The variance of the shock coefficient is estimated from the two residual
series of the partialled-out regression: tau_sq is the second moment of the
shock residual v, Omega is the Bartlett-kernel long-run variance of the
product series psi = v * u, and the coefficient variance is Omega / tau_sq**2
(the partialled-regression asymptotics; note the fourth power, not the
second). Documented prominently because the scaling is easy to get wrong.
Panels may replace the Bartlett Omega by a by-cluster sum of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooLarge, DegenerateShock, DimensionMismatch

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


def auto_bandwidth(T: int) -> int:
    """Newey-West rule of thumb floor(4 * (T/100)**(2/9)) + 1."""
    return int(math.floor(4.0 * (T / 100.0) ** (2.0 / 9.0))) + 1


def newey_west(psi, K: int) -> float:
    """Bartlett-weighted long-run variance of psi with bandwidth K.

    Lag ell in (-(K-1), ..., K-1) gets weight (1 - |ell|/K) and
    normalization 1/(T - |ell|); the lag-0 term alone gives the K=1 case
    (1/T) * sum(psi**2). A negative rounding artifact is floored at
    1e-14 times the variance of psi.
    """
    psi = np.asarray(psi, dtype=np.float64).ravel()
    T = psi.shape[0]
    if K < 1:
        raise ValueError("bandwidth K must be at least 1")
    if T <= K:
        raise BandwidthTooLarge(f"series length {T} must exceed bandwidth {K}")
    omega = float(psi @ psi) / T
    for ell in range(1, K):
        weight = 1.0 - ell / K
        cross = float(psi[ell:] @ psi[:-ell])
        omega += 2.0 * weight * cross / (T - ell)
    if omega < 0.0:
        omega = 1e-14 * float(np.var(psi))
    return omega


def cluster_omega(groups, psi) -> float:
    """Sum over groups of the squared within-group sum of psi."""
    _, g = np.unique(groups, return_inverse=True)
    return float(np.sum(np.bincount(g, weights=psi) ** 2))


def hac_variance(
    residuals_v, residuals_u, K: int | None = None, clusters=None
) -> tuple[float, float, float, int | None]:
    """(sigma_sq_h, tau_sq_hat, omega_hat, K_used) from the two residual series.

    tau_sq_hat = mean(v**2), omega_hat = newey_west(v * u, K),
    sigma_sq_h = omega_hat / tau_sq_hat**2. K None means auto_bandwidth(T).
    With clusters (one group label per observation) omega_hat is instead
    cluster_omega(clusters, v * u) / T, K is unused and K_used is None.
    """
    v = np.asarray(residuals_v, dtype=np.float64).ravel()
    u = np.asarray(residuals_u, dtype=np.float64).ravel()
    if v.shape[0] != u.shape[0]:
        raise DimensionMismatch("residual series must have equal length")
    T = v.shape[0]
    if clusters is None and T < 8:
        raise DimensionMismatch("need at least 8 observations for the variance")
    tau_sq = float(v @ v) / T
    if tau_sq == 0.0:
        raise DegenerateShock("shock residual is zero")
    if clusters is None:
        K_used = auto_bandwidth(T) if K is None else int(K)
        omega = newey_west(v * u, K_used)
    else:
        K_used = None
        omega = cluster_omega(clusters, v * u) / T
    sigma_sq_h = omega / tau_sq**2
    return sigma_sq_h, tau_sq, omega, K_used
