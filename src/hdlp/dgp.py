"""Synthetic data generators and the matching true impulse responses.

Two families: the ten-variable persistent system with a sparse or dense
coefficient pattern (one autoregressive scalar block plus polynomially
loaded rows), and a generic stationary vector autoregression with
user-supplied matrices. The true reduced-form response of one variable to
one innovation is read off powers of the companion matrix, which is the
oracle every coverage experiment scores against.

Draws use the counter-based Philox generator so that per-replication seeds
can be derived from (base_seed, replication) pairs without correlation.
simulate_var_block advances a block of such replications in one loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonStationaryAfterDamping, NonStationarySpec, _count
from .lp import LpSpec, TimeSeriesMatrix

# Coefficient-row loadings of the ten-variable designs: magnitudes decay
# linearly between the endpoints, signs alternate starting positive.
SPARSE_ENDPOINTS = (0.4, 0.05)
DENSE_ENDPOINTS = (0.8, 0.2)

DAMPING_BASE = 0.95
MAX_DAMPING_ROUNDS = 20


def alternating_decay_vector(first: float, last: float, length: int) -> np.ndarray:
    """Linearly decaying magnitudes with alternating signs, starting positive."""
    mags = np.linspace(first, last, length)
    signs = (-1.0) ** np.arange(length)
    return signs * mags


def toeplitz_power_sigma(n: int, tau: float) -> np.ndarray:
    """Innovation covariance with entries tau ** |i - j|."""
    if not abs(tau) < 1:
        raise ValueError("need |tau| < 1 for a positive definite covariance")
    idx = np.arange(n)
    return tau ** np.abs(idx[:, None] - idx[None, :])


def companion_matrix(B: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Stack lag matrices into the (n*K) x (n*K) companion form."""
    K = len(B)
    n = B[0].shape[0]
    C = np.zeros((n * K, n * K))
    C[:n, :] = np.hstack(B)
    if K > 1:
        C[n:, : n * (K - 1)] = np.eye(n * (K - 1))
    return C


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass(frozen=True, eq=False)
class VarDgpSpec:
    """Vector autoregression with Gaussian innovations.

    B holds the lag coefficient matrices B_1 .. B_K, n x n each; n and K
    are read off them, not passed. When y1_rho is given, the first row of
    every lag matrix is overwritten so that the first variable follows a
    pure AR(1) with that coefficient. Frozen, so n and K cannot go stale.
    """

    B: tuple[np.ndarray, ...]
    sigma: np.ndarray
    burn_in: int = 500
    y1_rho: float | None = None
    # set from B; fields, so that a run's checkpoint fingerprint has them
    n: int = field(init=False)
    K: int = field(init=False)

    def __post_init__(self):
        B = tuple(np.asarray(b, dtype=np.float64) for b in self.B)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        n = B[0].shape[0] if B and B[0].ndim else 0
        if not n or any(b.shape != (n, n) for b in B):
            raise DimensionMismatch("need one or more lag matrices, all n x n")
        if sigma.shape != (n, n):
            raise DimensionMismatch("sigma must be n x n")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite") from None
        if self.y1_rho is not None:
            B = tuple(b.copy() for b in B)
            for b in B:
                b[0, :] = 0.0
            B[0][0, 0] = self.y1_rho
        for name, value in (("B", B), ("sigma", sigma), ("n", n), ("K", len(B)),
                            ("burn_in", _count(self.burn_in, "burn_in"))):
            object.__setattr__(self, name, value)
        radius = spectral_radius(companion_matrix(self.B))
        if radius > 1.0 + 1e-9:
            raise NonStationarySpec(f"companion spectral radius {radius:.6f} > 1")
        if radius >= 1.0 - 1e-9:
            warnings.warn(
                f"companion spectral radius {radius:.9f} is at the unit circle",
                stacklevel=2,
            )

    @property
    def names(self) -> tuple[str, ...]:
        """The series names y1 .. yn, as simulate_var writes them."""
        return tuple(f"y{i + 1}" for i in range(self.n))

    @property
    def companion(self) -> np.ndarray:
        return companion_matrix(self.B)


@dataclass(frozen=True)
class Section3Design:
    """The ten-variable simulation design: AR(1) first block, loaded rows below.

    a is the length n-1 loading vector, filled from the documented sparse
    endpoints when empty (dense fills it from its own); tau sets the
    innovation correlation decay; lags_dgp is the true lag order and
    lags_est the deeper order the estimator uses (lag augmentation).
    """

    rho: float = 0.5
    a: tuple[float, ...] = ()
    tau: float = 0.3
    n: int = 10
    T: int = 300
    lags_dgp: int = 12
    lags_est: int = 21
    burn_in: int = 500

    def __post_init__(self):
        if not abs(self.rho) < 1:
            raise ValueError("need |rho| < 1")
        if not abs(self.tau) < 1:
            raise ValueError("need |tau| < 1")
        a = tuple(self.a) or tuple(
            alternating_decay_vector(*SPARSE_ENDPOINTS, self.n - 1)
        )
        if len(a) != self.n - 1:
            raise DimensionMismatch(f"a must have length n-1 = {self.n - 1}")
        object.__setattr__(self, "a", a)

    @classmethod
    def sparse(cls, rho: float = 0.5, **kwargs) -> "Section3Design":
        return cls(rho=rho, **kwargs)

    @classmethod
    def dense(cls, rho: float = 0.5, **kwargs) -> "Section3Design":
        n = kwargs.get("n", 10)
        a = tuple(alternating_decay_vector(*DENSE_ENDPOINTS, n - 1))
        return cls(rho=rho, a=a, **kwargs)


def build_section3_coefficients(design: Section3Design) -> VarDgpSpec:
    """Deterministic lag matrices for the ten-variable design.

    Repo rule (the published description leaves the exact entries open):
    row 1 is the AR(1) block; in row j >= 2 of lag matrix ell, every even
    1-based column holds (-1)**(ell+1) * a_{j-1}**ell / ell and odd columns
    are zero. Rows 2..n are scaled by 0.95**k with the smallest k in 0..20
    that puts the companion radius below 1 (the AR(1) row keeps its designed
    persistence).
    """
    n, K = design.n, design.lags_dgp
    a = np.asarray(design.a)

    def matrices(damp: float) -> list[np.ndarray]:
        B = []
        for ell in range(1, K + 1):
            b = np.zeros((n, n))
            if ell == 1:
                b[0, 0] = design.rho
            vals = ((-1.0) ** (ell + 1)) * a**ell / ell * damp
            b[1:, 1::2] = vals[:, None]
            B.append(b)
        return B

    for k in range(MAX_DAMPING_ROUNDS + 1):  # round 0: the design as written
        B = matrices(DAMPING_BASE**k)
        if spectral_radius(companion_matrix(B)) < 1.0:
            break
    else:
        raise NonStationaryAfterDamping(
            f"no stationary coefficient set within {MAX_DAMPING_ROUNDS} "
            "damping rounds"
        )
    return VarDgpSpec(
        B=tuple(B),
        sigma=toeplitz_power_sigma(n, design.tau),
        burn_in=design.burn_in,
        y1_rho=design.rho,
    )


def section3_lp_spec(design: Section3Design, horizons=None) -> LpSpec:
    """Estimation layout for the design: shock y1, response y2, full controls,
    at the given horizons (1-60 by default).

    The contemporaneous values of every non-shock variable enter as
    controls, so the regression targets the companion-power response to the
    first innovation alone.
    """
    names = [f"y{i + 1}" for i in range(design.n)]
    return LpSpec(
        response=names[1],
        shock=names[0],
        horizons=range(1, 61) if horizons is None else horizons,
        contemporaneous=tuple(names[1:]),
        lagged=tuple(names),
        lags=design.lags_dgp,
        lag_augment=design.lags_est - design.lags_dgp,
        include_intercept=True,
    )


def _generator(seed) -> np.random.Generator:
    """Philox generator; seed may be an int or a (base, counter) tuple."""
    key = np.asarray(seed, dtype=np.uint64).ravel() if not np.isscalar(seed) else seed
    return np.random.Generator(np.random.Philox(key=key))


def simulate_var(spec: VarDgpSpec, T: int, seed) -> TimeSeriesMatrix:
    """Draw T rows from the autoregression after discarding the burn-in."""
    return simulate_var_block(spec, T, [seed])[0]


def simulate_var_block(spec: VarDgpSpec, T: int, seeds) -> list[TimeSeriesMatrix]:
    """simulate_var for each seed, all advanced by one loop on their own draws.

    A replication's last K rows sit contiguously in y below K rows of zero
    presample. Each step is one stacked matmul of [B_K .. B_1] on every
    window, which numpy runs as one matrix-vector product per replication,
    so a replication's bits do not depend on its block or its place there.
    """
    total = _count(T, "T") + spec.burn_in
    chol = np.linalg.cholesky(spec.sigma)
    K, n, width = spec.K, spec.n, len(seeds)
    u = np.stack([_generator(seed).standard_normal((total, n)) @ chol.T
                  for seed in seeds])
    B = np.hstack(spec.B[::-1])
    y = np.zeros((width, K + total, n))
    flat = y.reshape(width, -1)  # a view: each window is one contiguous run
    step = np.empty((width, n, 1))
    for t in range(total):
        np.matmul(B, flat[:, t * n : (K + t) * n, None], out=step)
        np.add(step[:, :, 0], u[:, t], out=y[:, K + t])
    return [TimeSeriesMatrix(values=rows, columns=spec.names)
            for rows in y[:, K + spec.burn_in :]]


def true_reduced_form_irf(
    spec: VarDgpSpec, response: int, innovation: int, horizons
) -> np.ndarray:
    """Response of one variable to a unit innovation, horizon by horizon.

    Entry (response, innovation) of the h-th companion power, read on the
    top-left block; horizon 0 is the impact indicator. No orthogonalization:
    the innovation moves alone regardless of the innovation covariance.
    """
    horizons = [_count(h, "a horizon") for h in horizons]
    if not 0 <= response < spec.n or not 0 <= innovation < spec.n:
        raise DimensionMismatch("response and innovation must index variables")
    C = spec.companion
    max_h = max(horizons) if horizons else 0
    power = np.eye(C.shape[0])
    values = {0: 1.0 if response == innovation else 0.0}
    for h in range(1, max_h + 1):
        power = power @ C
        values[h] = float(power[response, innovation])
    return np.array([values[h] for h in horizons])

