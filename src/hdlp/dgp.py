"""Synthetic data generators and the matching true impulse responses.

Three families: the ten-variable persistent system with a sparse or dense
coefficient pattern (one autoregressive scalar block plus polynomially
loaded rows), a generic stationary vector autoregression with user-supplied
matrices, and a three-equation dynamic factor model. The true reduced-form
response of one variable to one innovation is read off powers of the
companion matrix, which is the oracle every coverage experiment scores
against.

Draws use the counter-based Philox generator so that per-replication seeds
can be derived from (base_seed, replication) pairs without correlation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonStationaryAfterDamping, NonStationarySpec
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


@dataclass(eq=False)
class VarDgpSpec:
    """Vector autoregression with Gaussian innovations.

    B holds the lag coefficient matrices B_1 .. B_K. When y1_rho is given,
    the first row of every lag matrix is overwritten so that the first
    variable follows a pure AR(1) with that coefficient.
    """

    n: int
    K: int
    B: tuple[np.ndarray, ...]
    sigma: np.ndarray
    burn_in: int = 500
    y1_rho: float | None = None

    def __post_init__(self):
        self.B = tuple(np.asarray(b, dtype=np.float64) for b in self.B)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if len(self.B) != self.K:
            raise DimensionMismatch(f"expected {self.K} lag matrices, got {len(self.B)}")
        for b in self.B:
            if b.shape != (self.n, self.n):
                raise DimensionMismatch("every lag matrix must be n x n")
        if self.sigma.shape != (self.n, self.n):
            raise DimensionMismatch("sigma must be n x n")
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite") from None
        if self.y1_rho is not None:
            B = [b.copy() for b in self.B]
            for b in B:
                b[0, :] = 0.0
            B[0][0, 0] = self.y1_rho
            self.B = tuple(B)
        radius = spectral_radius(companion_matrix(self.B))
        if radius > 1.0 + 1e-9:
            raise NonStationarySpec(f"companion spectral radius {radius:.6f} > 1")
        if radius >= 1.0 - 1e-9:
            warnings.warn(
                f"companion spectral radius {radius:.9f} is at the unit circle",
                stacklevel=2,
            )

    @property
    def companion(self) -> np.ndarray:
        return companion_matrix(self.B)


@dataclass(frozen=True)
class Section3Design:
    """The ten-variable simulation design: AR(1) first block, loaded rows below.

    a is the length n-1 loading vector (sparse/dense constructors fill it
    from the documented endpoints); tau sets the innovation correlation
    decay; lags_dgp is the true lag order and lags_est the deeper order the
    estimator uses (lag augmentation).
    """

    rho: float = 0.5
    a: tuple[float, ...] = ()
    tau: float = 0.3
    n: int = 10
    T: int = 300
    lags_dgp: int = 12
    lags_est: int = 21
    horizons: tuple[int, ...] = tuple(range(1, 61))
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
        object.__setattr__(self, "horizons", tuple(self.horizons))

    @classmethod
    def sparse(cls, rho: float = 0.5, **kwargs) -> "Section3Design":
        n = kwargs.get("n", 10)
        a = tuple(alternating_decay_vector(*SPARSE_ENDPOINTS, n - 1))
        return cls(rho=rho, a=a, **kwargs)

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
    are zero. If the companion radius reaches 1, rows 2..n are scaled by
    0.95**k with the smallest k in 1..20 restoring stationarity (the AR(1)
    row keeps its designed persistence).
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

    B = matrices(1.0)
    if spectral_radius(companion_matrix(B)) >= 1.0:
        for k in range(1, MAX_DAMPING_ROUNDS + 1):
            B = matrices(DAMPING_BASE**k)
            if spectral_radius(companion_matrix(B)) < 1.0:
                break
        else:
            raise NonStationaryAfterDamping(
                f"no stationary coefficient set within {MAX_DAMPING_ROUNDS} "
                "damping rounds"
            )
    return VarDgpSpec(
        n=n,
        K=K,
        B=tuple(B),
        sigma=toeplitz_power_sigma(n, design.tau),
        burn_in=design.burn_in,
        y1_rho=design.rho,
    )


def section3_lp_spec(design: Section3Design, horizons=None) -> LpSpec:
    """Estimation layout for the design: shock y1, response y2, full controls.

    The contemporaneous values of every non-shock variable enter as
    controls, so the regression targets the companion-power response to the
    first innovation alone.
    """
    names = [f"y{i + 1}" for i in range(design.n)]
    return LpSpec(
        response=names[1],
        shock=names[0],
        horizons=tuple(horizons) if horizons is not None else design.horizons,
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
    """Draw T rows from the autoregression after discarding the burn-in.

    Each step is one matvec of [B_K .. B_1] on the last K rows, which sit
    contiguously in y below K rows of zero presample, written straight into
    the new row before its innovation is added.
    """
    rng = _generator(seed)
    total = T + spec.burn_in
    chol = np.linalg.cholesky(spec.sigma)
    u = rng.standard_normal((total, spec.n)) @ chol.T
    K, n = spec.K, spec.n
    B = np.hstack(spec.B[::-1])
    y = np.zeros((K + total, n))
    flat = y.ravel()  # a view: the last K rows are one contiguous window
    for t in range(total):
        row = y[K + t]
        np.dot(B, flat[t * n : (K + t) * n], out=row)
        row += u[t]
    names = tuple(f"y{i + 1}" for i in range(spec.n))
    return TimeSeriesMatrix(values=y[K + spec.burn_in :], columns=names)


def true_reduced_form_irf(
    spec: VarDgpSpec, response: int, innovation: int, horizons
) -> np.ndarray:
    """Response of one variable to a unit innovation, horizon by horizon.

    Entry (response, innovation) of the h-th companion power, read on the
    top-left block; horizon 0 is the impact indicator. No orthogonalization:
    the innovation moves alone regardless of the innovation covariance.
    """
    horizons = [int(h) for h in horizons]
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


@dataclass(eq=False)
class DfmDgpSpec:
    """Dynamic factor model: factor autoregression, loadings, AR idiosyncrasies.

    phi is the factor transition, h_load maps the factor shocks in, lam
    holds the observation loadings, idio_ar[i] the AR coefficients of series
    i's idiosyncratic term and idio_scale[i] its shock scale.
    """

    phi: np.ndarray
    h_load: np.ndarray
    lam: np.ndarray
    idio_ar: tuple[tuple[float, ...], ...]
    idio_scale: tuple[float, ...]
    T: int = 200
    burn_in: int = 500

    def __post_init__(self):
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=np.float64))
        self.h_load = np.atleast_2d(np.asarray(self.h_load, dtype=np.float64))
        self.lam = np.atleast_2d(np.asarray(self.lam, dtype=np.float64))
        self.idio_ar = tuple(tuple(float(c) for c in row) for row in self.idio_ar)
        self.idio_scale = tuple(float(s) for s in self.idio_scale)
        k = self.phi.shape[0]
        if self.phi.shape != (k, k):
            raise DimensionMismatch("phi must be square")
        if self.h_load.shape[0] != k:
            raise DimensionMismatch("h_load must have one row per factor")
        if self.lam.shape[1] != k:
            raise DimensionMismatch("lam must have one column per factor")
        n = self.lam.shape[0]
        if len(self.idio_ar) != n or len(self.idio_scale) != n:
            raise DimensionMismatch("need idiosyncratic terms for every series")
        if spectral_radius(self.phi) >= 1.0:
            raise NonStationarySpec("factor process is not stationary")
        for i, coeffs in enumerate(self.idio_ar):
            if coeffs:
                comp = companion_matrix([np.array([[c]]) for c in coeffs])
                if spectral_radius(comp) >= 1.0:
                    raise NonStationarySpec(
                        f"idiosyncratic process {i} is not stationary"
                    )

    @property
    def n_series(self) -> int:
        return self.lam.shape[0]

    @property
    def n_factors(self) -> int:
        return self.phi.shape[0]


def simulate_dfm(spec: DfmDgpSpec, seed) -> TimeSeriesMatrix:
    """Draw observations x_t = lam @ f_t + v_t with AR idiosyncratic noise."""
    rng = _generator(seed)
    total = spec.T + spec.burn_in
    k, n = spec.n_factors, spec.n_series
    m = spec.h_load.shape[1]

    eps = rng.standard_normal((total, m))
    f = np.zeros((total, k))
    for t in range(total):
        prev = f[t - 1] if t > 0 else np.zeros(k)
        f[t] = spec.phi @ prev + spec.h_load @ eps[t]

    xi = rng.standard_normal((total, n))
    v = np.zeros((total, n))
    for i in range(n):
        coeffs = spec.idio_ar[i]
        for t in range(total):
            acc = spec.idio_scale[i] * xi[t, i]
            for j, c in enumerate(coeffs, start=1):
                if t - j >= 0:
                    acc += c * v[t - j, i]
            v[t, i] = acc

    x = f @ spec.lam.T + v
    names = tuple(f"x{i + 1}" for i in range(n))
    return TimeSeriesMatrix(values=x[spec.burn_in :], columns=names)


def true_dfm_irf(
    spec: DfmDgpSpec, response: int, shock: int, horizons
) -> np.ndarray:
    """Response of one series to a unit factor shock: lam_i' phi^h h_load e_j."""
    horizons = [int(h) for h in horizons]
    if not 0 <= response < spec.n_series:
        raise DimensionMismatch("response must index an observed series")
    if not 0 <= shock < spec.h_load.shape[1]:
        raise DimensionMismatch("shock must index a factor innovation")
    out = []
    power = np.eye(spec.n_factors)
    max_h = max(horizons) if horizons else 0
    by_h = {}
    for h in range(max_h + 1):
        by_h[h] = float(spec.lam[response] @ power @ spec.h_load[:, shock])
        power = spec.phi @ power
    for h in horizons:
        out.append(by_h[h])
    return np.array(out)
