"""Periodic Fourier state space model.

The state stacks J+1 harmonic-oscillator pairs (x_j, y_j). Block j rotates
at angular velocity j*w0, with zero diffusion: Fourier coefficients of a
periodic signal do not drift. Prior block variances q_j^2 are the
Bessel-function weights of the canonical periodic covariance kernel, so that
the implied process is (a finite-rank approximation of) a periodic GP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .filtering import GaussianBelief, ProjectionPair, TransitionModel

BESSEL_RELATIVE_TOL = 1e-16


@dataclass(frozen=True)
class FourierParams:
    """Truncation order J >= 0, angular velocity w0, kernel lengthscale l, variance sigma2."""

    J: int
    w0: float
    l: float
    sigma2: float

    def __post_init__(self):
        if int(self.J) != self.J or self.J < 0:
            raise ContractViolation(f"J must be an integer >= 0, got {self.J}")
        if not 0 < self.w0 < math.inf:
            raise ContractViolation(f"w0 must be finite and > 0, got {self.w0}")
        if not 0 < self.l < math.inf:
            raise ContractViolation(f"l must be finite and > 0, got {self.l}")
        if not 0 < self.sigma2 < math.inf:
            raise ContractViolation(f"sigma2 must be finite and > 0, got {self.sigma2}")
        object.__setattr__(self, "J", int(self.J))
        object.__setattr__(self, "w0", float(self.w0))
        object.__setattr__(self, "l", float(self.l))
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @property
    def dim(self) -> int:
        return 2 * (self.J + 1)


def bessel_i(j: int, z: float) -> float:
    """Modified Bessel function of the first kind I_j(z), by power series.

    Sums (z/2)^(2k+j) / (k! (k+j)!) until a term drops below
    BESSEL_RELATIVE_TOL of the running sum. The terms grow until k is about
    z/2, so the series takes a few terms at the periodic kernel's default
    z = l^-2 = 1/9 and a few hundred at z = 400 (l = 0.05). A value beyond
    float range comes out as inf, one below it as 0.
    """
    if j < 0 or int(j) != j:
        raise ContractViolation(f"order j must be an integer >= 0, got {j}")
    if not 0 <= z < math.inf:
        raise ContractViolation(f"argument z must be finite and >= 0, got {z}")
    half = 0.5 * z
    try:
        term = half**j / math.factorial(j)
    except OverflowError:  # half**j or j! is beyond float range; their ratio need not be
        term = math.prod(half / i for i in range(1, j + 1))
    total, k = term, 0
    while term > BESSEL_RELATIVE_TOL * total:
        k += 1
        term *= half * half / (k * (k + j))
        total += term
    return total


def fourier_weights(params: FourierParams) -> np.ndarray:
    """Prior variances q_j^2 of the oscillator blocks, j = 0, ..., J.

    q_j^2 = sigma2 * 2 I_j(l^-2) / exp(l^-2) for j >= 1; the j = 0 block
    carries no factor 2, following the canonical periodic-kernel expansion.
    Raises ContractViolation when a weight, or exp(l^-2), leaves float range.
    """
    z = params.l**-2
    try:
        scale = params.sigma2 / math.exp(z)
    except OverflowError:
        scale = math.inf
    w = scale * np.array([(2.0 if j else 1.0) * bessel_i(j, z) for j in range(params.J + 1)])
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        raise ContractViolation(
            f"Fourier weight q_{bad[0]}^2 leaves float range at l={params.l:g}, J={params.J}"
        )
    return w


def _rotation(params: FourierParams, t) -> np.ndarray:
    """Block-diagonal rotations A(t), block j turning by w0*j*t; shape t.shape + (D, D)."""
    theta = np.multiply.outer(t, params.w0 * np.arange(params.J + 1))
    x = 2 * np.arange(params.J + 1)
    A = np.zeros(theta.shape[:-1] + (params.dim, params.dim))
    A[..., x, x] = A[..., x + 1, x + 1] = np.cos(theta)
    A[..., x + 1, x] = np.sin(theta)
    A[..., x, x + 1] = -A[..., x + 1, x]
    return A


def fourier_transition(h: float, params: FourierParams) -> TransitionModel:
    """Block-diagonal rotation over step h: block j turns by w0*j*h. Zero diffusion."""
    if not 0 < h < math.inf:
        raise ContractViolation(f"step size h must be finite and > 0, got {h}")
    A = _rotation(params, h)
    return TransitionModel(A, np.zeros_like(A))


def fourier_projections(params: FourierParams) -> ProjectionPair:
    """Value and derivative rows of the stacked-oscillator state.

    H0 sums the x_j slots (even indices). H reads -j*w0 off the y_j slots
    (odd indices), with the y_0 slot left at zero since the constant term
    has no derivative.
    """
    D = params.dim
    H0 = np.zeros(D)
    H0[0::2] = 1.0
    H = np.zeros(D)
    H[3::2] = -np.arange(1, params.J + 1) * params.w0
    return ProjectionPair(H0, H)


def fourier_init(params: FourierParams) -> GaussianBelief:
    """Zero-mean prior with isotropic per-block covariance q_j^2 I."""
    weights = fourier_weights(params)
    cov = np.diag(np.repeat(weights, 2))
    return GaussianBelief(np.zeros(params.dim), cov)
