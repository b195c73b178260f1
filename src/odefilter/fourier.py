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

BESSEL_MAX_TERMS = 64
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
        if self.w0 <= 0:
            raise ContractViolation(f"w0 must be > 0, got {self.w0}")
        if self.l <= 0:
            raise ContractViolation(f"l must be > 0, got {self.l}")
        if self.sigma2 <= 0:
            raise ContractViolation(f"sigma2 must be > 0, got {self.sigma2}")
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
    BESSEL_RELATIVE_TOL of the running sum or BESSEL_MAX_TERMS is hit. The
    arguments used by the periodic kernel are z = l^-2 = O(1), where the
    series converges in well under 20 terms.
    """
    if j < 0 or int(j) != j:
        raise ContractViolation(f"order j must be an integer >= 0, got {j}")
    if z < 0:
        raise ContractViolation(f"argument z must be >= 0, got {z}")
    half = 0.5 * z
    term = half**j / math.factorial(j)
    total = term
    for k in range(1, BESSEL_MAX_TERMS):
        term *= half * half / (k * (k + j))
        total += term
        if term < BESSEL_RELATIVE_TOL * total:
            break
    return total


def fourier_weights(params: FourierParams) -> np.ndarray:
    """Prior variances q_j^2 of the oscillator blocks, j = 0, ..., J.

    q_j^2 = sigma2 * 2 I_j(l^-2) / exp(l^-2) for j >= 1; the j = 0 block
    carries no factor 2, following the canonical periodic-kernel expansion.
    """
    z = params.l**-2
    scale = params.sigma2 / math.exp(z)
    return scale * np.array([(2.0 if j else 1.0) * bessel_i(j, z) for j in range(params.J + 1)])


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
    if h <= 0:
        raise ContractViolation(f"step size h must be > 0, got {h}")
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
