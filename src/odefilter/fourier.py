"""Periodic Fourier state space model.

The state stacks J+1 harmonic-oscillator pairs (x_j, y_j). Block j rotates
at angular velocity j*w0, with zero diffusion: Fourier coefficients of a
periodic signal do not drift. Prior block variances q_j^2 are the
Bessel-function weights of the canonical periodic covariance kernel, so that
the implied process is (a finite-rank approximation of) a periodic GP.
``fourier_state_space`` bundles the transition, the projections and the
init for ``solve``: the zero-mean prior conditioned on the initial value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, _finite_nonnegative, _finite_positive, _integer_at_least
from .filtering import GaussianBelief, ProjectionPair, TransitionModel, _gain_update, _joseph
from .solver import StateSpaceModel

BESSEL_RELATIVE_TOL = 1e-16


@dataclass(frozen=True)
class FourierParams:
    """Truncation order J >= 0, angular velocity w0, kernel lengthscale l, variance sigma2."""

    J: int
    w0: float
    l: float
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "J", _integer_at_least(self.J, 0, "J"))
        for name in ("w0", "l", "sigma2"):
            object.__setattr__(self, name, _finite_positive(getattr(self, name), name))
        if not math.isfinite(self.J * self.w0):  # the top block's angular velocity
            raise ContractViolation(f"J*w0 leaves float range at w0={self.w0:g}, J={self.J}")

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
    j = _integer_at_least(j, 0, "order j")
    _finite_nonnegative(z, "argument z")
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


def _check_angles(params: FourierParams, t_max: float) -> None:
    """Raise ContractViolation when an angle j*w0*t with |t| <= t_max leaves
    float range: the largest, J*w0*t_max, rounds the way its own entry of
    ``_rotation``'s theta does."""
    if not math.isfinite(params.w0 * params.J * t_max):
        raise ContractViolation(
            f"Fourier angle j*w0*t leaves float range at w0={params.w0:g}, J={params.J}, "
            f"t={t_max:g}"
        )


def _rotation(params: FourierParams, t) -> np.ndarray:
    """Block-diagonal rotations A(t), block j turning by w0*j*t; shape t.shape + (D, D).

    Raises ContractViolation when an angle leaves float range (``_check_angles``).
    """
    _check_angles(params, float(np.max(np.abs(t), initial=0.0)))
    theta = np.multiply.outer(t, params.w0 * np.arange(params.J + 1))
    x = 2 * np.arange(params.J + 1)
    A = np.zeros(theta.shape[:-1] + (params.dim, params.dim))
    A[..., x, x] = A[..., x + 1, x + 1] = np.cos(theta)
    A[..., x + 1, x] = np.sin(theta)
    A[..., x, x + 1] = -A[..., x + 1, x]
    return A


def fourier_transition(h: float, params: FourierParams) -> TransitionModel:
    """Block-diagonal rotation over step h: block j turns by w0*j*h. Zero diffusion."""
    A = _rotation(params, _finite_positive(h, "step size h"))
    return TransitionModel(A, np.zeros_like(A))


def fourier_projections(params: FourierParams) -> ProjectionPair:
    """Value and derivative rows of the stacked-oscillator state.

    H0 sums the x_j slots (even indices). H reads -j*w0 off the y_j slots
    (odd indices), with the y_0 slot left at zero since the constant term
    has no derivative.
    """
    H0 = np.tile([1.0, 0.0], params.J + 1)
    H = np.zeros(params.dim)
    H[3::2] = -np.arange(1, params.J + 1) * params.w0
    return ProjectionPair(H0, H)


def fourier_init(params: FourierParams) -> GaussianBelief:
    """Zero-mean prior with isotropic per-block covariance q_j^2 I."""
    weights = fourier_weights(params)
    cov = np.diag(np.repeat(weights, 2))
    return GaussianBelief(np.zeros(params.dim), cov)


def fourier_state_space(params: FourierParams) -> StateSpaceModel:
    """The Fourier (periodic) prior as a ``StateSpaceModel``.

    Its init conditions the zero-mean prior on each coordinate's value,
    H0 m = x0, with no noise; it evaluates nothing. The conditioned
    covariance and the gain do not depend on x0, so every solve shares them.
    """
    proj = fourier_projections(params)
    P, K, _ = _joseph(fourier_init(params).cov, proj.H0, 0.0)
    P.flags.writeable = False
    return StateSpaceModel(
        transition_builder=lambda h: fourier_transition(h, params),
        projections=proj,
        init=lambda ivp: (_gain_update(np.zeros((ivp.dim, params.dim)), proj.H0, ivp.x0, K), P),
        label="fourier",
    )
