"""Integrated-Brownian-motion (Taylor) state space model.

The state stacks the value and its first q derivatives. The transition mean
is the degree-q Taylor expansion; process noise enters through the q-fold
integrated Brownian motion with variance scale sigma2. ``taylor_state_space``
bundles the transition, the projections and the init for ``solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, _finite_positive, _integer_at_least, _is_finite
from .filtering import GaussianBelief, ProjectionPair, TransitionModel
from .solver import StateSpaceModel, _field_at

# Prior variance of each slot the init pins: x(0), x'(0) and the higher
# derivatives it sets to zero. No Taylor covariance is ever factorized.
INIT_JITTER = 1e-12


@dataclass(frozen=True)
class TaylorParams:
    """q: number of modeled derivatives (>= 1); sigma2: Brownian-motion variance scale."""

    q: int
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "q", _integer_at_least(self.q, 1, "q"))
        object.__setattr__(self, "sigma2", _finite_positive(self.sigma2, "sigma2"))


def ibm_transition(h: float, params: TaylorParams) -> TransitionModel:
    """Discrete transition of the q-times integrated Brownian motion over step h.

    With 0-based indices i, j in {0, ..., q}:

        A[i, j] = h^(j-i) / (j-i)!          for i <= j, else 0
        Q[i, j] = sigma2 * h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!)
    """
    _finite_positive(h, "step size h")
    q = params.q
    D = q + 1
    # Exact integer denominators, each rounded to float once, as a scalar
    # division by an int would round them; float factorials drift from q = 22.
    fact = np.array([math.factorial(k) for k in range(D)], dtype=object)
    i, j = np.indices((D, D))
    p, up = 2 * q + 1 - i - j, np.maximum(j - i, 0)
    try:  # Python floats and ints, not numpy scalars, so that overflow raises instead of giving inf
        hp = np.array([float(h) ** k for k in range(2 * q + 2)])
        A = np.triu(hp[up] / fact[up].astype(float))
        Q = params.sigma2 * (hp[p] / (p * fact[q - i] * fact[q - j]).astype(float))
    except OverflowError:
        raise ContractViolation(
            f"step size h={h:g} with q={q}: h^{2 * q + 1} or (2q+1)(q!)^2 leaves float range"
        ) from None
    return TransitionModel(A, Q)


def taylor_projections(q: int) -> ProjectionPair:
    """Value and derivative selectors for the stacked-derivative state."""
    q = _integer_at_least(q, 1, "q")
    return ProjectionPair(*np.eye(q + 1)[:2])


def _taylor_init(x0: np.ndarray, dx0: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Means (d, q+1) pinning x(0) = x0 and x'(0) = dx0 per coordinate, higher
    derivatives zero, and the covariance INIT_JITTER * I they all share."""
    M = np.zeros((len(x0), q + 1))
    M[:, 0], M[:, 1] = x0, dx0
    return M, INIT_JITTER * np.eye(q + 1)


def taylor_init(x0: float, dx0: float, q: int) -> GaussianBelief:
    """One coordinate's initial belief: x(0) = x0 and x'(0) = dx0, higher derivatives zero.

    The one row of ``_taylor_init``, the batched init a Taylor solve uses;
    the covariance is INIT_JITTER * I rather than exactly zero.
    """
    if not (_is_finite(x0) and _is_finite(dx0)):
        raise ContractViolation(f"x0={x0} and dx0={dx0} must be finite numbers")
    M, P = _taylor_init([x0], [dx0], _integer_at_least(q, 1, "q"))
    return GaussianBelief(M[0], P)


def taylor_state_space(params: TaylorParams) -> StateSpaceModel:
    """The Taylor (integrated Brownian motion) prior as a ``StateSpaceModel``.

    Its init pins x(0) = x0 and x'(0) = f(x0, 0): the solve's one field
    evaluation before the filter loop. The field gets a copy of x0, as it
    gets a fresh array at every step.
    """
    return StateSpaceModel(
        transition_builder=lambda h: ibm_transition(h, params),
        projections=taylor_projections(params.q),
        init=lambda ivp: _taylor_init(
            ivp.x0, _field_at(ivp.field, ivp.x0.copy(), 0.0), params.q
        ),
        label="taylor",
    )
