"""Integrated-Brownian-motion (Taylor) state space model.

The state stacks the value and its first q derivatives. The transition mean
is the degree-q Taylor expansion; process noise enters through the q-fold
integrated Brownian motion with variance scale sigma2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, _finite_positive, _integer_at_least, _is_finite
from .filtering import GaussianBelief, ProjectionPair, TransitionModel

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
    try:  # a float, not a numpy scalar, so that overflow raises instead of giving inf
        hp = [float(h) ** p for p in range(2 * q + 2)]
    except OverflowError:
        raise ContractViolation(
            f"step size h={h:g} overflows the q={q} transition: h^{2 * q + 1} leaves float range"
        ) from None
    A = np.zeros((D, D))
    Q = np.zeros((D, D))
    for i in range(D):
        for j in range(i, D):
            A[i, j] = hp[j - i] / math.factorial(j - i)
    for i in range(D):
        for j in range(i, D):
            p = 2 * q + 1 - i - j
            base = hp[p] / (p * math.factorial(q - i) * math.factorial(q - j))
            Q[i, j] = params.sigma2 * base
            Q[j, i] = Q[i, j]
    return TransitionModel(A, Q)


def taylor_projections(q: int) -> ProjectionPair:
    """Value and derivative selectors for the stacked-derivative state."""
    q = _integer_at_least(q, 1, "q")
    H0 = np.zeros(q + 1)
    H0[0] = 1.0
    H = np.zeros(q + 1)
    H[1] = 1.0
    return ProjectionPair(H0, H)


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
