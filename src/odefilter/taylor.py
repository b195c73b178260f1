"""Integrated-Brownian-motion (Taylor) state space model.

The state stacks the value and its first q derivatives. The transition mean
is the degree-q Taylor expansion; process noise enters through the q-fold
integrated Brownian motion with variance scale sigma2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .filtering import GaussianBelief, ProjectionPair, TransitionModel

# Diagonal jitter on the (otherwise deterministic) initial covariance; keeps
# the matrix nonsingular for downstream factorizations.
INIT_JITTER = 1e-12


@dataclass(frozen=True)
class TaylorParams:
    """q: number of modeled derivatives (>= 1); sigma2: Brownian-motion variance scale."""

    q: int
    sigma2: float

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 1:
            raise ContractViolation(f"q must be an integer >= 1, got {self.q}")
        if not 0 < self.sigma2 < math.inf:
            raise ContractViolation(f"sigma2 must be finite and > 0, got {self.sigma2}")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "sigma2", float(self.sigma2))


def ibm_transition(h: float, params: TaylorParams) -> TransitionModel:
    """Discrete transition of the q-times integrated Brownian motion over step h.

    With 0-based indices i, j in {0, ..., q}:

        A[i, j] = h^(j-i) / (j-i)!          for i <= j, else 0
        Q[i, j] = sigma2 * h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!)
    """
    if not 0 < h < math.inf:
        raise ContractViolation(f"step size h must be finite and > 0, got {h}")
    q = params.q
    D = q + 1
    A = np.zeros((D, D))
    Q = np.zeros((D, D))
    for i in range(D):
        for j in range(i, D):
            A[i, j] = h ** (j - i) / math.factorial(j - i)
    for i in range(D):
        for j in range(i, D):
            p = 2 * q + 1 - i - j
            base = h**p / (p * math.factorial(q - i) * math.factorial(q - j))
            Q[i, j] = params.sigma2 * base
            Q[j, i] = Q[i, j]
    return TransitionModel(A, Q)


def taylor_projections(q: int) -> ProjectionPair:
    """Value and derivative selectors for the stacked-derivative state."""
    if int(q) != q or q < 1:
        raise ContractViolation(f"q must be an integer >= 1, got {q}")
    H0 = np.zeros(q + 1)
    H0[0] = 1.0
    H = np.zeros(q + 1)
    H[1] = 1.0
    return ProjectionPair(H0, H)


def taylor_init(x0: float, dx0: float, q: int) -> GaussianBelief:
    """Initial belief pinning x(0) = x0 and x'(0) = dx0; higher derivatives zero.

    The covariance is INIT_JITTER * I rather than exactly zero.
    """
    if int(q) != q or q < 1:
        raise ContractViolation(f"q must be an integer >= 1, got {q}")
    mean = np.zeros(q + 1)
    mean[0] = x0
    mean[1] = dx0
    cov = INIT_JITTER * np.eye(q + 1)
    return GaussianBelief(mean, cov)
