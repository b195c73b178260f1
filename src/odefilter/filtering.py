"""Linear-Gaussian predict and update primitives.

Every state space model in this package drives the same two operations:
``predict`` pushes a Gaussian belief through a linear transition with
additive noise, ``update`` conditions it on a scalar measurement. Both are
pure functions; beliefs are never mutated in place.

The maths lives once, in the array kernels ``_predict`` and ``_update``.
They take means with a leading coordinate axis, ``(d, D)``, next to one
covariance ``(D, D)`` shared by all coordinates, and also accept a single
mean ``(D,)``. Each coordinate's mean is multiplied on its own, as a lone
vector would be, so batching changes no bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolation, SingularUpdateError

# Innovations at or below this magnitude are treated as exactly zero when the
# innovation variance vanishes (deterministic perfect measurement).
ZERO_INNOVATION_TOL = 1e-12


@cache
def _identity(D: int) -> np.ndarray:
    """The D x D identity, built once per size and read-only."""
    eye = np.eye(D)
    eye.flags.writeable = False
    return eye


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _dot(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v @ m`` for every vector m along M's last axis, summed as a lone dot would be."""
    return (M[..., None, :] @ v)[..., 0]


def _predict(M: np.ndarray, P: np.ndarray, A: np.ndarray, Q: np.ndarray):
    """Means ``A m`` per coordinate and the shared covariance ``A P A^T + Q``.

    A may also be a stack of transitions, giving one result per transition.
    """
    return (A @ M[..., None])[..., 0], _symmetrize(A @ P @ A.swapaxes(-1, -2) + Q)


def _update(M: np.ndarray, P: np.ndarray, h: np.ndarray, R: float, z):
    """Joseph-form update of every mean in M on its own scalar ``z ~ N(h x, R)``.

    The gain depends only on the shared covariance, so it is computed once.
    A vanishing innovation variance passes only if every innovation vanishes.
    """
    Ph = P @ h
    S = float(h @ Ph) + R
    innovation = z - _dot(M, h)
    if S <= 0.0:
        worst = float(np.max(np.abs(innovation)))
        if worst <= ZERO_INNOVATION_TOL:
            return M, P
        raise SingularUpdateError(
            f"singular update: innovation variance S={S:g} with innovation {worst:g}"
        )
    K = Ph / S
    col = K[:, None]  # col * row is np.outer's product, without its call overhead
    IKH = _identity(P.shape[0]) - col * h
    cov = IKH @ P @ IKH.T + R * (col * K)
    return M + np.multiply.outer(innovation, K), _symmetrize(cov)


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state estimate: mean vector and (exactly symmetric) covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.ndim != 1:
            raise ContractViolation(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ContractViolation(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.array_equal(cov, cov.T):
            raise ContractViolation("cov must be exactly symmetric")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class TransitionModel:
    """Discrete dynamic model: next state ~ N(A x, Q)."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ContractViolation(f"A must be square, got shape {A.shape}")
        if Q.shape != A.shape:
            raise ContractViolation(f"Q shape {Q.shape} does not match A shape {A.shape}")
        if not np.array_equal(Q, Q.T):
            raise ContractViolation("Q must be exactly symmetric")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class MeasurementModel:
    """Scalar measurement model: z ~ N(H x, R) with H a row operator."""

    H: np.ndarray
    R: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float).reshape(-1)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", float(self.R))
        if self.R < 0:
            raise ContractViolation(f"measurement noise R must be >= 0, got {self.R}")


@dataclass(frozen=True)
class ProjectionPair:
    """Row operators extracting the modeled value (H0) and derivative (H)."""

    H0: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        H0 = np.asarray(self.H0, dtype=float).reshape(-1)
        H = np.asarray(self.H, dtype=float).reshape(-1)
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "H", H)
        if H0.size != H.size:
            raise ContractViolation("H0 and H must have equal length")

    @property
    def dim(self) -> int:
        return self.H0.size


def predict(belief: GaussianBelief, trans: TransitionModel) -> GaussianBelief:
    """Propagate a belief through the dynamic model: N(A m, A P A^T + Q)."""
    if trans.dim != belief.dim:
        raise ContractViolation(
            f"transition dimension {trans.dim} does not match belief dimension {belief.dim}"
        )
    return GaussianBelief(*_predict(belief.mean, belief.cov, trans.A, trans.Q))


def update(belief: GaussianBelief, meas: MeasurementModel, z: float) -> GaussianBelief:
    """Condition a belief on the scalar measurement z ~ N(H x, R).

    Uses the Joseph-form covariance update, which preserves symmetry and
    positive semidefiniteness. A vanishing innovation variance is accepted
    only when the innovation itself vanishes (deterministic perfect
    measurement, gain 0 by the pseudo-inverse convention); otherwise a
    ``SingularUpdateError`` is raised.
    """
    if meas.H.size != belief.dim:
        raise ContractViolation(
            f"measurement dimension {meas.H.size} does not match belief dimension {belief.dim}"
        )
    mean, cov = _update(belief.mean, belief.cov, meas.H, meas.R, float(z))
    return belief if cov is belief.cov else GaussianBelief(mean, cov)
