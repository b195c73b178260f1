"""Linear-Gaussian predict and update primitives.

The maths lives once, in array kernels. ``_predict`` takes means with a
leading coordinate axis, ``(d, D)``, next to one covariance ``(D, D)``
shared by all coordinates, and also accepts a single mean ``(D,)``. The
update is split in two: ``_joseph`` conditions the covariance alone and
yields the gain, which never depends on the data; ``_gain_update`` moves the
means with that gain. Each coordinate's mean is multiplied on its own, as a
lone vector would be, so batching changes no bits. Each covariance step is
one map, ``_cov_map``: predict with ``(A, Q)``, update with ``_gain_map``.

``solve`` runs these kernels, not the wrappers below: its
``_covariance_schedule`` steps the shared covariance through ``_cov_map``
and ``_joseph``, and its mean kernels move the means with the gains that
yields. ``predict`` and ``update`` are the per-belief API on one
``GaussianBelief``, kept for ``benchmark/tracing.py`` and for their own
tests in ``tests/test_per_belief_api.py``: ``predict`` pushes a belief
through a linear transition with additive noise, ``update`` conditions it
on a scalar measurement. Both are pure functions; beliefs are never
mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, SingularUpdateError, _finite_nonnegative, _is_finite

# Innovations at or below this magnitude are treated as exactly zero when the
# innovation variance vanishes (deterministic perfect measurement).
ZERO_INNOVATION_TOL = 1e-12


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _dot(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v @ m`` for every vector m along M's last axis, summed as a lone dot would be."""
    return (M[..., None, :] @ v)[..., 0]


def _cov_map(P: np.ndarray, F: np.ndarray, G) -> np.ndarray:
    """``F P F^T + G``, exactly symmetric; P or F may be a stack, giving one result per matrix."""
    return _symmetrize(F @ P @ F.swapaxes(-1, -2) + G)


def _gain_map(K: np.ndarray, h: np.ndarray, R: float):
    """``(I - K h, R K K^T)``: the Joseph update with gain K as a ``_cov_map``."""
    col = K[:, None]  # col * row is np.outer's product, without its call overhead
    return np.eye(len(K)) - col * h, R * (col * K)


def _predict(M: np.ndarray, P: np.ndarray, A: np.ndarray, Q: np.ndarray):
    """Means ``A m`` per coordinate and the shared covariance ``A P A^T + Q``.

    A may also be a stack of transitions, giving one result per transition.
    """
    return (A @ M[..., None])[..., 0], _cov_map(P, A, Q)


def _gain_update(M: np.ndarray, h: np.ndarray, z, K: np.ndarray) -> np.ndarray:
    """Means ``m + (z - h m) K`` per coordinate, for the gain K of ``_joseph``."""
    return M + (z - _dot(M, h))[..., None] * K


def _joseph(P: np.ndarray, h: np.ndarray, R: float):
    """Joseph-form update of the covariance P on a scalar ``z ~ N(h x, R)``.

    Returns the covariance, the gain and the innovation variance S. An S
    that is not a finite positive number (zero or below, or NaN or inf from
    a covariance beyond float range) is a passthrough: P stays as it is and
    the gain is None, so no gain returned holds a NaN.
    """
    Ph = P @ h
    S = float(h @ Ph) + R
    if not 0.0 < S < np.inf:
        return P, None, S
    K = Ph / S
    return _cov_map(P, *_gain_map(K, h, R)), K, S


def _passthrough(M: np.ndarray, h: np.ndarray, z, S: float, step=None, t=None) -> None:
    """A passthrough (see ``_joseph``) accepts only innovations ``z - h m`` that all vanish.

    A solve passes the step and its time t, which the error then carries.
    """
    worst = float(np.max(np.abs(z - _dot(M, h))))
    if not worst <= ZERO_INNOVATION_TOL:  # a NaN innovation fails it too
        where = "" if step is None else f" at step {step} (t={t:g})"
        msg = f"singular update: innovation variance S={S:g} with innovation {worst:g}{where}"
        raise SingularUpdateError(msg, step=step, t=t)


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
        object.__setattr__(self, "R", _finite_nonnegative(self.R, "measurement noise R"))


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
    ``SingularUpdateError`` is raised. A NaN or infinite innovation
    variance, which only a covariance beyond float range yields, is treated
    the same way. A z that is not a finite number is a ``ContractViolation``.
    """
    if meas.H.size != belief.dim:
        raise ContractViolation(
            f"measurement dimension {meas.H.size} does not match belief dimension {belief.dim}"
        )
    if not _is_finite(z):
        raise ContractViolation(f"measurement z={z} must be a finite number")
    cov, K, S = _joseph(belief.cov, meas.H, meas.R)
    if K is None:
        _passthrough(belief.mean, meas.H, float(z), S)
        return belief
    return GaussianBelief(_gain_update(belief.mean, meas.H, float(z), K), cov)
