"""Gaussian ODE filter loop.

Treats an IVP as a state estimation problem: at every grid point the state
is predicted along the prior dynamics, the vector field is evaluated once at
the assembled predicted mean, and each coordinate's mean is updated with its
component of that evaluation as a derivative measurement.

Every coordinate shares the prior dynamics, the measurement row and the
initial covariance, so the covariance and gain recursion does not depend on
the data: one covariance per step serves all coordinates, next to one mean
per coordinate. Only the vector-field evaluation couples the means.

That recursion settles: under the Taylor prior the gain stops moving within
a few dozen steps. Once it has, the gain is frozen, the remaining steps
update the means alone, and the remaining covariances follow the constant
affine map ``P <- F P F^T + G`` of the Joseph update with that gain, which
``_affine_scan`` fills in batched products instead of a per-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, DivergedSolveError, SingularUpdateError
from .filtering import (
    GaussianBelief,
    ProjectionPair,
    TransitionModel,
    _dot,
    _gain_update,
    _identity,
    _predict,
    _symmetrize,
    _update,
)
from .fourier import FourierParams, fourier_init, fourier_projections, fourier_transition
from .taylor import TaylorParams, ibm_transition, taylor_init, taylor_projections

# Tolerance for "t_end/h is an integer" grid checks.
GRID_TOL = 1e-9
# Two consecutive gains that agree entry by entry to this relative tolerance
# (about 45 float64 ulps) count as settled: the gain is frozen from then on.
GAIN_SETTLED_RTOL = 1e-14
# Covariances the affine scan past the freeze maps in one batched product.
SCAN_BLOCK = 256

VectorField = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class StateSpaceModel:
    """Pluggable prior: transition builder, projections, initial-belief builder."""

    transition_builder: Callable[[float], TransitionModel]
    projections: ProjectionPair
    init_builder: Callable[[float, float], GaussianBelief]
    label: str


def taylor_state_space(params: TaylorParams) -> StateSpaceModel:
    return StateSpaceModel(
        transition_builder=lambda h: ibm_transition(h, params),
        projections=taylor_projections(params.q),
        init_builder=lambda x0, dx0: taylor_init(x0, dx0, params.q),
        label="taylor",
    )


def fourier_state_space(params: FourierParams) -> StateSpaceModel:
    # The Fourier prior is zero-mean; the initial values enter only through
    # the measurements, so the init builder ignores them.
    return StateSpaceModel(
        transition_builder=lambda h: fourier_transition(h, params),
        projections=fourier_projections(params),
        init_builder=lambda x0, dx0: fourier_init(params),
        label="fourier",
    )


@dataclass(frozen=True)
class IVProblem:
    """Initial value problem dx/dt = field(x, t), x(0) = x0, on [0, T]."""

    field: VectorField
    x0: np.ndarray
    T: float
    name: str

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        if self.T <= 0:
            raise ContractViolation(f"time horizon T must be > 0, got {self.T}")

    @property
    def dim(self) -> int:
        return self.x0.size


@dataclass(frozen=True)
class PhaseSegment:
    """Consecutive grid points produced by one phase of a solve.

    ``t`` has shape (k,), ``means`` (k, d, D) with one state mean per
    coordinate, and ``covs`` (k, D, D) with the one covariance all
    coordinates share at each grid point. ``projections`` turns states of
    this phase back into values of x.
    """

    phase: str
    projections: ProjectionPair
    t: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        k, D = len(self.t), self.projections.dim
        if self.means.ndim != 3 or self.means.shape[0] != k or self.means.shape[2] != D:
            raise ContractViolation(f"means shape {self.means.shape} is not ({k}, d, {D})")
        if self.covs.shape != (k, D, D):
            raise ContractViolation(f"covs shape {self.covs.shape} is not ({k}, {D}, {D})")

    def value_means(self) -> np.ndarray:
        return _dot(self.means, self.projections.H0)

    def value_stds(self) -> np.ndarray:
        # `H0 @ covs` multiplies each covariance as a lone `H0 @ cov` would and
        # `_dot` sums like a lone dot, so these are the bits of
        # `sqrt(max(float(H0 @ cov @ H0), 0.0))`: the sums start from +0.0,
        # so no -0.0 reaches the clamp, and NaN passes both clamps.
        H0 = self.projections.H0
        var = _dot(H0 @ self.covs, H0)
        stds = np.sqrt(np.maximum(var, 0.0))
        return np.repeat(stds[:, None], self.means.shape[1], axis=1)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered solver output on a uniform grid of step h.

    The grid points are stored as a sequence of phase segments; the
    accessors below concatenate them.
    """

    segments: tuple[PhaseSegment, ...]
    h: float
    problem: str

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if len({s.means.shape[1] for s in self.segments}) != 1:
            raise ContractViolation("segments must share one coordinate count")
        ts = self.times()
        if len(ts) > 1 and not np.all(np.abs(np.diff(ts) - self.h) <= 1e-9):
            raise ContractViolation("record times must increase uniformly by h")

    def __len__(self) -> int:
        return sum(len(s.t) for s in self.segments)

    @property
    def dim(self) -> int:
        return self.segments[0].means.shape[1]

    def times(self) -> np.ndarray:
        return np.concatenate([s.t for s in self.segments])

    def phases(self) -> list[str]:
        return [s.phase for s in self.segments for _ in range(len(s.t))]

    def value_means(self) -> np.ndarray:
        """H0-projected means, shape (n_records, dim)."""
        return np.concatenate([s.value_means() for s in self.segments])

    def value_stds(self) -> np.ndarray:
        """sqrt(H0 P H0^T) per coordinate, shape (n_records, dim)."""
        return np.concatenate([s.value_stds() for s in self.segments])


def _field_at(field: VectorField, m: np.ndarray, t: float) -> np.ndarray:
    z = np.asarray(field(m, t), dtype=float).reshape(-1)
    if z.size != m.size:
        raise ContractViolation(
            f"vector field returned {z.size} components for a {m.size}-dimensional state"
        )
    if not np.isfinite(z).all():
        raise DivergedSolveError(f"vector field returned non-finite value at t={t:g}", t=t)
    return z


def _n_steps(t_end: float, h: float) -> int:
    n = t_end / h
    n_round = round(n)
    if n_round < 1 or abs(n - n_round) > GRID_TOL * max(1.0, abs(n)):
        raise ContractViolation(f"t_end/h = {n!r} is not an integer number of steps")
    return n_round


def solve(
    ssm: StateSpaceModel,
    ivp: IVProblem,
    h: float,
    R: float,
    t_end: float | None = None,
) -> Trajectory:
    """Run the Gaussian ODE filter on a uniform grid over [0, t_end].

    Per step, every coordinate is predicted along the prior dynamics, the
    field is evaluated once at the assembled predicted means, and every
    coordinate is updated with its component of that evaluation through the
    derivative row H with measurement noise R. Returns all round(t_end/h)+1
    records, including t = 0.

    Each step runs the full predict and Joseph update until two consecutive
    gains agree entry by entry to GAIN_SETTLED_RTOL; a passthrough update
    (S = 0) has no gain and never counts. From then on the gain K is
    frozen: a step is ``m <- A m``, one field evaluation z, and
    ``m <- m + (z - H m) K``, and the covariances past the freeze are the
    Joseph recursion with K, ``P <- F P F^T + G`` with ``F = (I - K H) A``
    and ``G = (I - K H) Q (I - K H)^T + R K K^T``, filled by ``_affine_scan``.
    A gain that never settles keeps the full update on every step.
    """
    if h <= 0:
        raise ContractViolation(f"step size h must be > 0, got {h}")
    if R < 0:
        raise ContractViolation(f"measurement noise R must be >= 0, got {R}")
    if t_end is None:
        t_end = ivp.T
    if t_end > ivp.T + GRID_TOL:
        raise ContractViolation(f"t_end={t_end} exceeds problem horizon T={ivp.T}")
    n = _n_steps(t_end, h)

    trans = ssm.transition_builder(h)
    proj = ssm.projections

    dx0 = _field_at(ivp.field, ivp.x0, 0.0)
    inits = [ssm.init_builder(ivp.x0[i], dx0[i]) for i in range(ivp.dim)]
    P = inits[0].cov
    if any(not np.array_equal(b.cov, P) for b in inits[1:]):
        raise ContractViolation("init_builder must return one covariance for every coordinate")
    if not trans.dim == proj.dim == P.shape[0]:
        raise ContractViolation(
            f"transition dimension {trans.dim}, projection dimension {proj.dim} and "
            f"belief dimension {P.shape[0]} differ"
        )
    M = np.array([b.mean for b in inits])
    means = np.empty((n + 1,) + M.shape)
    covs = np.empty((n + 1,) + P.shape)
    means[0], covs[0] = M, P

    A, H0, H = trans.A, proj.H0, proj.H
    settled, K_prev = n, None
    for k in range(1, n + 1):
        t = k * h
        M, P = _predict(M, P, A, trans.Q)
        z = _field_at(ivp.field, _dot(M, H0), t)
        try:
            M, P, K = _update(M, P, H, R, z)
        except SingularUpdateError as err:
            raise SingularUpdateError(f"{err} at step {k} (t={t:g})", step=k, t=t) from err
        means[k], covs[k] = M, P
        if _gain_settled(K, K_prev):
            settled = k
            break
        K_prev = K

    for k in range(settled + 1, n + 1):
        M = (A @ M[..., None])[..., 0]  # the mean half of _predict
        M = _gain_update(M, H, _field_at(ivp.field, _dot(M, H0), k * h), K)
        means[k] = M
    if settled < n:
        IKH = _identity(A.shape[0]) - K[:, None] * H
        G = _symmetrize(IKH @ trans.Q @ IKH.T + R * (K[:, None] * K))
        _affine_scan(covs[settled:], IKH @ A, G)

    segment = PhaseSegment(ssm.label, proj, np.arange(n + 1) * h, means, covs)
    return Trajectory((segment,), h=h, problem=ivp.name)


def _gain_settled(K: np.ndarray | None, K_prev: np.ndarray | None) -> bool:
    """Whether two consecutive real gains agree entry by entry to GAIN_SETTLED_RTOL."""
    if K is None or K_prev is None:
        return False
    return bool(np.all(np.abs(K - K_prev) <= GAIN_SETTLED_RTOL * np.abs(K)))


def _affine_scan(covs: np.ndarray, F: np.ndarray, G: np.ndarray) -> None:
    """Fill covs[1:] in place with ``P[j+1] = F P[j] F^T + G`` from covs[0].

    L steps of the map compose to ``P[j+L] = F^L P[j] F^LT + C_L`` with
    ``C_L = sum_{i<L} F^i G F^iT``, and ``C_2L = F^L C_L F^LT + C_L``. The
    first SCAN_BLOCK entries fill by doubling L; every later block of
    SCAN_BLOCK entries is the block before it mapped by one batched product.
    """
    n = len(covs)
    L, FL, CL = 1, F, G
    while L < min(n, SCAN_BLOCK):
        covs[L : 2 * L] = _symmetrize(FL @ covs[: min(L, n - L)] @ FL.T + CL)
        CL = _symmetrize(FL @ CL @ FL.T + CL)
        FL = FL @ FL
        L *= 2
    for j in range(L, n, L):
        m = min(L, n - j)
        covs[j : j + m] = _symmetrize(FL @ covs[j - L : j - L + m] @ FL.T + CL)
