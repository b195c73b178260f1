"""Hybrid Taylor-Fourier solver.

Filters the ODE with the Taylor state space model on [0, T_p], trains a
Fourier belief on the Taylor output, then extrapolates on (T_p, T] along the
Fourier rotation dynamics. The extrapolation needs no further vector-field
evaluations.

The Fourier model has zero diffusion, so both phases have closed forms.
Training is one Bayesian linear regression of the Fourier state on the
rows H0 A(t_k - t_0), solved once by least squares for all coordinates,
since the rows and the noise are shared. Extrapolation to T_p + tau is the
rotation A(tau) of the trained belief.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation, _finite_nonnegative, _finite_positive, _integer_at_least, _is_finite
)
from .filtering import GaussianBelief, _cov_map, _dot, _symmetrize
from .fourier import (
    FourierParams, _check_angles, _fourier_prior, _rotated_row, _rotation, fourier_projections
)
from .solver import IVProblem, PhaseSegment, Trajectory, _n_steps, solve
from .taylor import TaylorParams, taylor_state_space

POLICY_KINDS = ("values_all", "values_stride", "values_and_derivatives")
NOISE_KINDS = ("fixed_jitter", "taylor_variance")


@dataclass(frozen=True)
class TrainPolicy:
    """Which Taylor grid points feed the Fourier training, and with what data.

    values_all: observe the value at every grid point (the default; training
    is then a least-squares fit of the Fourier coefficients to the values).
    values_stride: observe the value at every stride-th step (indices
    stride, 2*stride, ...; an over-long stride selects nothing).
    values_and_derivatives: values everywhere plus the Taylor derivative
    estimate routed through the Fourier derivative row.
    """

    kind: str = "values_all"
    stride: int = 1

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ContractViolation(f"unknown train policy {self.kind!r}")
        if self.kind == "values_stride":
            object.__setattr__(self, "stride", _integer_at_least(self.stride, 1, "stride"))


@dataclass(frozen=True)
class TrainNoise:
    """Observation noise used when feeding Taylor output into the Fourier model.

    fixed_jitter: constant variance ``jitter`` (default 1e-10).
    taylor_variance: the Taylor posterior variance of the observed quantity,
    propagating solver uncertainty into the training; ``jitter`` is unused
    and unchecked.
    """

    kind: str = "fixed_jitter"
    jitter: float = 1e-10

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ContractViolation(f"unknown train noise {self.kind!r}")
        if self.kind == "fixed_jitter":
            _finite_positive(self.jitter, "jitter")


@dataclass(frozen=True)
class HybridConfig:
    """Settings of one ``hybrid_solve``: the two priors, the switch time and the grid.

    ``T_p`` is finite, > 0 and a whole number of steps of ``h`` (the grid
    rule of ``solver._n_steps``); ``R`` is finite and >= 0. At ``R = 0`` every
    Taylor derivative variance past t = 0 is exactly 0, so the
    ``values_and_derivatives`` policy cannot train with ``taylor_variance``
    noise. ``hybrid_solve`` adds ``T_p < T`` and that ``T - T_p`` is a whole
    number of steps, for the problem it is given.
    """

    taylor: TaylorParams
    fourier: FourierParams
    T_p: float
    h: float
    R: float = 0.0
    train_policy: TrainPolicy = field(default_factory=TrainPolicy)
    train_noise: TrainNoise = field(default_factory=TrainNoise)

    def __post_init__(self):
        _finite_positive(self.T_p, "prediction time T_p")
        _finite_nonnegative(self.R, "measurement noise R")
        _n_steps(self.T_p, self.h)
        # at R = 0 every Taylor derivative variance past t = 0 is exactly 0
        kinds = (self.train_policy.kind, self.train_noise.kind)
        if self.R == 0 and kinds == ("values_and_derivatives", "taylor_variance"):
            raise ContractViolation(f"train_policy {kinds[0]}, train_noise {kinds[1]} need R > 0")


def _train(m0, P0, traj, params, policy, noise):
    """Fourier posterior means (d, D) and shared covariance at the trajectory's last time.

    Every coordinate starts from the prior N(m0, P0) of the state x at the
    trajectory's first time t_0. The state at grid time t_k is
    A(t_k - t_0) x, so training regresses x on rows H0 A(t_k - t_0) (and
    H A(t_k - t_0)) shared by all coordinates. With the prior x = m0 + L0 u, u ~ N(0, I),
    one Householder QR of the whitened system [I, 0; w rows L0, w (z - rows
    m0)] gives the posterior of u (square-root information form) for all
    coordinates at once; it is then rotated to the last time.
    """
    if len(m0) != params.dim:
        raise ContractViolation(f"prior dimension {len(m0)} != Fourier dimension {params.dim}")
    t = traj.times()
    stride = policy.stride if policy.kind == "values_stride" else None
    steps = slice(stride, None, stride)  # values_stride: stride, 2*stride, ...
    tau = t[steps] - t[0]
    proj = fourier_projections(params)
    rows, z, var = [], [], []
    for kind in ("H0", "H") if policy.kind == "values_and_derivatives" else ("H0",):
        seg_rows = [(s, getattr(s.projections, kind)) for s in traj.segments]
        rows.append(_rotated_row(params, getattr(proj, kind), tau))
        z.append(np.concatenate([_dot(s.means, row) for s, row in seg_rows])[steps])
        if noise.kind == "taylor_variance":
            var.append(np.concatenate([s.covs @ row @ row for s, row in seg_rows])[steps])
    rows, z = np.concatenate(rows), np.concatenate(z)
    var = np.concatenate(var) if var else np.full(len(rows), noise.jitter)
    if np.any(var <= 0.0):  # a fixed jitter is > 0
        bad = np.flatnonzero(var <= 0.0)[0]
        t_bad = t[steps][bad % len(tau)]
        raise ContractViolation(f"taylor_variance: variance {var[bad]:g} at t={t_bad:g} is not > 0")

    D = params.dim
    lam, V = np.linalg.eigh(P0)
    L0 = V * np.sqrt(np.maximum(lam, 0.0))  # L0 L0^T = P0, also when singular
    w = 1.0 / np.sqrt(var)[:, None]
    whitened = np.hstack((w * (rows @ L0), w * (z - (rows @ m0)[:, None])))
    R = np.linalg.qr(np.vstack((np.eye(D, whitened.shape[1]), whitened)), mode="r")
    A_end = _rotation(params, t[-1] - t[0])
    M = (m0[:, None] + L0 @ np.linalg.solve(R[:D, :D], R[:D, D:])).T @ A_end.T
    S = A_end @ np.linalg.solve(R[:D, :D].T, L0.T).T  # A_end L0 R^-1
    return M, _symmetrize(S @ S.T)


def _extrapolate(M, P, params, h, t0, t_end) -> PhaseSegment:
    """The ``fourier`` segment on (t0, t_end]: the belief (M, P) at t0 rotated
    by tau_m = m*h, m = 1..n for the n steps of h from t0 to t_end, which
    gives the means A(tau_m) M and the covariances A(tau_m) P A(tau_m)^T."""
    tau = np.arange(1, _n_steps(t_end - t0, h) + 1) * h
    A = _rotation(params, tau)
    means, covs = (A[:, None] @ M[..., None])[..., 0], _cov_map(P, A, 0.0)
    return PhaseSegment("fourier", fourier_projections(params), t0 + tau, means, covs)


def train_fourier(
    prior: GaussianBelief,
    taylor_traj: Trajectory,
    coordinate: int,
    params: FourierParams,
    policy: TrainPolicy | None = None,
    noise: TrainNoise | None = None,
) -> GaussianBelief:
    """Fourier belief of one coordinate at the Taylor trajectory's final time.

    ``prior`` sits at the trajectory's first time. The selected grid points
    contribute the Taylor value estimate through the Fourier value row (and,
    under values_and_derivatives, the derivative estimate through the
    derivative row). The result is the ``coordinate`` row of the one
    least-squares solve that ``hybrid_solve`` makes for all coordinates.
    """
    coordinate = _integer_at_least(coordinate, 0, "coordinate")
    if coordinate >= taylor_traj.dim:
        raise ContractViolation(
            f"coordinate {coordinate} outside the trajectory's {taylor_traj.dim} coordinates"
        )
    M, P = _train(
        prior.mean, prior.cov, taylor_traj, params, policy or TrainPolicy(), noise or TrainNoise()
    )
    return GaussianBelief(M[coordinate], P)


def predict_forward(
    belief: GaussianBelief,
    params: FourierParams,
    h: float,
    t_p: float,
    t_end: float,
) -> list[tuple[float, GaussianBelief]]:
    """Pure Fourier prediction from t_p to t_end; no vector-field evaluations.

    Returns the beliefs at t_p + h, ..., t_end, one per whole step of h:
    the belief at t_p rotated by the distance from t_p. The dynamics have
    zero diffusion, so covariance eigenvalues are invariant along the segment.
    """
    if belief.dim != params.dim:
        raise ContractViolation(f"belief dimension {belief.dim} != Fourier dimension {params.dim}")
    if not (_is_finite(t_p) and _is_finite(t_end)):
        raise ContractViolation(f"t_p={t_p} and t_end={t_end} must be finite numbers")
    seg = _extrapolate(belief.mean[None], belief.cov, params, h, t_p, t_end)
    return list(zip(seg.t.tolist(), map(GaussianBelief, seg.means[:, 0], seg.covs)))


def hybrid_solve(config: HybridConfig, ivp: IVProblem) -> Trajectory:
    """Taylor-filter on [0, T_p], train the Fourier belief, predict to T.

    The returned trajectory concatenates the Taylor segment (phase
    ``taylor``) with the Fourier prediction segment on (T_p, T] (phase
    ``fourier``). The vector field is evaluated only during the Taylor
    phase: once at t = 0 for initialization and once per Taylor step.
    """
    if not config.T_p < ivp.T:
        raise ContractViolation(
            f"prediction time T_p={config.T_p} must lie strictly inside (0, T={ivp.T})"
        )
    # A bad grid or a rotation angle beyond float range fails before the Taylor
    # solve: _train rotates by up to T_p, _extrapolate by up to T - T_p.
    n_steps = max(_n_steps(config.T_p, config.h), _n_steps(ivp.T - config.T_p, config.h))
    _check_angles(config.fourier, n_steps * config.h)
    taylor_traj = solve(
        taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p
    )
    m0, P0 = _fourier_prior(config.fourier)
    M, P = _train(m0, P0, taylor_traj, config.fourier, config.train_policy, config.train_noise)
    tail = _extrapolate(M, P, config.fourier, config.h, config.T_p, ivp.T)
    return Trajectory(taylor_traj.segments + (tail,))
