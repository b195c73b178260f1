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

from .errors import ContractViolation
from .filtering import GaussianBelief, _dot, _predict, _symmetrize
from .fourier import FourierParams, _rotation, fourier_init, fourier_projections
from .solver import IVProblem, PhaseSegment, Trajectory, _n_steps, solve, taylor_state_space
from .taylor import TaylorParams

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
        if self.kind == "values_stride" and self.stride < 1:
            raise ContractViolation(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class TrainNoise:
    """Observation noise used when feeding Taylor output into the Fourier model.

    fixed_jitter: constant variance ``jitter`` (default 1e-10).
    taylor_variance: the Taylor posterior variance of the observed quantity,
    propagating solver uncertainty into the training.
    """

    kind: str = "fixed_jitter"
    jitter: float = 1e-10

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ContractViolation(f"unknown train noise {self.kind!r}")
        if not 0 < self.jitter < np.inf:
            raise ContractViolation(f"jitter must be finite and > 0, got {self.jitter}")


@dataclass(frozen=True)
class HybridConfig:
    taylor: TaylorParams
    fourier: FourierParams
    T_p: float
    h: float
    R: float = 0.0
    train_policy: TrainPolicy = field(default_factory=TrainPolicy)
    train_noise: TrainNoise = field(default_factory=TrainNoise)

    def __post_init__(self):
        if not 0 < self.T_p < np.inf:
            raise ContractViolation(f"prediction time T_p must be finite and > 0, got {self.T_p}")
        if not 0 < self.h < np.inf:
            raise ContractViolation(f"step size h must be finite and > 0, got {self.h}")
        if not 0 <= self.R < np.inf:
            raise ContractViolation(f"measurement noise R must be finite and >= 0, got {self.R}")
        _n_steps(self.T_p, self.h)


def _train(
    prior: GaussianBelief,
    traj: Trajectory,
    params: FourierParams,
    policy: TrainPolicy,
    noise: TrainNoise,
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier posterior means (d, D) and shared covariance at the trajectory's last time.

    The state at grid time t_k is A(t_k - t_0) x, so training regresses the
    state x at the first time on rows H0 A(t_k - t_0) (and H A(t_k - t_0))
    shared by all coordinates. With the prior x = m0 + L0 u, u ~ N(0, I),
    one Householder QR of the whitened system [I, 0; w rows L0, w (z - rows
    m0)] gives the posterior of u (square-root information form) for all
    coordinates at once; it is then rotated to the last time.
    """
    if prior.dim != params.dim:
        raise ContractViolation(f"prior dimension {prior.dim} != Fourier dimension {params.dim}")
    t = traj.times()
    stride = policy.stride if policy.kind == "values_stride" else None
    steps = slice(stride, None, stride)  # values_stride: stride, 2*stride, ...
    A = _rotation(params, t[steps] - t[0])
    proj = fourier_projections(params)
    rows, z, var = [], [], []
    for kind in ("H0", "H") if policy.kind == "values_and_derivatives" else ("H0",):
        seg_rows = [(s, getattr(s.projections, kind)) for s in traj.segments]
        rows.append(getattr(proj, kind) @ A)
        z.append(np.concatenate([_dot(s.means, row) for s, row in seg_rows])[steps])
        var.append(np.concatenate([s.covs @ row @ row for s, row in seg_rows])[steps])
    rows, z, var = np.concatenate(rows), np.concatenate(z), np.concatenate(var)
    if noise.kind == "fixed_jitter":
        var = np.full(len(rows), noise.jitter)
    elif np.any(var <= 0.0):
        bad = np.flatnonzero(var <= 0.0)[0]
        t_bad = t[steps][bad % len(A)]
        raise ContractViolation(f"taylor_variance: variance {var[bad]:g} at t={t_bad:g} is not > 0")

    D = params.dim
    lam, V = np.linalg.eigh(prior.cov)
    L0 = V * np.sqrt(np.maximum(lam, 0.0))  # L0 L0^T = prior.cov, also when singular
    w = 1.0 / np.sqrt(var)[:, None]
    whitened = np.hstack((w * (rows @ L0), w * (z - (rows @ prior.mean)[:, None])))
    R = np.linalg.qr(np.vstack((np.eye(D, whitened.shape[1]), whitened)), mode="r")
    A_end = _rotation(params, t[-1] - t[0])
    M = (prior.mean[:, None] + L0 @ np.linalg.solve(R[:D, :D], R[:D, D:])).T @ A_end.T
    S = A_end @ np.linalg.solve(R[:D, :D].T, L0.T).T  # A_end L0 R^-1
    return M, _symmetrize(S @ S.T)


def _extrapolate(M: np.ndarray, P: np.ndarray, params: FourierParams, h: float, n: int):
    """Means (n, d, D) and covariances (n, D, D) of the belief (M, P) rotated
    by tau_m = m*h, m = 1..n: A(tau_m) M and A(tau_m) P A(tau_m)^T."""
    means, covs = _predict(M, P, _rotation(params, np.arange(1, n + 1) * h)[:, None], 0.0)
    return means, covs[:, 0]


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
    if not 0 <= coordinate < taylor_traj.dim:
        raise ContractViolation(
            f"coordinate {coordinate} outside the trajectory's {taylor_traj.dim} coordinates"
        )
    M, P = _train(prior, taylor_traj, params, policy or TrainPolicy(), noise or TrainNoise())
    return GaussianBelief(M[coordinate], P)


def predict_forward(
    belief: GaussianBelief,
    params: FourierParams,
    h: float,
    t_p: float,
    t_end: float,
) -> list[tuple[float, GaussianBelief]]:
    """Pure Fourier prediction from t_p to t_end; no vector-field evaluations.

    Returns the round((t_end - t_p)/h) beliefs at t_p + h, ..., t_end: the
    belief at t_p rotated by the distance from t_p. The dynamics have zero
    diffusion, so covariance eigenvalues are invariant along the segment.
    """
    if belief.dim != params.dim:
        raise ContractViolation(f"belief dimension {belief.dim} != Fourier dimension {params.dim}")
    if t_end <= t_p:
        raise ContractViolation(f"t_end={t_end} must exceed t_p={t_p}")
    n = _n_steps(t_end - t_p, h)
    means, covs = _extrapolate(belief.mean[None], belief.cov, params, h, n)
    times = t_p + np.arange(1, n + 1) * h
    return list(zip(times.tolist(), map(GaussianBelief, means[:, 0], covs)))


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
    n = _n_steps(ivp.T - config.T_p, config.h)
    taylor_traj = solve(
        taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p
    )
    prior = fourier_init(config.fourier)
    M, P = _train(prior, taylor_traj, config.fourier, config.train_policy, config.train_noise)
    times = config.T_p + np.arange(1, n + 1) * config.h
    means, covs = _extrapolate(M, P, config.fourier, config.h, n)
    tail = PhaseSegment("fourier", fourier_projections(config.fourier), times, means, covs)
    return Trajectory(taylor_traj.segments + (tail,), h=config.h, problem=ivp.name)
