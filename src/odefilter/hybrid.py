"""Hybrid Taylor-Fourier solver.

Filters the ODE with the Taylor state space model on [0, T_p] while training
a Fourier belief on the Taylor output, then extrapolates on (T_p, T] by pure
prediction along the Fourier rotation dynamics. The extrapolation needs no
further vector-field evaluations.

Training runs as a post-pass over the finished Taylor trajectory. With the
default every-point policy this is algebraically identical to interleaving
the training with the Taylor filter, since the Fourier updates never feed
back into the Taylor solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .filtering import GaussianBelief, _predict, _update
from .fourier import FourierParams, fourier_init, fourier_projections, fourier_transition
from .solver import IVProblem, PhaseSegment, Trajectory, _n_steps, solve, taylor_state_space
from .taylor import TaylorParams

POLICY_KINDS = ("values_all", "values_stride", "values_and_derivatives")
NOISE_KINDS = ("fixed_jitter", "taylor_variance")


@dataclass(frozen=True)
class TrainPolicy:
    """Which Taylor grid points feed the Fourier training, and with what data.

    values_all: observe the value at every grid point (the default; reduces
    to recursive least squares on the Fourier coefficients).
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
        if self.jitter < 0:
            raise ContractViolation(f"jitter must be >= 0, got {self.jitter}")


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
        if self.T_p <= 0:
            raise ContractViolation(f"prediction time T_p must be > 0, got {self.T_p}")
        if self.h <= 0:
            raise ContractViolation(f"step size h must be > 0, got {self.h}")
        if self.R < 0:
            raise ContractViolation(f"measurement noise R must be >= 0, got {self.R}")
        _n_steps(self.T_p, self.h)


def _selected_steps(n: int, policy: TrainPolicy) -> range:
    if policy.kind == "values_stride":
        return range(policy.stride, n + 1, policy.stride)
    return range(0, n + 1)


def train_fourier(
    prior: GaussianBelief,
    taylor_traj: Trajectory,
    coordinate: int,
    params: FourierParams,
    policy: TrainPolicy | None = None,
    noise: TrainNoise | None = None,
) -> GaussianBelief:
    """Filter the Fourier belief over the Taylor trajectory of one coordinate.

    Starting from ``prior`` at t = 0, alternates Fourier predict steps with
    updates at the selected grid points: the Taylor posterior value estimate
    observed through the Fourier value row (plus, under the
    values_and_derivatives policy, the Taylor derivative estimate through
    the Fourier derivative row). Returns the belief at the trajectory's
    final time.
    """
    if prior.dim != params.dim:
        raise ContractViolation(f"prior dimension {prior.dim} != Fourier dimension {params.dim}")
    policy = policy or TrainPolicy()
    noise = noise or TrainNoise()
    n = len(taylor_traj) - 1
    selected = set(_selected_steps(n, policy))
    with_derivatives = policy.kind == "values_and_derivatives"

    trans = fourier_transition(taylor_traj.h, params) if n > 0 else None
    proj_four = fourier_projections(params)

    m, P = prior.mean, prior.cov
    k = 0
    for seg in taylor_traj.segments:
        proj_tay = seg.projections
        for mean, cov in zip(seg.means[:, coordinate], seg.covs):
            if k > 0:
                m, P = _predict(m, P, trans.A, trans.Q)
            if k in selected:
                r = _train_noise_variance(noise, cov, proj_tay.H0)
                m, P = _update(m, P, proj_four.H0, r, float(proj_tay.H0 @ mean))
                if with_derivatives:
                    dr = _train_noise_variance(noise, cov, proj_tay.H)
                    m, P = _update(m, P, proj_four.H, dr, float(proj_tay.H @ mean))
            k += 1
    return GaussianBelief(m, P)


def _train_noise_variance(noise: TrainNoise, cov: np.ndarray, row: np.ndarray) -> float:
    if noise.kind == "taylor_variance":
        return max(float(row @ cov @ row), 0.0)
    return noise.jitter


def predict_forward(
    belief: GaussianBelief,
    params: FourierParams,
    h: float,
    t_p: float,
    t_end: float,
) -> list[tuple[float, GaussianBelief]]:
    """Pure Fourier prediction from t_p to t_end; no vector-field evaluations.

    Returns the round((t_end - t_p)/h) beliefs at t_p + h, ..., t_end. The
    dynamics are a rotation with zero diffusion, so covariance eigenvalues
    are invariant along the segment.
    """
    if belief.dim != params.dim:
        raise ContractViolation(f"belief dimension {belief.dim} != Fourier dimension {params.dim}")
    if t_end <= t_p:
        raise ContractViolation(f"t_end={t_end} must exceed t_p={t_p}")
    n = _n_steps(t_end - t_p, h)
    trans = fourier_transition(h, params)
    mean, cov = belief.mean, belief.cov
    out = []
    for m in range(1, n + 1):
        mean, cov = _predict(mean, cov, trans.A, trans.Q)
        out.append((t_p + m * h, GaussianBelief(mean, cov)))
    return out


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
    _n_steps(ivp.T - config.T_p, config.h)

    taylor_traj = solve(
        taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p
    )

    prior = fourier_init(config.fourier)
    trained = [
        train_fourier(prior, taylor_traj, i, config.fourier, config.train_policy, config.train_noise)
        for i in range(ivp.dim)
    ]

    # The trained covariances are equal across coordinates: the training
    # noise depends only on the shared Taylor covariance.
    forward = [
        predict_forward(trained[i], config.fourier, config.h, config.T_p, ivp.T)
        for i in range(ivp.dim)
    ]
    tail = PhaseSegment(
        "fourier",
        fourier_projections(config.fourier),
        np.array([t for t, _ in forward[0]]),
        np.array([[b.mean for _, b in seg] for seg in forward]).transpose(1, 0, 2),
        np.array([b.cov for _, b in forward[0]]),
    )
    return Trajectory(taylor_traj.segments + (tail,), h=config.h, problem=ivp.name)
