"""Benchmark initial value problems and a classical reference oracle.

The two oscillator benchmarks (Van der Pol, FitzHugh-Nagumo) are joined by
three synthetic problems (linear decay, constant, cosine forcing) used for
convergence and Fourier-training checks. ``rk4_reference`` provides the
ground-truth trajectories the filters are judged against.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np

from .errors import ContractViolation, DivergedSolveError
from .filtering import ProjectionPair
from .solver import IVProblem, PhaseSegment, Trajectory, _n_steps

REFERENCE_PHASE = "reference"


def vdp(mu: float = 5.0) -> IVProblem:
    """Van der Pol oscillator in Lienard form, d(x1)/dt = mu(x1 - x1^3/3 - x2)."""
    if mu == 0:
        raise ContractViolation("vdp requires mu != 0")

    def field(x: np.ndarray, t: float) -> np.ndarray:
        x1, x2 = x
        return np.array([mu * (x1 - x1**3 / 3.0 - x2), x1 / mu])

    return IVProblem(field=field, x0=np.array([1.0, -1.0]), T=50.0, name="vdp")


def fhn(
    I: float = 0.5,
    a: float = 0.7,
    b: float = 0.8,
    tau: float = 10.0,
    standard: bool = False,
) -> IVProblem:
    """FitzHugh-Nagumo model.

    The recovery equation is (x1 + a - x2)/tau, which leaves b unused;
    ``standard=True`` switches to the textbook (x1 + a - b*x2)/tau form.
    """
    if tau == 0:
        raise ContractViolation("fhn requires tau != 0")
    b_eff = b if standard else 1.0

    def field(x: np.ndarray, t: float) -> np.ndarray:
        x1, x2 = x
        return np.array([x1 - x1**3 / 3.0 - x2 + I, (x1 + a - b_eff * x2) / tau])

    return IVProblem(field=field, x0=np.array([1.0, 0.1]), T=50.0, name="fhn")


def linear(x0: float = 1.0, T: float = 2.0) -> IVProblem:
    """Linear decay dx/dt = -x; exact solution x0 * exp(-t)."""

    def field(x: np.ndarray, t: float) -> np.ndarray:
        return -x

    return IVProblem(field=field, x0=np.array([x0]), T=T, name="linear")


def constant(c: float = 1.0, T: float = 2.0) -> IVProblem:
    """Zero field; the solution stays at c."""

    def field(x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros(1)

    return IVProblem(field=field, x0=np.array([c]), T=T, name="constant")


def cosine(T: float = 6 * math.pi) -> IVProblem:
    """Time-forced problem dx/dt = -sin(t), x(0) = 1; exact solution cos(t)."""

    def field(x: np.ndarray, t: float) -> np.ndarray:
        return np.array([-math.sin(t)])

    return IVProblem(field=field, x0=np.array([1.0]), T=T, name="cosine")


REGISTRY = {"vdp": vdp, "fhn": fhn, "linear": linear, "constant": constant, "cosine": cosine}


def by_name(name: str, T: float | None = None, **params) -> IVProblem:
    """Build a registered problem from the parameters its factory takes.

    Unknown problem or parameter names fail loudly; the factory's own
    signature is the one list of both the names and their defaults.
    """
    if name not in REGISTRY:
        raise ContractViolation(
            f"unknown problem {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    factory = REGISTRY[name]
    unknown = set(params) - set(inspect.signature(factory).parameters)
    if unknown:
        raise ContractViolation(f"problem {name!r} does not accept {sorted(unknown)}")
    ivp = factory(**params)
    if T is not None:
        ivp = replace(ivp, T=float(T))
    return ivp


def rk4_reference(ivp: IVProblem, h_ref: float, h_out: float | None = None) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta trajectory on a uniform grid.

    Integrates with internal step h_ref but records only every h_out (default
    h_ref), which keeps long high-resolution references affordable. Callers
    judging a filter run at step h should use h_ref <= h/10. Records carry
    [value, derivative] means with zero covariance under the phase tag
    ``reference``.
    """
    if not 0 < h_ref < math.inf:
        raise ContractViolation(f"h_ref must be finite and > 0, got {h_ref}")
    if h_out is None:
        h_out = h_ref
    substeps = h_out / h_ref
    substeps_round = round(substeps) if math.isfinite(substeps) else 0
    if substeps_round < 1 or abs(substeps - substeps_round) > 1e-9 * max(1.0, substeps):
        raise ContractViolation(f"h_out={h_out} must be an integer multiple of h_ref={h_ref}")
    n_out = _n_steps(ivp.T, h_out)

    f = ivp.field
    means = np.empty((n_out + 1, ivp.dim, 2))

    def record(k: int, t: float, x: np.ndarray):
        if not np.all(np.isfinite(x)):
            raise DivergedSolveError(f"reference state non-finite at t={t:g}", t=t)
        means[k, :, 0] = x
        means[k, :, 1] = f(x, t)

    x = ivp.x0.copy()
    record(0, 0.0, x)
    half = 0.5 * h_ref
    sixth = h_ref / 6.0
    for k in range(1, n_out + 1):
        base = (k - 1) * substeps_round
        for s in range(substeps_round):
            t = (base + s) * h_ref
            k1 = f(x, t)
            k2 = f(x + half * k1, t + half)
            k3 = f(x + half * k2, t + half)
            k4 = f(x + h_ref * k3, t + h_ref)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(k, k * h_out, x)

    projections = ProjectionPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    segment = PhaseSegment(
        REFERENCE_PHASE,
        projections,
        np.arange(n_out + 1) * h_out,
        means,
        np.zeros((n_out + 1, 2, 2)),
    )
    return Trajectory((segment,), h=h_out, problem=ivp.name)
