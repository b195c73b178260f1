"""Benchmark initial value problems and a classical reference oracle.

The two oscillator benchmarks (Van der Pol, FitzHugh-Nagumo) are joined by
three synthetic problems (linear decay, constant, cosine forcing) used for
convergence and Fourier-training checks. ``rk4_reference`` provides the
ground-truth trajectories the filters are judged against.

Each problem writes its vector field once, as float code
``rhs(t, *x) -> sequence of floats`` that takes the time and then one float
per coordinate; ``_array_field`` turns it into the array ``field`` of its
``IVProblem``, which carries the float form as ``field.rhs`` and the number
of coordinates it takes as ``field.dim`` (None for any). ``solve``'s array
kernel and the Taylor init call the array field; ``solve``'s pair kernel
calls ``rhs`` and checks every output with ``solver._checked``, and
``rk4_reference`` calls ``rhs`` directly, checking each record's state and
derivative. The README's field-contract table gives the outcome of each kind
of output at each of these call sites.

``rk4_reference`` runs its substeps in one of two kernels, picked from the
problem's coordinate count: ``_rk4_pairs`` holds a two-coordinate state (both
oscillators) as two floats, and ``_rk4_lists`` holds any other as a list.
Each runs the whole grid and yields the state at every record time; both
make the same field calls and give the same states bit for bit.
"""

from __future__ import annotations

import inspect
import math
from array import array
from dataclasses import replace
from itertools import chain, count, islice

import numpy as np

from .errors import ContractViolation, _finite_positive, _is_finite
from .filtering import ProjectionPair
from .solver import IVProblem, PhaseSegment, Trajectory, VectorField, _checked, _field_at, _n_steps

REFERENCE_PHASE = "reference"


def _array_field(rhs, dim: int | None = None) -> VectorField:
    """The array field of a float form ``rhs(t, *x) -> sequence of floats``:
    rhs of t and the input's floats, as an array.

    The field carries rhs as ``field.rhs``, which ``rk4_reference`` and the
    pair kernel of ``solve`` call, and as ``field.dim`` the number of
    coordinates rhs takes, which ``IVProblem`` holds x0 to; None takes any.
    """

    def field(x: np.ndarray, t: float) -> np.ndarray:
        z = rhs(t, *x.tolist())
        try:
            return np.array(z)
        except ValueError:  # a ragged sequence, which _field_at reads as no real numbers
            return z

    field.rhs, field.dim = rhs, dim
    return field


def vdp(mu: float = 5.0) -> IVProblem:
    """Van der Pol oscillator in Lienard form, d(x1)/dt = mu(x1 - x1^3/3 - x2).

    Its float form, as fhn's, cubes x1 as numpy does: where Python raises
    OverflowError, the cube is +-inf.
    """
    if not _is_finite(mu) or mu == 0:
        raise ContractViolation(f"vdp requires a finite mu != 0, got {mu}")

    def rhs(t: float, x1: float, x2: float) -> tuple:
        try:
            c = x1**3
        except OverflowError:
            c = math.copysign(math.inf, x1)
        return mu * (x1 - c / 3.0 - x2), x1 / mu

    return IVProblem(field=_array_field(rhs, 2), x0=[1.0, -1.0], T=50.0, name="vdp")


def fhn(I: float = 0.5, a: float = 0.7, b: float = 1.0, tau: float = 10.0) -> IVProblem:
    """FitzHugh-Nagumo model, d(x1)/dt = x1 - x1^3/3 - x2 + I, d(x2)/dt = (x1 + a - b*x2)/tau.

    The default b = 1 is the paper's printed form; b = 0.8 is the textbook one.
    """
    if not all(map(_is_finite, (I, a, b, tau))) or tau == 0:
        raise ContractViolation(f"fhn requires finite I, a, b and tau != 0, got {(I, a, b, tau)}")

    def rhs(t: float, x1: float, x2: float) -> tuple:
        try:
            c = x1**3
        except OverflowError:
            c = math.copysign(math.inf, x1)
        return x1 - c / 3.0 - x2 + I, (x1 + a - b * x2) / tau

    return IVProblem(field=_array_field(rhs, 2), x0=[1.0, 0.1], T=50.0, name="fhn")


def linear(x0: float = 1.0, T: float = 2.0) -> IVProblem:
    """Linear decay dx/dt = -x; exact solution x0 * exp(-t)."""

    def rhs(t: float, *x: float) -> list:
        return [-v for v in x]

    return IVProblem(field=_array_field(rhs), x0=[x0], T=T, name="linear")


def constant(c: float = 1.0, T: float = 2.0) -> IVProblem:
    """Zero field; the solution stays at c."""

    def rhs(t: float, *x: float) -> list:
        return [0.0] * len(x)

    return IVProblem(field=_array_field(rhs), x0=[c], T=T, name="constant")


def cosine(T: float = 20.0) -> IVProblem:
    """Time-forced problem dx/dt = -sin(t), x(0) = 1; exact solution cos(t)."""

    def rhs(t: float, x: float) -> tuple:
        return (-math.sin(t),)

    return IVProblem(field=_array_field(rhs, 1), x0=[1.0], T=T, name="cosine")


REGISTRY = {"vdp": vdp, "fhn": fhn, "linear": linear, "constant": constant, "cosine": cosine}


def by_name(name: str, T: float | None = None, **params) -> IVProblem:
    """Build a registered problem from the parameters its factory takes.

    Unknown problem or parameter names fail loudly; the factory's own
    signature is the one list of both the names and their defaults.
    """
    if name not in REGISTRY:
        raise ContractViolation(f"unknown problem {name!r}; known: {', '.join(sorted(REGISTRY))}")
    factory = REGISTRY[name]
    unknown = set(params) - set(inspect.signature(factory).parameters)
    if unknown:
        raise ContractViolation(f"problem {name!r} does not accept {sorted(unknown)}")
    ivp = factory(**params)
    return ivp if T is None else replace(ivp, T=T)


def rk4_reference(ivp: IVProblem, h_ref: float, h_out: float | None = None) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta trajectory on a uniform grid.

    Integrates with internal step h_ref but records only every h_out (default
    h_ref), which keeps long high-resolution references affordable. Callers
    judging a filter run at step h should use h_ref <= h/10. Records carry
    [value, derivative] means with zero covariance under the phase tag
    ``reference``.

    The field's outputs follow ``solve``'s contract, the README's field-contract
    table: each record's state and its one derivative call, t = 0 included,
    pass ``solver._checked``, and each stage of an array field, called through
    a wrapper of the float form's signature, passes ``_field_at``. A
    registered problem's float form ``rhs(t, *x)`` runs its stages, about 97 %
    of the calls, unchecked: a stage output that breaks the contract fails
    the arithmetic, unpack or strict zip after it, a ContractViolation that
    names the record whose substeps met it, or else that record's own check,
    which also reports a state that went non-finite as the field's output.

    The substeps run in ``_rk4_pairs`` when the problem has d == 2
    coordinates and in ``_rk4_lists`` otherwise, one generator over the
    whole grid that yields the state at each record time after t = 0. Both
    make four field calls per substep, each ``f(t, *x)`` on the state's
    floats, and the same float operations in the same order, so they give
    the same means bit for bit. Each record's checked state and derivative
    go to flat buffers of doubles that become the means.
    """
    _finite_positive(h_ref, "h_ref")
    h_out = h_ref if h_out is None else _finite_positive(h_out, "h_out")
    substeps = _n_steps(h_out, h_ref)
    n_out = _n_steps(ivp.T, h_out)

    # A registered problem's float form, or a wrapper that hands an array field
    # a fresh float64 array and holds every stage to its contract through _field_at.
    rhs = getattr(ivp.field, "rhs", None)
    f = rhs or (lambda t, *x: _field_at(ivp.field, np.array(x), t, floats=True))
    times = np.arange(n_out + 1) * h_out
    x0, values, derivatives = list(array("d", ivp.x0)), array("d"), array("d")
    # the state at t = 0, then after the substeps of each later record
    records = chain([x0], (_rk4_pairs if ivp.dim == 2 else _rk4_lists)(f, x0, substeps, h_ref))
    for t in map(float, times):
        try:
            x = next(records)
        # A float form's stage that returns a str, None or a huge int fails the arithmetic that
        # follows it, and one of the wrong length fails _rk4_pairs' unpack or _rk4_lists' strict
        # update zip; an array field's stages are checked in _field_at, so its own errors pass
        # unchanged.
        except (TypeError, OverflowError, ValueError) if rhs else () as err:
            what = err if isinstance(err, ValueError) else "no real numbers"
            raise ContractViolation(f"vector field returned {what} by t={t:g}") from err
        values.extend(_checked(x, ivp.dim, t))
        derivatives.extend(_checked(f(t, *x), ivp.dim, t))
    flat = np.stack([np.frombuffer(values), np.frombuffer(derivatives)], axis=-1)

    means, covs = flat.reshape(n_out + 1, ivp.dim, 2), np.zeros((n_out + 1, 2, 2))
    projections = ProjectionPair([1.0, 0.0], [0.0, 1.0])
    return Trajectory((PhaseSegment(REFERENCE_PHASE, projections, times, means, covs),))


# The substep kernels of ``rk4_reference``: RK4 of step h of the field
# ``f(t, *x)`` from the state x (a list of floats), substep s at time s*h from
# s = 0 on, yielding the state after every n substeps, without end. Float64
# arithmetic on a few numbers costs less in Python than in numpy ufunc calls,
# and rounds the same.


def _rk4_lists(f, x: list, n: int, h: float):
    """The kernel for any coordinate count: the state and stages are lists.
    The update zips them strictly, so a stage of the wrong length fails at
    the end of its substep, before it can change the state's length; the
    stage zips are not, as that costs a fifth of a substep at a few coordinates."""
    half, sixth = 0.5 * h, h / 6.0
    for start in count(0, n):
        for s in range(start, start + n):
            t = s * h
            k1 = f(t, *x)
            k2 = f(t + half, *[a + half * b for a, b in zip(x, k1)])
            k3 = f(t + half, *[a + half * b for a, b in zip(x, k2)])
            k4 = f(t + h, *[a + h * b for a, b in zip(x, k3)])
            x = [
                a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4, strict=True)
            ]
        yield x


def _rk4_pairs(f, x: list, n: int, h: float):
    """``_rk4_lists`` for two coordinates, held as two floats: the same
    calls, each ``f(t, x1, x2)`` with no list built, and the same operations
    in the same order, without the comprehensions and zips. The stage time
    t + half is computed once per substep."""
    half, sixth = 0.5 * h, h / 6.0
    x1, x2 = x
    for start in count(0, n):
        for s in range(start, start + n):
            t = s * h
            th = t + half
            a1, a2 = f(t, x1, x2)
            b1, b2 = f(th, x1 + half * a1, x2 + half * a2)
            c1, c2 = f(th, x1 + half * b1, x2 + half * b2)
            d1, d2 = f(t + h, x1 + h * c1, x2 + h * c2)
            x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        yield [x1, x2]
