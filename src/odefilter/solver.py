"""Gaussian ODE filter loop.

Treats an IVP as a state estimation problem: at every grid point the state
is predicted along the prior dynamics, the vector field is evaluated once at
the assembled predicted mean, and each coordinate's mean is updated with its
component of that evaluation as a derivative measurement.

Every coordinate shares the prior dynamics, the measurement row and the
initial covariance, so the covariance and gain recursion does not depend on
the data: one covariance per step serves all coordinates, next to one mean
per coordinate. Only the vector-field evaluation couples the means.

A solve is therefore two recursions. ``_covariance_schedule`` takes no
field: it applies the predict map and each step's gain map (see
``filtering._cov_map``) to the covariance alone until the gain settles,
which under the Taylor prior takes a few dozen steps; ``_affine_scan``
fills the rest with powers of the frozen map, the two composed, by plain
doubling: one batched product per doubling, whose temporaries peak below
twice the covariance stack's bytes. It hands on one ``(K, S)`` per step up
to the freeze, the gain and innovation variance of ``filtering._joseph`` (K
is None on a passthrough), and the frozen entry holds for every later step.
Then the mean recursion runs ``m <- A m``, ``z = f(H0 m, t)`` and
``m <- m + (z - H m) K_k`` per step; it alone evaluates the field, and
sees no covariance: a passthrough's S comes with its step. Every field
output it reads is checked where it is called, an array field's by
``_read_output`` and a float form's by ``_checked``, with the outcomes of
the README's field-contract table.

The mean recursion has two kernels, which take the same steps. A two-slot
state (the q=1 Taylor prior, the J=0 Fourier prior) of two coordinates, as
the paper's oscillators have, runs ``_pair_mean_loop`` on four local
floats, which skips numpy's per-call cost on 2x2 arrays; every other shape
runs ``_array_mean_loop`` on numpy arrays. On the package's two-slot priors
both give the same means bit for bit. The pair kernel reads a registered
problem's float form ``field.rhs`` once per solve and hands it its two
floats, ``_checked(rhs(t, x1, x2), 2, t)`` at every step; any other field
gets them in the step's row of one float64 buffer, and the kernel reads a
finite float64 pair back itself and any other output through
``_read_output``.

Past the freeze each step of the mean recursion is one fixed linear map and
one field call. The array kernel keeps its means slot-major, in one buffer
of shape (n+1, D, d) whose block S at a step holds one coordinate's state
per column, and returns them as its transposed view (n+1, d, D), not a
copy. Up to the freeze, and for two-slot states throughout, it runs the
step form through the transposed view, with every field output read by
``_field_at``, so those means are the full recursion's bit for bit. For
states of three or more slots it then leaves that loop for a second one
over the frozen steps alone, which takes each step as one product
``W = B S``, whose rows hold the predicted means ``A m``, ``H A m`` and, as
a contiguous row, the field input ``H0 A m``. It calls the field itself and
reads a finite float64 vector of d values inline, as the pair kernel reads
its pair, and any other output through ``_read_output``; the innovation
overwrites ``H A m`` in place, and one more product writes the update, in
innovation form, straight into the step's block of the buffer.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, DivergedSolveError, _finite_nonnegative, _finite_positive
from .filtering import (
    ProjectionPair,
    TransitionModel,
    _cov_map,
    _dot,
    _gain_map,
    _gain_update,
    _joseph,
    _passthrough,
)

# Relative tolerance of the grid rule, ``_same_grid_point``: the one place that reads it.
GRID_TOL = 1e-9
# Two consecutive gains that agree entry by entry to this relative tolerance
# (about 45 float64 ulps) count as settled: the gain is frozen from then on.
GAIN_SETTLED_RTOL = 1e-14
# numpy has one float64 dtype object, so the field output readers test it with ``is``.
FLOAT64 = np.dtype(float)

VectorField = Callable[[np.ndarray, float], np.ndarray]


def _reals(a) -> np.ndarray | None:
    """a as a flat float64 array if numpy reads it as bool, int or float
    values, else None: a float conversion would read the string "0.5" as a
    number, and a ragged sequence, None or a complex number are no reals."""
    try:
        real = np.asarray(a)
    except ValueError:  # a ragged sequence
        return None
    return real.astype(float, copy=False).reshape(-1) if real.dtype.kind in "biuf" else None


@dataclass(frozen=True)
class StateSpaceModel:
    """Pluggable prior: transition builder, projections and initial belief.

    ``init(ivp)`` returns the initial means ``M`` (d, D), one row per
    coordinate of the problem, and the covariance ``P`` (D, D) they all
    share; ``solve`` calls it once. It is the one part of the prior that
    sees the problem.
    """

    transition_builder: Callable[[float], TransitionModel]
    projections: ProjectionPair
    init: Callable[[IVProblem], tuple[np.ndarray, np.ndarray]]
    label: str


@dataclass(frozen=True)
class IVProblem:
    """Initial value problem dx/dt = field(x, t), x(0) = x0, on [0, T].

    A field that says how many coordinates it takes, as ``field.dim`` (a
    registered problem's does; None takes any), gets an x0 of that size.
    """

    field: VectorField
    x0: np.ndarray
    T: float
    name: str

    def __post_init__(self):
        x0 = _reals(self.x0)
        if x0 is None:
            raise ContractViolation(f"initial value x0 must hold real numbers, got {self.x0!r}")
        object.__setattr__(self, "x0", x0)
        if not (self.x0.size and np.isfinite(self.x0).all()):
            raise ContractViolation(f"initial value x0 must be non-empty and finite, got {self.x0}")
        dim = getattr(self.field, "dim", None)
        if dim not in (None, self.x0.size):
            raise ContractViolation(f"{self.name} takes an x0 of size {dim}, got {self.x0.size}")
        object.__setattr__(self, "T", _finite_positive(self.T, "time horizon T"))

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
    """Time-ordered solver output on a uniform grid.

    The grid points are stored as a sequence of phase segments; the
    accessors below concatenate them.
    """

    segments: tuple[PhaseSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if len({s.means.shape[1] for s in self.segments}) != 1:
            raise ContractViolation("segments must share one coordinate count")
        t = self.times()
        step = t[1] - t[0] if len(t) > 1 else 1.0
        if not (step > 0 and np.all(_same_grid_point(t, t[:1] + np.arange(len(t)) * step, step))):
            raise ContractViolation("record times must increase by one uniform step")

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


def _field_at(field: VectorField, m: np.ndarray, t: float, floats: bool = False):
    """The array field's output at (m, t), read by ``_read_output``."""
    return _read_output(field(m, t), m.size, t, floats)


def _read_output(z, size: int, t: float, floats: bool = False):
    """An array field's output z at t as a float64 vector, or with ``floats``
    as the list of its floats, once it meets the field contract of the README's
    table: size components, all real numbers, all finite.

    It reads the output as ``IVProblem`` reads x0, so only bool, int and float
    values count. A registered problem's float form is checked where it is
    called, by ``_checked``.
    """
    if not (type(z) is np.ndarray and z.dtype is FLOAT64 and z.ndim == 1):
        if (real := _reals(z)) is None:
            raise ContractViolation(f"vector field returned no real numbers at t={t:g}: {z!r:.60}")
        z = real
    values = z.tolist()
    if z.size != size or not math.isfinite(sum(values)):
        _checked(values, size, t)  # raises unless only the sum overflowed
    return values if floats else z


def _checked(values: list, size: int, t: float) -> list:
    """values, once they are size field components and all finite real numbers."""
    try:
        if len(values) != size:
            raise ContractViolation(
                f"vector field returned {len(values)} components for a {size}-dimensional state"
            )
        # a float sum from 0.0 is finite only if every term converts to a float and is finite,
        # huge ints that cancel included; one that overflows gets the exact check. A numpy
        # complex term makes the sum one, which math.isfinite would cut to its real part
        if type(total := sum(values, 0.0)) is not float and isinstance(total, np.complexfloating):
            raise TypeError
        if not (math.isfinite(total) or all(map(math.isfinite, values))):
            raise DivergedSolveError(f"vector field returned non-finite value at t={t:g}", t=t)
    except (TypeError, OverflowError):  # no sequence, or a str, None, complex or huge int in it
        raise ContractViolation(f"vector field returned no real numbers at t={t:g}") from None
    return values


def _same_grid_point(a, b, h):
    """The grid rule: times a and b (floats or arrays) on a grid of step h are
    one grid point when they differ by at most GRID_TOL times the larger of
    |a|, |b| and h. Every grid check calls it."""
    return np.abs(a - b) <= GRID_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), h)


def _n_steps(span: float, h: float) -> int:
    """The number of steps of h in span: a whole number >= 1 by the grid rule, in units of h."""
    n = span / _finite_positive(h, "step size h")
    n_round = round(n) if np.isfinite(n) else 0
    if n_round < 1 or not _same_grid_point(n, float(n_round), 1.0):
        raise ContractViolation(f"{span:g}/{h:g} = {n!r} is not an integer number of steps")
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

    The initial means (d, D) and their shared covariance come from one call
    of ``ssm.init(ivp)``; the Taylor init makes the solve's one field
    evaluation at t = 0, the Fourier init none. ``solve`` checks that they
    fit the transition and projections, are finite, and that the covariance
    is exactly symmetric.

    The covariances and one ``(K, S)`` per step up to the gain freeze come
    from ``_covariance_schedule`` before any mean moves; the frozen entry is
    repeated for the remaining steps. The mean kernel that follows, on floats
    or on arrays by the state and problem size, evaluates the field and
    updates the means with those gains. A passthrough step (K is None: no
    finite S > 0, see ``filtering._joseph``) moves no mean and raises
    SingularUpdateError, with the step, t and its S, unless every innovation
    vanishes.
    """
    _finite_nonnegative(R, "measurement noise R")
    t_end = ivp.T if t_end is None else _finite_positive(t_end, "t_end")
    n = _n_steps(t_end, h)
    if t_end > ivp.T and not _same_grid_point(t_end, ivp.T, h):
        raise ContractViolation(f"t_end={t_end} exceeds problem horizon T={ivp.T}")

    trans, proj = ssm.transition_builder(h), ssm.projections
    M, P = (np.asarray(a, dtype=float) for a in ssm.init(ivp))
    D = trans.dim
    if not (proj.dim == D and M.shape == (ivp.dim, D) and P.shape == (D, D)):
        raise ContractViolation(
            f"transition dimension {D}, projection dimension {proj.dim}, init means "
            f"{M.shape} and init covariance {P.shape} disagree for {ivp.dim} coordinates"
        )
    if not (np.isfinite(M).all() and np.isfinite(P).all()):
        raise ContractViolation("init means and covariance must be finite")
    if not np.array_equal(P, P.T):
        raise ContractViolation("init covariance must be exactly symmetric")
    A, H0, H = trans.A, proj.H0, proj.H
    covs, steps = _covariance_schedule(P, A, trans.Q, H, R, n)
    steps += [steps[-1]] * (n - len(steps))  # the frozen (K, S) holds past the freeze
    loop = _pair_mean_loop if D == 2 and ivp.dim == 2 else _array_mean_loop
    means = loop(ivp.field, M, A, H0, H, h, steps)
    segment = PhaseSegment(ssm.label, proj, np.arange(n + 1) * h, means, covs)
    return Trajectory((segment,))


def _array_mean_loop(field, M, A, H0, H, h, steps):
    """The means (n+1, d, D) of a solve from M (d, D), on numpy arrays.

    Step k predicts ``m <- A m``, evaluates ``z = f(H0 m, k h)`` and updates
    ``m <- m + (z - H m) K`` with the k-th ``(K, S)`` of steps, one per step;
    a None K is a passthrough, which hands its S to ``_passthrough``.

    The means live in one slot-major buffer ``slots`` (n+1, D, d), whose
    column j at step k is coordinate j's state; the returned means are its
    transposed view, not a copy. Steps up to the freeze, and every step of a
    two-slot state, take the step form, written through the transposed view,
    so those means are the full recursion's bit for bit, and on two
    coordinates ``_pair_mean_loop``'s. Its field inputs are fresh arrays.

    At the first step whose ``(K, S)`` is the previous step's object, a
    state of three or more slots leaves that loop for the frozen loop, which
    walks the remaining blocks of ``slots`` and takes each step as one
    product ``W = B S`` of the previous step's block S with
    ``B = [A; H A; H0 A]`` ((D+2, D)): its rows are the predicted means
    ``A m``, ``H A m`` and, last, the field input ``x = H0 A m``, a
    contiguous row of a fresh W that no later step writes, so the field may
    keep or overwrite it. The loop calls the field itself: an output that is
    a float64 array of shape (d,) is read inline, with one test that its sum
    is finite, and any other output, and a non-finite sum, goes to
    ``_read_output``, so every outcome is ``_field_at``'s. The innovation
    ``z - H A m`` is written over row D in place, and ``E W[:D+1]`` with
    ``E = [I_D | K]``, built once from the frozen gain, writes the update
    ``A m + (z - H A m) K`` straight into the step's block of ``slots``. The
    update stays in innovation form: the composed map ``(I - K H) A m + K z``
    adds two large terms whose sum carries the small innovation, and loses
    too many of its bits on the top derivatives. Row x stays out of that
    product, since the field may overwrite its input. These means sum in
    another order than the step form's, so they differ from it by rounding
    alone.
    """
    D = len(A)
    slots = np.empty((len(steps) + 1, D, len(M)))
    means = slots.transpose(0, 2, 1)
    means[0], last = M, None
    for k, step in enumerate(steps, 1):
        if step is last and D > 2:  # past the freeze: the frozen loop below takes the rest
            break
        t, (K, S) = k * h, step
        M = (A @ M[..., None])[..., 0]  # predict: A m per coordinate
        z = _field_at(field, _dot(M, H0), t)
        if K is None:
            _passthrough(M, H, z, S, step=k, t=t)
        else:
            M = _gain_update(M, H, z, K)
        means[k], last = M, step
    else:
        return means
    # K is the frozen gain: steps k-1 and k share one (K, S)
    B, E = np.vstack([A, H @ A, H0 @ A]), np.column_stack([np.eye(D), K])
    d, ndarray, isfinite = len(M), np.ndarray, math.isfinite  # looked up once, not at every step
    for k, prev, cur in zip(range(k, len(steps) + 1), slots[k - 1 :], slots[k:]):
        W = B @ prev
        x, nu = W[-1], W[D]
        z = field(x, t := k * h)
        if not (type(z) is ndarray and z.dtype is FLOAT64 and z.shape == (d,)):
            z = _read_output(z, d, t)
        elif not isfinite(sum(z.tolist())):  # a non-finite value, or a finite sum that overflows
            _read_output(z, d, t)
        np.subtract(z, nu, out=nu)
        np.matmul(E, W[:-1], out=cur)
    return means


def _pair_mean_loop(field, M, A, H0, H, h, steps):
    """``_array_mean_loop`` for a two-slot state of two coordinates, on
    Python floats.

    The slots of the coordinates are four local floats, ``(p0, p1)`` and
    ``(q0, q1)``, and every product and sum is written in numpy's order:
    ``a00 p0 + a01 p1`` to predict, ``0.0 + p0 g0 + p1 g1`` for the H0 and H
    rows (numpy's sums start from +0.0), and ``p + nu k`` to update, with the
    same ``(K, S)`` steps. Numpy fuses a mat-vec's first product into its
    sum, which Python floats cannot; in both built-in two-slot priors that
    product is exact (A is [[1, h], [0, 1]] or the identity), so the means
    are the array kernel's bit for bit. The two floats go to a registered
    problem's float form ``field.rhs``, read once, whose every output passes
    ``_checked``. Any other field gets them in row k-1 of one (n, 2) float64
    buffer at step k: no later step writes that row, so the field may keep or
    overwrite it. An output that is a float64 array of shape (2,) is read
    inline, with one test that its sum is finite; any other output goes to
    ``_read_output`` first, as ``_field_at``'s does, and a non-finite sum
    after the read, so every outcome is ``_field_at``'s. The means of every
    step go to one flat buffer of doubles, which becomes the output array
    without a copy.
    """
    (a00, a01), (a10, a11) = A.tolist()
    (c0, c1), (e0, e1) = H0.tolist(), H.tolist()
    rhs, last = getattr(field, "rhs", None), None  # the float form, or None for an array field
    inputs = None if rhs else np.empty((len(steps), 2))  # row k-1 is step k's field input
    ndarray, isfinite = np.ndarray, math.isfinite  # looked up once, not at every step
    (p0, p1), (q0, q1) = M.tolist()
    flat = array("d", (p0, p1, q0, q1))
    for k, (K, S) in enumerate(steps, 1):
        t = k * h
        p0, p1 = a00 * p0 + a01 * p1, a10 * p0 + a11 * p1
        q0, q1 = a00 * q0 + a01 * q1, a10 * q0 + a11 * q1
        x1, x2 = 0.0 + p0 * c0 + p1 * c1, 0.0 + q0 * c0 + q1 * c1
        if rhs:
            z1, z2 = _checked(rhs(t, x1, x2), 2, t)
        else:
            x = inputs[k - 1]
            x[0], x[1] = x1, x2
            z = field(x, t)
            if not (type(z) is ndarray and z.dtype is FLOAT64 and z.shape == (2,)):
                z = _read_output(z, 2, t)
            z1, z2 = z.tolist()
            if not isfinite(z1 + z2):  # a non-finite value, or a finite sum that overflows
                _read_output(z, 2, t)
        if K is None:
            _passthrough(np.array(((p0, p1), (q0, q1))), H, [z1, z2], S, step=k, t=t)
        else:
            if K is not last:  # past the freeze every step gets the same gain object
                (k0, k1), last = K.tolist(), K
            nu = z1 - (0.0 + p0 * e0 + p1 * e1)
            p0, p1 = p0 + nu * k0, p1 + nu * k1
            nu = z2 - (0.0 + q0 * e0 + q1 * e1)
            q0, q1 = q0 + nu * k0, q1 + nu * k1
        flat.extend((p0, p1, q0, q1))
    return np.frombuffer(flat).reshape(len(steps) + 1, 2, 2)


def _covariance_schedule(P0, A, Q, H, R, n):
    """Covariances (n+1, D, D) of an n-step solve from P0, and its steps: one
    ``(K, S)`` per step up to and including the freeze at step s.

    Runs predict and Joseph update on the covariance alone, which never sees
    the data, until two consecutive gains agree entry by entry to
    GAIN_SETTLED_RTOL at step s. Each entry is the gain and innovation
    variance of ``_joseph``; a passthrough's K is None, and it neither settles
    nor is settled on. The frozen entry, steps[s-1], holds for every later
    step, whose covariances follow the frozen map, predict composed with the
    gain map: ``F = (I - K H) A``, ``G = (I - K H) Q (I - K H)^T + R K K^T``,
    filled by ``_affine_scan``. A gain that never settles gives s = n.
    """
    covs = np.empty((n + 1,) + P0.shape)
    covs[0] = P0
    steps, K = [], None
    for k in range(1, n + 1):
        last = K  # step k-1's gain, None after a passthrough or before step 1
        covs[k], K, S = _joseph(_cov_map(covs[k - 1], A, Q), H, R)  # predict, then update
        steps.append((K, S))
        if K is None or last is None:  # no two consecutive gains to compare
            continue
        if np.all(np.abs(K - last) <= GAIN_SETTLED_RTOL * np.abs(K)):
            IKH, RKK = _gain_map(K, H, R)
            _affine_scan(covs[k:], IKH @ A, _cov_map(Q, IKH, RKK))
            return covs, steps
    return covs, steps


def _affine_scan(covs: np.ndarray, F: np.ndarray, G: np.ndarray) -> None:
    """Fill covs[1:] in place with ``P[j+1] = F P[j] F^T + G`` from covs[0].

    L steps of the map are the map ``(F^L, C_L)``, and composing it with
    itself gives ``(F^2L, F^L C_L F^LT + C_L)``. Each pass maps the first L
    entries to the next min(L, len(covs) - L) in one batched product, then
    doubles L. A pass's temporaries scale with the stack: on a 5000-long q=2
    stack their peak is 1.23x the stack's bytes. Past L = 256 the decaying
    entries of F^L can reach the subnormal range, which slows those passes.
    """
    L, FL, CL = 1, F, G
    while L < len(covs):
        covs[L : 2 * L] = _cov_map(covs[: min(L, len(covs) - L)], FL, CL)
        L, FL, CL = 2 * L, FL @ FL, _cov_map(CL, FL, CL)
