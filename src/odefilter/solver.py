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
fills the rest with powers of the frozen map, the two composed. Then the
mean recursion runs ``m <- A m``, ``z = f(H0 m, t)`` and
``m <- m + (z - H m) K_k`` per step; it alone evaluates the field, and only
through ``_field_at``.

The mean recursion has two kernels, which take the same covariances and
gains. A two-slot state (the q=1 Taylor prior, the J=0 Fourier prior) of at
most FLOAT_LOOP_MAX_DIM coordinates runs ``_float_mean_loop`` on Python
floats, which skips numpy's per-call cost on 2x2 arrays; every other shape
runs ``_array_mean_loop`` on numpy buffers made once per solve. On the
package's two-slot priors both give the same means bit for bit. Larger
states stay on numpy: its small mat-vecs fuse multiply-adds, which Python
floats cannot reproduce.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
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
# Covariances the affine scan past the freeze maps in one batched product.
SCAN_BLOCK = 256
# The most coordinates whose two-slot means run on Python floats
# (``_float_mean_loop``). Their cost per step grows faster with the
# coordinate count than numpy's: on a q=1 solve of a linear field the float
# loop is 2.4x as fast at 1 coordinate, 1-7 % faster at 10 and level at 11-12.
FLOAT_LOOP_MAX_DIM = 10

VectorField = Callable[[np.ndarray, float], np.ndarray]


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
    """Initial value problem dx/dt = field(x, t), x(0) = x0, on [0, T]."""

    field: VectorField
    x0: np.ndarray
    T: float
    name: str

    def __post_init__(self):
        x0 = np.asarray(self.x0)
        # bool, int or float: a float conversion would read the string "0.5" as a number
        if x0.dtype.kind not in "biuf":
            raise ContractViolation(f"initial value x0 must hold real numbers, got {self.x0!r}")
        object.__setattr__(self, "x0", np.asarray(x0, dtype=float).reshape(-1))
        if not (self.x0.size and np.isfinite(self.x0).all()):
            raise ContractViolation(f"initial value x0 must be non-empty and finite, got {self.x0}")
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


def _field_at(field: VectorField, m: np.ndarray, t: float) -> np.ndarray:
    z = np.asarray(field(m, t), dtype=float).reshape(-1)
    if z.size != m.size:
        raise ContractViolation(
            f"vector field returned {z.size} components for a {m.size}-dimensional state"
        )
    if not all(map(math.isfinite, z.tolist())):
        raise DivergedSolveError(f"vector field returned non-finite value at t={t:g}", t=t)
    return z


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

    The covariances and gains come from ``_covariance_schedule`` before any
    mean moves; the mean kernel that follows, on floats or on arrays by the
    state and problem size, evaluates the field and updates the means with
    those gains. A passthrough step (no finite S > 0, see
    ``filtering._joseph``) moves no mean and raises SingularUpdateError,
    with the step and t, unless every innovation vanishes.
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
    covs, gains = _covariance_schedule(P, A, trans.Q, H, R, n)
    # Step k uses gains[k-1], the last gain holds past them, and a NaN row is a passthrough.
    Ks = chain((None if np.isnan(K[0]) else K for K in gains), repeat(gains[-1], n - len(gains)))
    loop = _float_mean_loop if D == 2 and ivp.dim <= FLOAT_LOOP_MAX_DIM else _array_mean_loop
    means = loop(ivp.field, M, A, H0, H, R, h, covs, Ks)
    segment = PhaseSegment(ssm.label, proj, np.arange(n + 1) * h, means, covs)
    return Trajectory((segment,))


def _array_mean_loop(field, M, A, H0, H, R, h, covs, Ks):
    """The means (n+1, d, D) of a solve from M (d, D), on numpy arrays.

    Step k predicts ``m <- A m``, evaluates ``z = f(H0 m, k h)`` and updates
    ``m <- m + (z - H m) K`` with the k-th gain of Ks; a None gain is a
    passthrough, checked against covs[k]. The loop makes no array
    temporaries per step: it predicts straight into its row of the output
    means and updates it there, through views and scratch buffers made once
    per solve. It makes the same kernel calls in the same order as a loop
    that allocates every intermediate, so its output is the same bit for bit.
    """
    n, (d, D) = len(covs) - 1, M.shape
    means = np.empty((n + 1, d, D))
    means[0] = M
    # The field gets inputs[k - 1], a row of its own, so it may keep or
    # overwrite its input without touching the means or a later input.
    columns, rows = means[..., None], means[..., None, :]
    projected = np.empty((n, d, 1))
    inputs, hm, step = projected[..., 0], np.empty((d, 1)), np.empty((d, D))
    for k, K in enumerate(Ks, 1):
        t = k * h
        np.matmul(A, columns[k - 1], columns[k])  # the mean half of _predict
        M, row = means[k], rows[k]
        np.matmul(row, H0, projected[k - 1])  # _dot(M, H0), into the field's input
        z = _field_at(field, inputs[k - 1], t)
        if K is None:  # covs[k] is then the predicted covariance, so this is its S
            _passthrough(M, H, z, float(H @ (covs[k] @ H)) + R, step=k, t=t)
        else:
            _gain_update(M, H, z, K, out=M, rows=row, hm=hm, step=step)
    return means


def _float_mean_loop(field, M, A, H0, H, R, h, covs, Ks):
    """``_array_mean_loop`` for a two-slot state, on Python floats.

    Each coordinate is a pair ``(m0, m1)``, and every product and sum is
    written in numpy's order: ``a00 m0 + a01 m1`` to predict, ``0.0 + m0 g0
    + m1 g1`` for the H0 and H rows (numpy's sums start from +0.0), and
    ``m + nu k`` to update. Numpy fuses a mat-vec's first product into its
    sum, which Python floats cannot; in both built-in two-slot priors that
    product is exact (A is [[1, h], [0, 1]] or the identity), so the means
    are the array loop's bit for bit. The field gets a fresh array per step;
    the means of every step go to one flat buffer of doubles, which becomes
    the output array without a copy.
    """
    (a00, a01), (a10, a11) = A.tolist()
    (c0, c1), (e0, e1) = H0.tolist(), H.tolist()
    flat = array("d", M.ravel().tolist())
    pairs, last = list(zip(flat[0::2], flat[1::2])), None
    for k, K in enumerate(Ks, 1):
        t = k * h
        pairs = [(a00 * m0 + a01 * m1, a10 * m0 + a11 * m1) for m0, m1 in pairs]
        z = _field_at(field, np.array([0.0 + m0 * c0 + m1 * c1 for m0, m1 in pairs]), t)
        if K is None:  # covs[k] is then the predicted covariance, so this is its S
            _passthrough(np.array(pairs), H, z, float(H @ (covs[k] @ H)) + R, step=k, t=t)
        else:
            if K is not last:  # past the freeze every step gets the same gain object
                (k0, k1), last = K.tolist(), K
            updated = []
            for (m0, m1), zi in zip(pairs, z.tolist()):
                nu = zi - (0.0 + m0 * e0 + m1 * e1)
                updated.append((m0 + nu * k0, m1 + nu * k1))
            pairs = updated
        flat.extend(chain.from_iterable(pairs))
    return np.frombuffer(flat).reshape((len(covs),) + M.shape)


def _covariance_schedule(P0, A, Q, H, R, n):
    """Covariances (n+1, D, D) and gains (s, D) of an n-step solve from P0.

    Runs predict and Joseph update on the covariance alone, which never sees
    the data, until two consecutive gains agree entry by entry to
    GAIN_SETTLED_RTOL at step s. A passthrough (see ``_joseph``) has no gain,
    never counts, and leaves a NaN row; no real gain holds a NaN. Step
    k <= s uses gains[k-1]; the last gain holds for every later step, whose
    covariances follow the frozen map, predict composed with the gain map:
    ``F = (I - K H) A``, ``G = (I - K H) Q (I - K H)^T + R K K^T``, filled
    by ``_affine_scan``. A gain that never settles gives s = n.
    """
    covs = np.empty((n + 1,) + P0.shape)
    gains = np.full((n, len(H)), np.nan)
    covs[0] = P = P0
    for k in range(1, n + 1):
        P, K, _ = _joseph(_cov_map(P, A, Q), H, R)  # the covariance half of _predict
        covs[k] = P
        if K is None:
            continue
        gains[k - 1] = K
        # the NaN row of a passthrough agrees with no gain, so it never counts
        if k > 1 and np.all(np.abs(K - gains[k - 2]) <= GAIN_SETTLED_RTOL * np.abs(K)):
            IKH, RKK = _gain_map(K, H, R)
            _affine_scan(covs[k:], IKH @ A, _cov_map(Q, IKH, RKK))
            return covs, gains[:k].copy()
    return covs, gains


def _affine_scan(covs: np.ndarray, F: np.ndarray, G: np.ndarray) -> None:
    """Fill covs[1:] in place with ``P[j+1] = F P[j] F^T + G`` from covs[0].

    L steps of the map are the map ``(F^L, C_L)``, and composing it with
    itself gives ``(F^2L, F^L C_L F^LT + C_L)``. Each pass maps the L entries
    before covs[j] to the next min(L, len(covs) - j) in one batched product,
    then doubles L while it is below SCAN_BLOCK, the most one product holds.
    """
    L, FL, CL, j = 1, F, G, 1
    while j < len(covs):
        m = min(L, len(covs) - j)
        covs[j : j + m] = _cov_map(covs[j - L : j - L + m], FL, CL)
        j += m
        if L < SCAN_BLOCK:
            L, FL, CL = 2 * L, FL @ FL, _cov_map(CL, FL, CL)
