"""Shared fixtures and independent oracles for the test suite.

The batch Gaussian conditioning and rotation helpers here are deliberately
written from scratch (information form, explicit trig) so they share no code
path with the filtering implementation they judge. The ``numpy_*`` and
``format_*`` functions are frozen copies of the straightforward numpy forms of
the RK4 reference, the benchmark fields and the CSV/SVG text, which the
faster package code must reproduce bit for bit; ``line_loop_parse_csv`` is a
frozen copy of the CSV parser that converts and checks one line at a time,
whose arrays and errors the one-pass parser must reproduce; ``doubling_affine_scan`` is a
frozen copy of the covariance scan written as a plain doubling loop, which the
scan must reproduce bit for bit, and
``loop_ibm_transition`` a frozen copy of the IBM transition written as two
double loops, which the closed form must reproduce bit for bit.
``single_loop_array_kernel`` is a frozen copy of the array mean kernel that
takes every step in one loop, a step past the freeze calling the field
through ``_field_at``, whose means the kernel's frozen loop must reproduce
bit for bit.
``joseph_update`` is no oracle: it strings the update kernels together, so
that a test can condition one mean and covariance on one measurement.
``CountingField`` wraps a vector field and counts its calls.
"""

import math

import numpy as np

from odefilter import ProjectionPair, Trajectory
from odefilter.cli import _MB, _ML, _MR, _MT, _SVG_H, _SVG_W, CsvData, _csv_header
from odefilter.errors import CsvFormatError
from odefilter.filtering import _dot, _gain_update, _joseph, _passthrough
from odefilter.solver import PhaseSegment, _field_at

PSD_RELATIVE_TOL = 1e-10


def assert_covariance_hygiene(cov: np.ndarray):
    """Exact covariance symmetry plus eigenvalues >= -1e-10 * largest magnitude."""
    assert np.array_equal(cov, cov.T), "covariance not exactly symmetric"
    eig = np.linalg.eigvalsh(cov)
    largest = float(np.max(np.abs(eig)))
    assert eig.min() >= -PSD_RELATIVE_TOL * largest, f"covariance not PSD: {eig}"


def assert_trajectory_hygiene(traj: Trajectory) -> int:
    """Checks every stored covariance (one per grid point, shared by all
    coordinates); returns how many were checked."""
    checked = 0
    for seg in traj.segments:
        for cov in seg.covs:
            assert_covariance_hygiene(cov)
        checked += len(seg.covs)
    return checked


class CountingField:
    """A vector field that counts its calls and keeps the largest t it was called at."""

    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.max_t = -math.inf

    def __call__(self, x, t):
        self.calls += 1
        self.max_t = max(self.max_t, t)
        return self.field(x, t)


def joseph_update(m, P, h, R, z):
    """The mean and covariance ``(m, P)`` conditioned on the scalar ``z ~ N(h x, R)``.

    ``_joseph`` conditions P and yields the gain; ``_gain_update`` then moves
    m, or, when there is no gain, ``_passthrough`` checks that the innovation
    vanishes and m and P come back as they are.
    """
    P, K, S = _joseph(P, h, R)
    if K is None:
        _passthrough(m, h, z, S)
        return m, P
    return _gain_update(m, h, z, K), P


def batch_gaussian_posterior(m0, P0, rows, zs, rvars):
    """Information-form posterior of N(m0, P0) given z_k = rows[k] @ x + N(0, rvars[k])."""
    m0 = np.asarray(m0, float)
    P0 = np.asarray(P0, float)
    lam = np.linalg.inv(P0)
    eta = lam @ m0
    for row, z, rv in zip(rows, zs, rvars):
        row = np.asarray(row, float)
        lam = lam + np.outer(row, row) / rv
        eta = eta + row * (z / rv)
    cov = np.linalg.inv(lam)
    return cov @ eta, cov


def extended_precision_ibm_filter(q: int, h: float, R: float, field, x0, n: int, jitter: float):
    """State means (n+1, d, q+1) of the IBM (sigma2 = 1) filter on derivative
    measurements, run in np.longdouble from the closed-form A and Q.

    Measures how far float64 rounding alone moves a filter's means; the
    initial covariance is jitter * I, as in the Taylor init.
    """
    ld = np.longdouble
    D = q + 1
    A = np.zeros((D, D), ld)
    Q = np.zeros((D, D), ld)
    for i in range(D):
        for j in range(i, D):
            A[i, j] = ld(h) ** (j - i) / math.factorial(j - i)
            p = 2 * q + 1 - i - j
            Q[i, j] = Q[j, i] = ld(h) ** p / (p * math.factorial(q - i) * math.factorial(q - j))
    x0 = np.asarray(x0, ld)
    M = np.zeros((x0.size, D), ld)
    M[:, 0], M[:, 1] = x0, field(x0, 0.0)
    P = ld(jitter) * np.eye(D, dtype=ld)
    means = [M]
    for k in range(1, n + 1):
        M, P = M @ A.T, A @ P @ A.T + Q
        K = P[:, 1] / (P[1, 1] + ld(R))
        M = M + np.outer(field(M[:, 0], k * h) - M[:, 1], K)
        IKH = np.eye(D, dtype=ld)
        IKH[:, 1] -= K
        P = IKH @ P @ IKH.T + ld(R) * np.outer(K, K)
        means.append(M)
    return np.array(means)


def rotation_matrix(J: int, w0: float, t: float) -> np.ndarray:
    """Block-diagonal oscillator rotation at time t, built with plain trig."""
    D = 2 * (J + 1)
    A = np.zeros((D, D))
    for j in range(J + 1):
        c, s = math.cos(w0 * j * t), math.sin(w0 * j * t)
        A[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    return A


def random_spd(rng, d: int, boost: float = 0.5) -> np.ndarray:
    raw = rng.normal(size=(d, d))
    m = raw @ raw.T + boost * np.eye(d)
    return 0.5 * (m + m.T)


def synthetic_taylor_trajectory(fun, dfun, h: float, n: int, var: float = 0.0) -> Trajectory:
    """One-coordinate trajectory whose means are [fun(t), dfun(t)], for training tests."""
    ts = [k * h for k in range(n + 1)]
    means = np.array([[[fun(t), dfun(t)]] for t in ts])
    covs = np.repeat(var * np.eye(2)[None], n + 1, axis=0)
    projections = ProjectionPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    segment = PhaseSegment("taylor", projections, np.array(ts), means, covs)
    return Trajectory((segment,))


def numpy_rk4_means(f, x0, h_ref: float, h_out: float, n_out: int) -> np.ndarray:
    """[value, derivative] means (n_out+1, d, 2) of RK4 on numpy arrays."""
    substeps = round(h_out / h_ref)
    means = np.empty((n_out + 1, len(x0), 2))
    x = np.array(x0, dtype=float)
    means[0, :, 0], means[0, :, 1] = x, f(x, 0.0)
    half = 0.5 * h_ref
    sixth = h_ref / 6.0
    for k in range(1, n_out + 1):
        base = (k - 1) * substeps
        for s in range(substeps):
            t = (base + s) * h_ref
            k1 = f(x, t)
            k2 = f(x + half * k1, t + half)
            k3 = f(x + half * k2, t + half)
            k4 = f(x + h_ref * k3, t + h_ref)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        means[k, :, 0], means[k, :, 1] = x, f(x, k * h_out)
    return means


def float_cube(v: float) -> float:
    """v**3 on a Python float, +-inf where Python raises OverflowError, as numpy gives."""
    try:
        return v**3
    except OverflowError:
        return math.copysign(math.inf, v)


def numpy_vdp_field(mu: float):
    def field(x, t):
        x1, x2 = x
        return np.array([mu * (x1 - x1**3 / 3.0 - x2), x1 / mu])

    return field


def numpy_fhn_field(I: float = 0.5, a: float = 0.7, b: float = 1.0, tau: float = 10.0):
    def field(x, t):
        x1, x2 = x
        return np.array([x1 - x1**3 / 3.0 - x2 + I, (x1 + a - b * x2) / tau])

    return field


def format_trajectory_csv(traj: Trajectory, reference: Trajectory | None = None) -> str:
    """The trajectory CSV, one ``format(x, ".17g")`` per cell."""
    d = traj.dim
    header = ["t"] + [f"mean_{i}" for i in range(d)] + [f"std_{i}" for i in range(d)]
    if reference is not None:
        header += [f"ref_{i}" for i in range(d)]
    header.append("phase")
    means, stds = traj.value_means(), traj.value_stds()
    refs = None if reference is None else reference.value_means()
    lines = [",".join(header)]
    for k, (t, phase) in enumerate(zip(traj.times(), traj.phases())):
        cells = [format(t, ".17g")]
        cells += [format(v, ".17g") for v in means[k]]
        cells += [format(v, ".17g") for v in stds[k]]
        if refs is not None:
            cells += [format(v, ".17g") for v in refs[k]]
        cells.append(phase)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def line_loop_parse_csv(text: str) -> CsvData:
    """The trajectory CSV parsed one line at a time, float() on each cell."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise CsvFormatError("empty file", line=1)
    header = lines[0].split(",")
    d = sum(1 for name in header if name.startswith("mean_"))
    has_ref = "ref_0" in header
    if d == 0 or header != _csv_header(d, has_ref):
        raise CsvFormatError(f"unexpected column layout {header!r}", line=1)

    n_cols = len(header)
    rows = []
    phases = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise CsvFormatError(f"expected {n_cols} columns, got {len(cells)}", line=lineno)
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError as err:
            raise CsvFormatError(str(err), line=lineno) from None
        phases.append(cells[-1])

    data = np.array(rows) if rows else np.empty((0, n_cols - 1))
    plotted = [i for i, name in enumerate(header[:-1]) if not name.startswith("std_")]
    bad = np.argwhere(~np.isfinite(data[:, plotted]))
    if bad.size:
        row, col = bad[0]
        raise CsvFormatError(f"non-finite {header[plotted[col]]} value", line=row + 2)
    return CsvData(
        t=data[:, 0],
        means=data[:, 1 : 1 + d],
        stds=data[:, 1 + d : 1 + 2 * d],
        refs=data[:, 1 + 2 * d : 1 + 3 * d] if has_ref else None,
        phases=phases,
    )


def format_polyline_points(data) -> list[str]:
    """The ``points`` of render_svg's polylines (refs, then means), one point at a time."""
    pw, ph = _SVG_W - _ML - _MR, _SVG_H - _MT - _MB
    series = [data.means[:, i] for i in range(data.dim)]
    if data.refs is not None:
        series = [data.refs[:, i] for i in range(data.dim)] + series
    tmin, tmax = float(data.t.min()), float(data.t.max())
    ymin = min(float(s.min()) for s in series)
    ymax = max(float(s.max()) for s in series)
    if tmax == tmin:
        tmax = tmin + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    def sx(t):
        return _ML + (t - tmin) / (tmax - tmin) * pw

    def sy(v):
        return _MT + (ymax - v) / (ymax - ymin) * ph

    return [" ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(data.t, s)) for s in series]


def loop_ibm_transition(h: float, q: int, sigma2: float):
    """IBM transition (A, Q) entry by entry, each denominator an exact int."""
    hp = [float(h) ** p for p in range(2 * q + 2)]
    D = q + 1
    A = np.zeros((D, D))
    Q = np.zeros((D, D))
    for i in range(D):
        for j in range(i, D):
            A[i, j] = hp[j - i] / math.factorial(j - i)
    for i in range(D):
        for j in range(i, D):
            p = 2 * q + 1 - i - j
            base = hp[p] / (p * math.factorial(q - i) * math.factorial(q - j))
            Q[i, j] = sigma2 * base
            Q[j, i] = Q[i, j]
    return A, Q


def doubling_affine_scan(covs: np.ndarray, F: np.ndarray, G: np.ndarray):
    """Fill covs[1:] with ``P[j+1] = F P[j] F^T + G`` by doubling the map's span."""

    def sym(m):
        return 0.5 * (m + m.swapaxes(-1, -2))

    n = len(covs)
    L, FL, CL = 1, F, G
    while L < n:
        covs[L : 2 * L] = sym(FL @ covs[: min(L, n - L)] @ FL.T + CL)
        CL = sym(FL @ CL @ FL.T + CL)
        FL = FL @ FL
        L *= 2


def single_loop_array_kernel(field, M, A, H0, H, h, steps):
    """The array mean kernel's means (n+1, d, D) from one loop over the steps.

    A step whose ``(K, S)`` is the previous step's object, past the freeze,
    takes a state of three or more slots as ``W = B S`` on the previous
    step's slot-major block S, reads the field at ``W[-1]`` through
    ``_field_at``, writes the innovation over ``W[D]`` and ``E W[:D+1]`` into
    its block; every other step takes the step form.
    """
    D, (K, _) = len(A), steps[-1]  # the frozen (K, S), if the gain froze
    if D > 2 and K is not None:
        B, E = np.vstack([A, H @ A, H0 @ A]), np.column_stack([np.eye(D), K])
    slots = np.empty((len(steps) + 1, D, len(M)))
    means = slots.transpose(0, 2, 1)
    means[0], last = M, None
    for k, step in enumerate(steps, 1):
        t, (K, S) = k * h, step
        if step is last and D > 2:
            W = B @ slots[k - 1]
            z = _field_at(field, W[-1], t)
            np.subtract(z, W[D], out=W[D])
            np.matmul(E, W[:-1], out=slots[k])
            continue
        M = (A @ M[..., None])[..., 0]
        z = _field_at(field, _dot(M, H0), t)
        if K is None:
            _passthrough(M, H, z, S, step=k, t=t)
        else:
            M = _gain_update(M, H, z, K)
        means[k], last = M, step
    return means
