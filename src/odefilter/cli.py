"""Command-line front end: solve, plot, converge.

``solve`` runs a filter and writes a trajectory CSV; with ``--reference`` it
also prints each phase's RMSE against the RK4 reference. ``plot`` renders such
a CSV as a static SVG line chart, ``converge`` runs a step-size study against
the Runge-Kutta reference. All defaults reproduce the benchmark oscillator
runs, so ``odefilter solve --problem vdp --method hybrid`` works as-is.

Everything here is deterministic: identical inputs give byte-identical
outputs; no computation in this package uses randomness.

CSV schema: header ``t,mean_0,...,mean_{d-1},std_0,...,std_{d-1},phase``
with floats printed to 17 significant digits, comma separated, newline
terminated. With ``--reference``, columns ``ref_0,...,ref_{d-1}`` are
inserted between the stds and the phase.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import problems
from .errors import ContractViolation, CsvFormatError, DivergedSolveError, SingularUpdateError
from .fourier import FourierParams
from .hybrid import NOISE_KINDS, POLICY_KINDS, HybridConfig, TrainNoise, TrainPolicy, hybrid_solve
from .solver import Trajectory, _same_grid_point, solve
from .taylor import TaylorParams, taylor_state_space

EXACT_ORDER_THRESHOLD = 1e-10


def _build_problem(args: argparse.Namespace):
    """The problem with the parameters given on the command line; its factory has the defaults."""
    flags = {"mu": args.mu, "I": args.fhn_I, "a": args.fhn_a, "b": args.fhn_b, "tau": args.fhn_tau}
    given = {name: value for name, value in flags.items() if value is not None}
    return problems.by_name(args.problem, T=args.T, **given)


def _csv_header(d: int, reference: bool) -> list[str]:
    """The CSV columns for d coordinates, with the ref_i columns when ``reference``."""
    groups = ("mean", "std", "ref") if reference else ("mean", "std")
    return ["t", *(f"{group}_{i}" for group in groups for i in range(d)), "phase"]


def trajectory_csv(traj: Trajectory, reference: Trajectory | None = None) -> str:
    """Render a trajectory (plus optional reference values) as CSV text.

    The reference must have the trajectory's coordinates and its times, each
    the same grid point by ``solver._same_grid_point`` on the trajectory's step.
    """
    header = _csv_header(traj.dim, reference is not None)
    t = traj.times()
    columns = [t[:, None], traj.value_means(), traj.value_stds()]
    if reference is not None:
        ref_values = reference.value_means()
        if ref_values.shape != columns[1].shape:
            raise ContractViolation(
                f"reference values of shape {ref_values.shape} do not match "
                f"trajectory values of shape {columns[1].shape}"
            )
        ref_t, step = reference.times(), t[1] - t[0] if len(t) > 1 else 0.0
        off_grid = np.flatnonzero(~_same_grid_point(ref_t, t, step))
        if off_grid.size:
            k = off_grid[0]
            raise ContractViolation(f"reference time {ref_t[k]:.17g} differs from t={t[k]:.17g}")
        columns.append(ref_values)

    rows = np.hstack(columns).tolist()
    # "%.17g" % x is format(x, ".17g"), nan, inf and -0 included
    row_format = ",".join(["%.17g"] * (len(header) - 1) + ["%s"])
    lines = [",".join(header)]
    lines += [row_format % (*row, phase) for row, phase in zip(rows, traj.phases())]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CsvData:
    """Parsed trajectory CSV: times, per-coordinate means/stds/refs, phases."""

    t: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    refs: np.ndarray | None
    phases: list[str]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def parse_trajectory_csv(text: str) -> CsvData:
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


MEAN_COLORS = ["#d62728", "#2ca02c", "#9467bd", "#8c564b"]  # filter means: red, green, ...
REF_COLORS = ["#1f77b4", "#e6b417", "#17becf", "#7f7f7f"]  # true curves: blue, yellow, ...

_SVG_W, _SVG_H = 840, 480
_ML, _MR, _MT, _MB = 64, 16, 20, 44


def render_svg(data: CsvData) -> str:
    """Static line chart: one polyline per mean (and per reference) column.

    A dashed vertical rule marks the phase boundary when the trajectory
    switches phase. Output is a pure function of the parsed data.
    """
    pw = _SVG_W - _ML - _MR
    ph = _SVG_H - _MT - _MB
    n = data.t.size
    # (label, column, colour) of each curve, in drawing order: the true curves under the means
    groups = (("ref", data.refs, REF_COLORS), ("mean", data.means, MEAN_COLORS))
    series = [
        (f"{group}_{i}", values[:, i], colors[i % len(colors)])
        for group, values, colors in groups
        if values is not None and n > 0
        for i in range(data.dim)
    ]

    if series:
        tmin, tmax = float(data.t.min()), float(data.t.max())
        ymin = min(float(values.min()) for _, values, _ in series)
        ymax = max(float(values.max()) for _, values, _ in series)
    else:
        tmin, tmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    # The axes run on halves of the times and quarters of the values (whose
    # range is padded), so that no span or padded end overflows; a power of
    # two scales normal floats exactly. A flat axis is widened by a half or a
    # quarter, or, where rounding absorbs that, to the next float up.
    tmin, tmax, ymin, ymax = tmin / 2, tmax / 2, ymin / 4, ymax / 4
    if tmax == tmin:
        tmax = max(tmin + 0.5, math.nextafter(tmin, math.inf))
    if ymax == ymin:
        ymin = ymin - 0.25
        ymax = max(ymax + 0.25, math.nextafter(ymin, math.inf))
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    def sx(t: float) -> float:
        return _ML + (t - tmin) / (tmax - tmin) * pw

    def sy(v: float) -> float:
        return _MT + (ymax - v) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]

    for i in range(6):
        frac = i / 5
        tx = tmin + frac * (tmax - tmin)
        x = sx(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" y2="{_MT + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle">{2 * tx:.6g}</text>'
        )
        vy = ymin + frac * (ymax - ymin)
        y = sy(vy)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{4 * vy:.6g}</text>'
        )

    rule_t = None
    if n > 0:
        first = data.phases[0]
        for k, phase in enumerate(data.phases):
            if phase != first:
                rule_t = data.t[k - 1]
                break
    if rule_t is not None:
        x = sx(rule_t / 2)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + ph}" '
            f'stroke="#666" stroke-dasharray="5,4"/>'
        )
        parts.append(f'<text x="{x + 4:.2f}" y="{_MT + 14}" fill="#666">t={rule_t:.6g}</text>')

    # sx and sy map whole columns with the arithmetic they apply to one value
    xs = sx(data.t / 2).tolist()

    for _, values, color in series:
        points = " ".join(map("%.2f,%.2f".__mod__, zip(xs, sy(values / 4).tolist())))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')

    lx = _ML + 8
    for label, _, color in series:
        parts.append(f'<text x="{lx}" y="{_MT + ph - 8}" fill="{color}">{label}</text>')
        lx += 8 * len(label) + 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_converge(
    problem: str, q: int, hs: list[float], T: float | None, sigma2: float
) -> tuple[str, list[float], float | str]:
    """Step-size study of the Taylor filter against the RK4 reference.

    Returns the printed table, the per-h max errors, and the fitted order
    (least-squares slope in log-log, or "exact" when errors vanish). The
    slope needs at least 3 step sizes, strictly decreasing.
    """
    if len(hs) < 3 or not all(a > b for a, b in zip(hs, hs[1:])):
        raise ContractViolation(f"need 3 or more strictly decreasing step sizes, got {hs}")
    ivp = problems.by_name(problem, T=T)
    params = TaylorParams(q, sigma2)
    errors = []
    for h in hs:
        traj = solve(taylor_state_space(params), ivp, h, R=0.0)
        ref = problems.rk4_reference(ivp, h / 20.0, h_out=h)
        err = float(np.max(np.abs(traj.value_means() - ref.value_means())))
        errors.append(err)

    if max(errors) <= EXACT_ORDER_THRESHOLD:
        order: float | str = "exact"
    else:
        logs_h = np.log([float(h) for h in hs])
        logs_e = np.log(np.maximum(errors, 1e-300))
        order = float(np.polyfit(logs_h, logs_e, 1)[0])

    lines = [f"{'h':>12}  {'max_error':>14}"]
    for h, err in zip(hs, errors):
        lines.append(f"{h:>12.6g}  {err:>14.6e}")
    lines.append(f"fitted order: {order if order == 'exact' else format(order, '.3f')}")
    return "\n".join(lines), errors, order


def _add_solve_args(p: argparse.ArgumentParser):
    p.add_argument("--method", required=True, choices=["taylor", "hybrid"])
    p.add_argument("--h", type=float, default=0.01, help="step size (default 0.01)")
    p.add_argument("--Tp", type=float, default=None, help="prediction time (default 0.75*T)")
    p.add_argument("--J", type=int, default=3, help="Fourier truncation order (default 3)")
    p.add_argument("--w0", type=float, default=1.0, help="angular velocity (default 1)")
    p.add_argument("--l", type=float, default=3.0, help="periodic-kernel lengthscale (default 3)")
    p.add_argument("--sigma2-fourier", type=float, default=1.0)
    p.add_argument("--R", type=float, default=0.0, help="measurement noise (default 0)")
    p.add_argument("--train-policy", choices=POLICY_KINDS, default=TrainPolicy.kind)
    p.add_argument("--train-stride", type=int, default=TrainPolicy.stride)
    p.add_argument("--train-noise", choices=NOISE_KINDS, default=TrainNoise.kind)
    p.add_argument("--train-jitter", type=float, default=TrainNoise.jitter)
    p.add_argument("--mu", type=float, default=None, help="vdp parameter")
    p.add_argument("--fhn-I", type=float, default=None)
    p.add_argument("--fhn-a", type=float, default=None)
    p.add_argument("--fhn-b", type=float, default=None)
    p.add_argument("--fhn-tau", type=float, default=None)
    p.add_argument("--reference", action="store_true", help="add RK4 reference columns")
    p.add_argument("--h-ref", type=float, default=None, help="reference step (default h/10)")
    p.add_argument("-o", "--output", default=None, help="CSV path (default <problem>_<method>.csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odefilter",
        description="Gaussian ODE filtering with Taylor, Fourier, and hybrid priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the problem and the Taylor prior, which solve and converge both take
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--problem", required=True, choices=sorted(problems.REGISTRY))
    shared.add_argument("--q", type=int, default=1, help="Taylor derivatives (default 1)")
    shared.add_argument("--sigma2-taylor", type=float, default=1.0)
    shared.add_argument("--T", type=float, default=None, help="time horizon (default: problem's)")

    p_solve = sub.add_parser(
        "solve", parents=[shared], help="run a filter and write a trajectory CSV"
    )
    _add_solve_args(p_solve)

    p_plot = sub.add_parser("plot", help="render a trajectory CSV as an SVG line chart")
    p_plot.add_argument("csv", help="input CSV produced by solve")
    p_plot.add_argument("-o", "--output", default=None, help="SVG path (default <csv>.svg)")

    p_conv = sub.add_parser(
        "converge", parents=[shared], help="step-size study against the RK4 reference"
    )
    p_conv.add_argument(
        "--h", type=float, nargs="+", required=True, help="step sizes, strictly decreasing"
    )
    return parser


def _cmd_solve(args) -> int:
    ivp = _build_problem(args)
    taylor = TaylorParams(args.q, args.sigma2_taylor)
    if args.method == "taylor":
        traj = solve(taylor_state_space(taylor), ivp, args.h, args.R)
    else:
        config = HybridConfig(
            taylor=taylor,
            fourier=FourierParams(args.J, args.w0, args.l, args.sigma2_fourier),
            T_p=args.Tp if args.Tp is not None else 0.75 * ivp.T,
            h=args.h,
            R=args.R,
            train_policy=TrainPolicy(args.train_policy, args.train_stride),
            train_noise=TrainNoise(args.train_noise, args.train_jitter),
        )
        traj = hybrid_solve(config, ivp)
    reference = None
    if args.reference:
        h_ref = args.h_ref if args.h_ref is not None else args.h / 10.0
        reference = problems.rk4_reference(ivp, h_ref, h_out=args.h)
    out = args.output or f"{args.problem}_{args.method}.csv"
    with open(out, "w", newline="") as fh:
        fh.write(trajectory_csv(traj, reference))
    print(f"wrote {out} ({len(traj)} rows)")
    if reference is not None:
        errors = traj.value_means() - reference.value_means()
        ends = np.cumsum([len(segment.t) for segment in traj.segments])[:-1]
        for segment, rows in zip(traj.segments, np.split(errors, ends)):
            rmse = np.sqrt(np.mean(rows**2, axis=0))
            print(f"  {segment.phase} RMSE vs RK4 per coordinate: {rmse}")
    return 0


def _cmd_plot(args) -> int:
    with open(args.csv) as fh:
        data = parse_trajectory_csv(fh.read())
    out = args.output or (args.csv[:-4] if args.csv.endswith(".csv") else args.csv) + ".svg"
    with open(out, "w", newline="") as fh:
        fh.write(render_svg(data))
    print(f"wrote {out}")
    return 0


def _cmd_converge(args) -> int:
    table, _, _ = run_converge(args.problem, args.q, args.h, args.T, args.sigma2_taylor)
    print(table)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "plot":
            return _cmd_plot(args)
        return _cmd_converge(args)
    except (ContractViolation, CsvFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SingularUpdateError, DivergedSolveError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
