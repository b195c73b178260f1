"""Traced run: per-layer timings from spans around public calls.

Each traced iteration first runs the workload's operation exactly as the
timed run does (its parts in spans), then replays the operation's inner
steps through the public pieces in order, each in a span:

    solve(taylor_state_space(...), t_end=T_p)   solver.solve
    train_fourier, per coordinate              hybrid.train
    predict_forward, per coordinate            hybrid.extrap
    rk4_reference                              problems.rk4
    trajectory_csv                             cli.csv_render
    parse_trajectory_csv                       cli.csv_parse
    render_svg                                 cli.svg_render

and checks that the pieces reproduce the operation's values and bytes
exactly. A replayed piece runs after the call it belongs to, not inside it;
its span names that call as parent. A layer's self time is the parent
call's duration minus the durations of its child spans.

A layer that the workload's operation does not call is still timed, on the
workload's own problem, in a probe outside the operation (see README.md), so
that every per-layer name has a value on every workload.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from time import perf_counter

import numpy as np

import odefilter as of
from odefilter import cli

import workloads as wl


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        try:
            yield index
        finally:
            self.spans[index][2] = perf_counter()

    def seconds(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def self_seconds(self, index: int) -> float:
        children = [i for i, s in enumerate(self.spans) if s[3] == index]
        return self.seconds(index) - sum(self.seconds(i) for i in children)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def flops_per_coord_step(D: int) -> int:
    """Operations of one predict + one scalar Joseph update on a D-dim state.

    Counted from the array shapes of filtering.predict and filtering.update
    as written (two D x D products each way, outer products, symmetrising),
    plus the H0 projection of the predicted mean. A computed count: it does
    not follow a change of algorithm.
    """
    predict = 4 * D**3 + 5 * D**2
    update = 4 * D**3 + 9 * D**2 + 5 * D + 2
    return predict + update + 2 * D


# --- replays and probes ------------------------------------------------------


def replay_hybrid(tr: Tracer, parent: int, cfg, ivp, means, stds) -> tuple[dict, list[str]]:
    """hybrid_solve's steps through public pieces; compares values exactly."""
    timed = wl.TimedField(ivp.field)
    with tr.span("solver.solve", parent) as s_solve:
        taylor = of.solve(
            of.taylor_state_space(cfg.taylor), wl.with_field(ivp, timed), cfg.h, cfg.R,
            t_end=cfg.T_p,
        )
    prior = of.fourier_init(cfg.fourier)
    d = ivp.dim
    with tr.span("hybrid.train", parent) as s_train:
        trained = [
            of.train_fourier(prior, taylor, i, cfg.fourier, cfg.train_policy, cfg.train_noise)
            for i in range(d)
        ]
    with tr.span("hybrid.extrap", parent) as s_extrap:
        segments = [of.predict_forward(b, cfg.fourier, cfg.h, cfg.T_p, ivp.T) for b in trained]

    # Same expressions as Trajectory.value_means / value_stds, so equal bits.
    H0 = of.fourier_projections(cfg.fourier).H0
    late = [[b for _, b in seg] for seg in segments]
    steps = range(len(late[0]))
    late_means = np.array([[float(H0 @ col[m].mean) for col in late] for m in steps])
    late_stds = np.array(
        [[np.sqrt(max(float(H0 @ col[m].cov @ H0), 0.0)) for col in late] for m in steps]
    )
    problems = []
    if not (
        np.array_equal(np.vstack((taylor.value_means(), late_means)), means)
        and np.array_equal(np.vstack((taylor.value_stds(), late_stds)), stds)
    ):
        problems.append("replayed hybrid pieces do not reproduce hybrid_solve's values")
    n_steps = len(taylor) - 1
    return {
        "solve": s_solve, "train": s_train, "extrap": s_extrap,
        "field_s": timed.seconds, "field_calls": timed.calls,
        "coord_steps": d * n_steps, "train_updates": d * len(taylor),
        "extrap_steps": d * len(steps),
    }, problems


def probe_rk4_cli(tr: Tracer, case: wl.Case, traj, workdir: str) -> tuple[dict, list[str]]:
    """RK4 reference, CSV render, and cli plot on this workload's own trajectory."""
    csv_path = os.path.join(workdir, f"probe_{case.label}.csv")
    svg_path = os.path.join(workdir, f"probe_{case.label}.svg")
    with tr.span("probe.rk4_cli") as root:
        with tr.span("problems.rk4", root) as s_rk4:
            ref = of.rk4_reference(case.ivp, wl.H / 10.0, h_out=wl.H)
        with tr.span("cli.csv_render", root) as s_render:
            text = cli.trajectory_csv(traj, ref)
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
        with tr.span("cli.main", root) as s_main:
            code = wl.call_cli(["plot", csv_path, "-o", svg_path])
    with tr.span("cli.csv_parse", s_main) as s_parse:
        data = cli.parse_trajectory_csv(text)
    with tr.span("cli.svg_render", s_main) as s_svg:
        svg = cli.render_svg(data)
    with open(svg_path) as fh:
        same = fh.read() == svg
    problems = [] if code == 0 and same else ["cli plot differs from render_svg"]
    return {
        "rk4": s_rk4, "render": s_render, "parse": s_parse, "svg": s_svg, "main": s_main,
        "csv_bytes": len(text.encode()), "svg_bytes": len(svg.encode()),
        "substeps": 10 * (len(ref) - 1),
    }, problems


# --- one traced iteration per case kind ---------------------------------------


def trace_hybrid(tr: Tracer, case: wl.Case, workdir: str):
    counter = wl.CountingField(case.ivp.field)
    with tr.span("op") as op:
        with tr.span("hybrid.hybrid_solve", op) as s_hybrid:
            traj = of.hybrid_solve(case.hybrid, wl.with_field(case.ivp, counter))
        with tr.span("solver.project", op) as s_project:
            means, stds = traj.value_means(), traj.value_stds()
    res = wl.OpResult(means, stds, len(traj), traj.phases(), counter.calls)
    problems = wl.check(case, res)
    hyb, p_hyb = replay_hybrid(tr, s_hybrid, case.hybrid, case.ivp, means, stds)
    cli_probe, p_cli = probe_rk4_cli(tr, case, traj, workdir)
    return op, dict(hyb, hybrid=s_hybrid, project=s_project), cli_probe, problems + p_hyb + p_cli


def trace_taylor(tr: Tracer, case: wl.Case, workdir: str):
    timed = wl.TimedField(case.ivp.field)
    with tr.span("op") as op:
        with tr.span("solver.solve", op) as s_solve:
            traj = of.solve(
                of.taylor_state_space(case.taylor_params), wl.with_field(case.ivp, timed),
                wl.H, 0.0,
            )
        with tr.span("solver.project", op) as s_project:
            means, stds = traj.value_means(), traj.value_stds()
    res = wl.OpResult(means, stds, len(traj), traj.phases(), timed.calls)
    problems = wl.check(case, res)
    layers = {
        "solve": s_solve, "project": s_project, "field_s": timed.seconds,
        "field_calls": timed.calls, "coord_steps": case.ivp.dim * (len(traj) - 1),
    }
    # Probe: the hybrid layers on the same chain (T_p = 0.75 T).
    with tr.span("probe.hybrid") as root:
        with tr.span("hybrid.hybrid_solve", root) as s_hybrid:
            htraj = of.hybrid_solve(case.hybrid, case.ivp)
    hyb, p_hyb = replay_hybrid(
        tr, s_hybrid, case.hybrid, case.ivp, htraj.value_means(), htraj.value_stds()
    )
    layers.update(
        hybrid=s_hybrid, train=hyb["train"], extrap=hyb["extrap"],
        train_updates=hyb["train_updates"], extrap_steps=hyb["extrap_steps"],
        field_calls=timed.calls + hyb["field_calls"],
    )
    cli_probe, p_cli = probe_rk4_cli(tr, case, traj, workdir)
    return op, layers, cli_probe, problems + p_hyb + p_cli


def trace_cli(tr: Tracer, case: wl.Case, workdir: str):
    csv_path, svg_path = wl.cli_paths(case, workdir)
    with tr.span("op") as op:
        with tr.span("cli.main", op) as s_main:
            codes = (
                wl.call_cli([*case.argv, "-o", csv_path]),
                wl.call_cli(["plot", csv_path, "-o", svg_path]),
            )
    with open(csv_path, "rb") as fh:
        csv = fh.read()
    with open(svg_path, "rb") as fh:
        svg_file = fh.read()
    m, refs, phases = wl.read_csv(csv, case.ivp.dim)
    res = wl.OpResult(
        m, None, len(phases), phases, case.reference["field_evals"], csv=csv, svg=svg_file,
        refs=refs,
    )
    problems = wl.check(case, res) + (["cli exit code"] if any(codes) else [])

    with tr.span("hybrid.hybrid_solve", s_main) as s_hybrid:
        traj = of.hybrid_solve(case.hybrid, case.ivp)
    with tr.span("problems.rk4", s_main) as s_rk4:
        ref = of.rk4_reference(case.ivp, wl.H / 10.0, h_out=wl.H)
    with tr.span("cli.csv_render", s_main) as s_render:
        text = cli.trajectory_csv(traj, ref)
    with tr.span("solver.project", s_render) as s_project:
        means, stds = traj.value_means(), traj.value_stds()
    with tr.span("cli.csv_parse", s_main) as s_parse:
        data = cli.parse_trajectory_csv(text)
    with tr.span("cli.svg_render", s_main) as s_svg:
        svg = cli.render_svg(data)
    if text.encode() != csv or svg.encode() != svg_file:
        problems.append("public pieces do not reproduce the CLI's CSV and SVG bytes")
    hyb, p_hyb = replay_hybrid(tr, s_hybrid, case.hybrid, case.ivp, means, stds)
    cli_layers = {
        "rk4": s_rk4, "render": s_render, "parse": s_parse, "svg": s_svg, "main": s_main,
        "csv_bytes": len(csv), "svg_bytes": len(svg_file), "substeps": 10 * (len(ref) - 1),
    }
    return op, dict(hyb, hybrid=s_hybrid, project=s_project), cli_layers, problems + p_hyb


TRACERS = {"hybrid": trace_hybrid, "taylor": trace_taylor, "cli": trace_cli}


# --- micro-timings of single calls ---------------------------------------------


def per_call_us(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return (perf_counter() - start) * 1e6 / calls


def filtering_inputs(q: int):
    """(posterior, transition, predicted, measurement) for the Taylor and the
    Fourier prior, after a few filter steps, at the run's shapes. Predict is
    timed on the posterior and update on the predicted belief, as in solve."""
    tp = of.TaylorParams(q, 1.0)
    t_trans = of.ibm_transition(wl.H, tp)
    t_meas = of.MeasurementModel(of.taylor_projections(q).H, 0.0)
    t_belief = of.taylor_init(1.0, 0.5, q)
    fp = wl.HYBRID_CONFIG.fourier
    f_trans = of.fourier_transition(wl.H, fp)
    f_meas = of.MeasurementModel(of.fourier_projections(fp).H0, 1e-10)
    f_belief = of.fourier_init(fp)
    for k in range(5):
        t_belief = of.update(of.predict(t_belief, t_trans), t_meas, 0.5 - 0.01 * k)
        f_belief = of.update(of.predict(f_belief, f_trans), f_meas, 1.0 - 0.01 * k)
    return (
        (t_belief, t_trans, of.predict(t_belief, t_trans), t_meas),
        (f_belief, f_trans, of.predict(f_belief, f_trans), f_meas),
    )


def micro(cases: list[wl.Case]) -> dict:
    q = cases[0].taylor_params.q
    (tb, tt, tpred, tm), (fb, ft, fpred, fm) = filtering_inputs(q)
    tp, fp = of.TaylorParams(q, 1.0), wl.HYBRID_CONFIG.fourier
    x0s = [(c.ivp.field, c.ivp.x0) for c in cases]
    return {
        "filtering.predict_us.taylor": per_call_us(lambda: of.predict(tb, tt), 400),
        "filtering.update_us.taylor": per_call_us(lambda: of.update(tpred, tm, 0.4), 400),
        "filtering.predict_us.fourier": per_call_us(lambda: of.predict(fb, ft), 400),
        "filtering.update_us.fourier": per_call_us(lambda: of.update(fpred, fm, 0.9), 400),
        "taylor.build_us": per_call_us(
            lambda: (
                of.ibm_transition(wl.H, tp), of.taylor_projections(q), of.taylor_init(1.0, 0.5, q)
            ),
            100,
        ),
        "fourier.build_us": per_call_us(
            lambda: (
                of.fourier_transition(wl.H, fp), of.fourier_projections(fp), of.fourier_init(fp)
            ),
            100,
        ),
        "problems.field_us": statistics.fmean(
            per_call_us(lambda: f(x, 0.0), 1000) for f, x in x0s
        ),
    }


def instrumentation_costs() -> tuple[float, float]:
    """Seconds per span, and extra seconds per TimedField call over CountingField."""
    tr = Tracer()

    def spans():
        with tr.span("x"):
            pass

    def noop(x, t):
        return x

    counted, timed = wl.CountingField(noop), wl.TimedField(noop)
    per_span = statistics.median(per_call_us(spans, 2000) for _ in range(3)) * 1e-6
    extra = statistics.median(
        per_call_us(lambda: timed(0, 0), 2000) - per_call_us(lambda: counted(0, 0), 2000)
        for _ in range(3)
    ) * 1e-6
    return per_span, max(extra, 0.0)


# --- the traced run ---------------------------------------------------------------


def run(cases: list[wl.Case], seconds: float, workdir: str, min_iterations: int = 3):
    """Traced iterations for about ``seconds`` (at least ``min_iterations``).

    Returns (per-layer metrics, attempted, failed, spans, per-iteration rows).
    """
    per_span, per_field = instrumentation_costs()
    tr = Tracer()
    rows: list[dict] = []
    attempted = failed = 0
    start = perf_counter()
    i = 0
    # Stop when another iteration of average length would overrun ``seconds``.
    while i < min_iterations or (perf_counter() - start) * (i + 1) / i <= seconds:
        case = cases[i % len(cases)]
        i += 1
        first_span = len(tr.spans)
        op, sl, cl, problems = TRACERS[case.kind](tr, case, workdir)
        attempted += 1
        if problems:
            failed += 1
            print(f"traced {case.label}: {'; '.join(problems)}", flush=True)
        D = case.taylor_params.q + 1
        solve_s = tr.seconds(sl["solve"])
        row = {
            "solver.solve_s": solve_s,
            "solver.us_per_coord_step": solve_s * 1e6 / sl["coord_steps"],
            "solver.field_s": sl["field_s"],
            "solver.field_share": sl["field_s"] / solve_s,
            "solver.project_s": tr.seconds(sl["project"]),
            "solver.computed_flops_per_coord_step": flops_per_coord_step(D),
            "solver.mflops_computed": flops_per_coord_step(D) * sl["coord_steps"] / solve_s / 1e6,
            "hybrid.train_s": tr.seconds(sl["train"]),
            "hybrid.us_per_train_update": tr.seconds(sl["train"]) * 1e6 / sl["train_updates"],
            "hybrid.extrap_s": tr.seconds(sl["extrap"]),
            "hybrid.us_per_extrap_step": tr.seconds(sl["extrap"]) * 1e6 / sl["extrap_steps"],
            "hybrid.self_s": tr.self_seconds(sl["hybrid"]),
            "problems.rk4_s": tr.seconds(cl["rk4"]),
            "problems.rk4_us_per_substep": tr.seconds(cl["rk4"]) * 1e6 / cl["substeps"],
            "cli.csv_render_s": tr.seconds(cl["render"]),
            "cli.csv_parse_s": tr.seconds(cl["parse"]),
            "cli.svg_render_s": tr.seconds(cl["svg"]),
            "cli.csv_bytes": cl["csv_bytes"],
            "cli.svg_bytes": cl["svg_bytes"],
            "cli.self_s": tr.self_seconds(cl["main"]),
            "op_s": tr.seconds(op),
        }
        row.update(micro(cases))
        row["host.calib_us"] = wl.calibrate()
        row["trace.overhead_s"] = (
            (len(tr.spans) - first_span) * per_span + sl["field_calls"] * per_field
        )
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    return metrics, attempted, failed, tr.records(), rows
