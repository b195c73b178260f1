#!/usr/bin/env python3
"""odefilter benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload hybrid_bench --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run times whole operations (closed loop, one caller, no
threads) and reports the end-to-end metrics; with ``--trace 1`` it reports
the per-layer metrics of ``tracing.py``. The last line of standard output is
the result as one JSON object. Spans, per-operation times and the context
are also written to ``.bench_out/`` in the repository root; the files the
CLI writes go to a per-process directory there, removed at the end.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; child processes inherit this.
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
MIN_TAIL_BEYOND = 10

# A fresh interpreter imports the package and builds the workload's inputs;
# the child times itself from its first statement, then times the
# calibration kernel.
SETUP_CHILD = (
    "import time; t0 = time.perf_counter(); import sys; sys.path[:0] = {paths!r}; "
    "import workloads; workloads.build({workload!r}, {seed}); "
    "t1 = time.perf_counter(); print(repr(t1 - t0), repr(workloads.calibrate()))"
)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, calibration us) for each of SETUP_REPEATS fresh interpreters."""
    code = SETUP_CHILD.format(paths=[BENCH_DIR, SRC], workload=workload, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        seconds, calib = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(calib)))
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with >= 10 samples beyond it.

    Returns (value, percentile, samples beyond). With 10 or fewer samples no
    such percentile exists; the maximum is reported, at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n, MIN_TAIL_BEYOND


def git_commit() -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pin": BLAS_PIN,
        "git_commit": git_commit(),
        "loop": "closed, one caller, one process, no threads",
    }


def attempt(case, wl, workdir: str, what: str) -> tuple[float | None, bool]:
    """Run and check one operation: (wall seconds, passed)."""
    try:
        elapsed, res = wl.run_op(case, workdir)
        problems = wl.check(case, res)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        elapsed, problems = None, ["raised"]
    if problems:
        print(f"{what} {case.label}: {'; '.join(problems)}", flush=True)
    return elapsed, not problems


def timed_run(cases, wl, seconds: float, workdir: str):
    """Whole operations in turn until ``seconds`` have passed.

    The calibration kernel runs before the first operation and after each.
    Returns per operation its wall seconds (None if it failed) and the mean
    of the calibrations just before and just after it, and the attempted
    and failed counts.
    """
    walls, calibs = [], []
    failed = 0
    before = wl.calibrate()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < len(cases):
        case = cases[len(walls) % len(cases)]
        gc.collect()
        elapsed, ok = attempt(case, wl, workdir, f"op {len(walls) + 1}")
        after = wl.calibrate()
        walls.append(elapsed if ok else None)
        calibs.append(0.5 * (before + after))
        failed += not ok
        before = after
    return walls, calibs, len(walls), failed


def scaled(walls, calibs, ref_us: float) -> list[float]:
    """Passing operations' seconds scaled to the reference host speed.

    Each operation's host speed is the mean calibration of it and its two
    neighbours; see README.md, "Steadiness".
    """
    return [
        wall * ref_us / statistics.fmean(calibs[max(0, i - 1) : i + 2])
        for i, wall in enumerate(walls)
        if wall is not None
    ]


def main() -> int:
    # Workloads, metric names and units come from BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "odefilter", "__init__.py")):
        print(f"error: no odefilter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, spec: dict, workdir: str) -> dict:
    """Set up, warm up, run timed or traced; returns the result object."""
    import numpy as np
    import workloads as wl

    setup = measure_setup(args.workload, args.seed)
    cases = wl.build(args.workload, args.seed)
    for case in cases:
        case.prepare()
        if case.kind == "cli":
            replica, calls = wl.replicate_cli(case)
            case.reference.update(replica=replica, field_evals=calls)
    # Warm-up: one checked, untimed operation per case. The CLI replica has
    # already run every layer of a CLI operation but argument parsing and
    # file I/O, so it stands in for that warm-up.
    warm = [case for case in cases if case.kind != "cli"]
    warm_failed = sum(not attempt(case, wl, workdir, "warm-up")[1] for case in warm)

    ctx = context(args, np)
    ctx["setup_samples_s_calib_us"] = setup
    report = {"context": ctx}
    if args.trace:
        import tracing

        layers, attempted, failed, spans, rows = tracing.run(cases, args.seconds, workdir)
        attempted, failed = attempted + len(warm), failed + warm_failed
        ctx["traced_iterations"] = len(rows)
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        report.update(spans=spans, iterations=rows)
    else:
        walls, calibs, attempted, failed = timed_run(cases, wl, args.seconds, workdir)
        attempted, failed = attempted + len(warm), failed + warm_failed
        times = scaled(walls, calibs, wl.CALIB_REF_US)
        run_s = statistics.median(times)
        tail_s, tail_pct, beyond = tail(times)
        rmse_filter, rmse_extrap = wl.error_metrics(cases)
        ctx.update(
            run_s_samples=len(times), run_s_tail_percentile=tail_pct,
            run_s_tail_samples_beyond=beyond,
            run_s_wall=statistics.median(w for w in walls if w is not None),
            setup_s_wall=statistics.median(s for s, _ in setup),
            host_calib_us_median=statistics.median(calibs),
            calib_ref_us=wl.CALIB_REF_US,
        )
        values = {
            "setup_s": statistics.median(s * wl.CALIB_REF_US / c for s, c in setup),
            "run_s": run_s,
            "run_s_tail": tail_s,
            "records_per_s": cases[0].n_records / run_s,
            "field_evals": cases[0].field_evals,
            "rmse_filter": rmse_filter,
            "rmse_extrap": rmse_extrap,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        report.update(op_wall_s=walls, op_calib_us=calibs)
        ctx["error_rate"] = failed / attempted

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13} {name:<38} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:>13} {'error_rate':<38} {ctx['error_rate']:>16.6g} ratio")
    print("context " + json.dumps(ctx, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, out_name), "w") as fh:
        json.dump(report, fh)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
