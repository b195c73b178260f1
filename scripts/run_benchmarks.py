#!/usr/bin/env python3
"""Run the two benchmark oscillators with the default hybrid configuration.

For each, runs ``odefilter solve --method hybrid --reference`` and
``odefilter plot``, which write <problem>_hybrid.csv and <problem>_hybrid.svg
(filter mean plus RK4 reference overlay) into --outdir, and prints a short
summary read back from the CSV.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from odefilter import cli, problems


def run(problem: str, outdir: Path, h: float | None, t_p_fraction: float | None) -> None:
    """Solve and plot one problem; ``None`` leaves h or T_p at the CLI's default."""
    csv_path = outdir / f"{problem}_hybrid.csv"
    flags = ["--problem", problem, "--method", "hybrid", "--reference", "-o", str(csv_path)]
    if h is not None:
        flags += ["--h", repr(h)]
    if t_p_fraction is not None:
        flags += ["--Tp", repr(t_p_fraction * problems.by_name(problem).T)]

    start = time.perf_counter()
    for argv in (["solve", *flags], ["plot", str(csv_path)]):  # plot writes <problem>_hybrid.svg
        if code := cli.main(argv):
            raise SystemExit(code)
    elapsed = time.perf_counter() - start

    data = cli.parse_trajectory_csv(csv_path.read_text())
    taylor = np.array([phase == "taylor" for phase in data.phases])
    rmse = [np.sqrt(np.mean((data.means - data.refs)[m] ** 2, axis=0)) for m in (taylor, ~taylor)]
    print(f"{problem}: {len(data.t)} records, T_p={data.t[taylor][-1]:g}, all in {elapsed:.2f}s")
    print(f"  filtering RMSE vs RK4 per coordinate:     {rmse[0]}")
    print(f"  extrapolation RMSE vs RK4 per coordinate: {rmse[1]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--h", type=float, help="step size (default: solve's)")
    parser.add_argument("--tp-fraction", type=float, help="T_p / T (default: solve's)")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for problem in ("vdp", "fhn"):
        run(problem, outdir, args.h, args.tp_fraction)


if __name__ == "__main__":
    main()
