#!/usr/bin/env python3
"""Run the two benchmark oscillators with the default hybrid configuration.

For each of vdp and fhn, runs ``odefilter solve --method hybrid --reference``
and ``odefilter plot``, which write <problem>_hybrid.csv and <problem>_hybrid.svg
(filter mean plus RK4 reference overlay) into --outdir; solve prints each
phase's RMSE against the RK4 reference. Every other argument is passed on to
``odefilter solve``, say ``--h 0.05 --Tp 37.5``; the script's own --problem,
--method, --reference and -o come after it and win.
"""

import argparse
from pathlib import Path

from odefilter import cli

# no abbreviations: a forwarded --h must not be read as --help
PARSER = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
PARSER.add_argument("--outdir", default="results", help="output directory")


def main(argv: list[str] | None = None) -> None:
    args, solve_args = PARSER.parse_known_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for problem in ("vdp", "fhn"):
        csv_path = str(outdir / f"{problem}_hybrid.csv")
        own = ["--problem", problem, "--method", "hybrid", "--reference", "-o", csv_path]
        for command in (["solve", *solve_args, *own], ["plot", csv_path]):
            if code := cli.main(command):
                raise SystemExit(code)


if __name__ == "__main__":
    main()
