#!/usr/bin/env python3
"""Step-size study of the Taylor filter on the linear and Van der Pol problems."""

import argparse

from odefilter.cli import run_converge

STUDIES = [
    ("linear", 1, [0.1, 0.05, 0.025], None),
    ("vdp", 1, [0.01, 0.005, 0.0025], 5.0),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma2", type=float, default=1.0)
    args = parser.parse_args()

    for problem, q, hs, T in STUDIES:
        print(f"== {problem} (q={q}, T={T or 'default'}) ==")
        table, _, _ = run_converge(problem, q, hs, T, args.sigma2)
        print(table)
        print()


if __name__ == "__main__":
    main()
