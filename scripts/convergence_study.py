#!/usr/bin/env python3
"""Step-size study of the Taylor filter on the linear and Van der Pol problems.

Runs ``odefilter converge`` once per study and prints its order table. Every
argument is passed on to each call, say ``--sigma2-taylor 2``; the study's own
--problem, --q, --h and --T come after it and win.
"""

import argparse

from odefilter import cli

STUDIES = [
    ["--problem", "linear", "--q", "1", "--h", "0.1", "0.05", "0.025"],
    ["--problem", "vdp", "--q", "1", "--h", "0.01", "0.005", "0.0025", "--T", "5"],
]

# no abbreviations: a forwarded --h must not be read as --help
PARSER = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)


def main(argv: list[str] | None = None) -> None:
    converge_args = PARSER.parse_known_args(argv)[1]
    for study in STUDIES:
        print(f"== {' '.join(study)} ==")
        if code := cli.main(["converge", *converge_args, *study]):
            raise SystemExit(code)
        print()


if __name__ == "__main__":
    main()
