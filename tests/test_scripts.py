"""Smoke test of the scripts the README tells users to run, and of the README's commands."""

import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

from odefilter import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(tmp_path, monkeypatch, capsys):
    run_benchmarks = load("run_benchmarks")
    convergence_study = load("convergence_study")
    monkeypatch.chdir(tmp_path)
    run_benchmarks.main(["--outdir", str(tmp_path), "--h", "0.05"])
    for problem in ("vdp", "fhn"):
        assert (tmp_path / f"{problem}_hybrid.csv").stat().st_size > 0
        assert (tmp_path / f"{problem}_hybrid.svg").read_text().startswith("<svg")

    monkeypatch.setattr(sys, "argv", ["convergence_study.py"])
    convergence_study.main()
    out = capsys.readouterr().out
    assert "fourier RMSE" in out
    orders = [line for line in out.splitlines() if line.startswith("fitted order: ")]
    assert len(orders) == 2


def test_run_benchmarks_writes_what_solve_writes(tmp_path, capsys):
    # every argument but --outdir reaches `odefilter solve`, which knows --J
    flags = ["--h", "0.05", "--J", "2"]
    load("run_benchmarks").main(["--outdir", str(tmp_path / "script"), *flags])
    for problem in ("vdp", "fhn"):
        out = tmp_path / f"{problem}.csv"
        argv = ["solve", "--problem", problem, "--method", "hybrid", "--reference", *flags]
        assert cli.main([*argv, "-o", str(out)]) == 0
        written = (tmp_path / "script" / f"{problem}_hybrid.csv").read_bytes()
        assert written == out.read_bytes()


def test_run_benchmarks_forwards_h_rather_than_reading_help(tmp_path, capsys):
    # the script's own --problem, --method, --reference and -o win over forwarded ones
    run_benchmarks = load("run_benchmarks")
    assert run_benchmarks.PARSER.parse_known_args(["--h", "0.05"])[1] == ["--h", "0.05"]
    forwarded = ["--h", "0.05", "--method", "taylor", "--problem", "linear", "-o", "x.csv"]
    run_benchmarks.main(["--outdir", str(tmp_path), *forwarded])
    stdout = capsys.readouterr().out
    assert "usage" not in stdout
    for problem in ("vdp", "fhn"):
        assert f"wrote {tmp_path / problem}_hybrid.csv (1001 rows)" in stdout
    assert stdout.count("  fourier RMSE vs RK4 per coordinate: ") == 2
    assert not (tmp_path / "x.csv").exists()


def test_convergence_study_forwards_its_arguments(capsys):
    # a forwarded --T reaches the linear study, and vdp's own --T 5 wins over it
    load("convergence_study").main(["--T", "1"])
    out = capsys.readouterr().out
    linear, vdp = [0.1, 0.05, 0.025], [0.01, 0.005, 0.0025]
    assert cli.run_converge("linear", 1, linear, 1.0, 1.0)[0] in out
    assert cli.run_converge("linear", 1, linear, None, 1.0)[0] not in out
    assert cli.run_converge("vdp", 1, vdp, 5.0, 1.0)[0] in out


def readme_commands(program):
    """The argument lists of the README's code-block lines that run ``program``."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)
    words = [shlex.split(line.split("#")[0]) for block in blocks for line in block.splitlines()]
    return [argv[len(program) :] for argv in words if argv[: len(program)] == program]


def parses(parse, argv):
    try:
        return parse(argv)
    except SystemExit as exc:
        pytest.fail(f"{argv} does not parse (exit {exc.code})")


def test_readme_cli_commands_parse():
    commands = readme_commands(["odefilter"])
    assert len(commands) >= 4
    for argv in commands:
        parses(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize(
    "script,target",
    [
        ("run_benchmarks", ["solve", "--problem", "vdp", "--method", "hybrid", "--reference"]),
        ("convergence_study", ["converge", "--problem", "linear", "--h", "0.1", "0.05", "0.025"]),
    ],
)
def test_readme_script_commands_parse(script, target):
    # the script's own options, then the rest as part of the CLI command it runs
    commands = readme_commands(["python", f"scripts/{script}.py"])
    assert commands
    for argv in commands:
        forwarded = parses(load(script).PARSER.parse_known_args, argv)[1]
        parses(cli.build_parser().parse_args, [target[0], *forwarded, *target[1:]])
