"""The README's commands: every CLI line parses, and the experiment block runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from odefilter import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(text):
    """The bodies of the fenced code blocks in ``text``."""
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)


def command_lines(block):
    """The argument lists of a code block's lines, comments and blank lines dropped."""
    return [argv for line in block.splitlines() if (argv := shlex.split(line.split("#")[0]))]


def readme_commands(program):
    """The argument lists of the README's code-block lines that run ``program``."""
    words = [argv for block in code_blocks(README.read_text()) for argv in command_lines(block)]
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


def test_readme_experiment_runs_as_written(tmp_path, monkeypatch, capsys):
    # the first code block of "Reproducing the experiment", line by line, in order
    section = README.read_text().split("\n## Reproducing the experiment\n")[1].split("\n## ")[0]
    commands = command_lines(code_blocks(section)[0])
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "odefilter", f"cannot run {shlex.join(argv)}"
        assert cli.main(argv[1:]) == 0, shlex.join(argv)

    for problem in ("vdp", "fhn"):
        assert (tmp_path / f"{problem}_hybrid.csv").stat().st_size > 0
        assert (tmp_path / f"{problem}_hybrid.svg").read_text().startswith("<svg")
    out = capsys.readouterr().out
    assert out.count("  fourier RMSE vs RK4 per coordinate: ") == 2
    assert len([line for line in out.splitlines() if line.startswith("fitted order: ")]) == 2
