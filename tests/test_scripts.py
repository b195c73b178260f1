"""Smoke test of the scripts the README tells users to run."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(tmp_path, monkeypatch, capsys):
    run_benchmarks = load("run_benchmarks")
    convergence_study = load("convergence_study")
    monkeypatch.chdir(tmp_path)
    for problem in ("vdp", "fhn"):
        run_benchmarks.run(problem, tmp_path, 0.05, 0.75)
        assert (tmp_path / f"{problem}_hybrid.csv").stat().st_size > 0
        assert (tmp_path / f"{problem}_hybrid.svg").read_text().startswith("<svg")

    monkeypatch.setattr(sys, "argv", ["convergence_study.py"])
    convergence_study.main()
    out = capsys.readouterr().out
    assert "extrapolation RMSE" in out
    orders = [line for line in out.splitlines() if line.startswith("fitted order: ")]
    assert len(orders) == 2
