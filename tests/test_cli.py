"""CLI surface: solve/plot/converge, CSV schema, SVG output, determinism."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from odefilter import (
    ContractViolation,
    FourierParams,
    HybridConfig,
    ProjectionPair,
    TaylorParams,
    Trajectory,
    by_name,
    fhn,
    hybrid_solve,
    problems,
    rk4_reference,
    solve,
    taylor_state_space,
    vdp,
)
from odefilter.cli import (
    _MB,
    _ML,
    _MT,
    _SVG_H,
    CsvData,
    main,
    parse_trajectory_csv,
    render_svg,
    run_converge,
    trajectory_csv,
)
from odefilter.solver import PhaseSegment

from conftest import format_polyline_points, format_trajectory_csv

EXP_MINUS_1 = 0.36787944117144233


def run(*argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_rows(path):
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_solve_constant_small_grid(tmp_path):
    out = tmp_path / "constant.csv"
    code, stdout, _ = run(
        "solve", "--problem", "constant", "--method", "taylor",
        "--h", "0.5", "--T", "2", "-o", str(out),
    )
    assert code == 0
    assert str(out) in stdout
    header, rows = read_rows(out)
    assert header == ["t", "mean_0", "std_0", "phase"]
    assert len(rows) == 5
    assert all(row[1] == "1" for row in rows)
    assert all(row[-1] == "taylor" for row in rows)


def test_solve_linear_accuracy(tmp_path):
    out = tmp_path / "linear.csv"
    code, _, _ = run(
        "solve", "--problem", "linear", "--method", "taylor",
        "--h", "0.1", "--T", "1", "-o", str(out),
    )
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 11
    assert abs(float(rows[-1][1]) - EXP_MINUS_1) <= 2e-2


def test_solve_csv_floats_use_17_significant_digits(tmp_path):
    out = tmp_path / "linear.csv"
    run(
        "solve", "--problem", "linear", "--method", "taylor",
        "--h", "0.1", "--T", "1", "-o", str(out),
    )
    _, rows = read_rows(out)
    assert rows[1][0] == format(0.1, ".17g")
    for row in rows:
        for cell in row[:-1]:
            assert float(cell) == float(format(float(cell), ".17g"))


def test_solve_vdp_hybrid_defaults(tmp_path):
    out = tmp_path / "vdp.csv"
    code, _, _ = run("solve", "--problem", "vdp", "--method", "hybrid", "-o", str(out))
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "mean_0", "mean_1", "std_0", "std_1", "phase"]
    assert len(rows) == 5001
    phases = [row[-1] for row in rows]
    assert phases[3750] == "taylor"
    assert phases[3751] == "fourier"
    assert float(rows[3750][0]) == 37.5
    assert set(phases) == {"taylor", "fourier"}


@pytest.mark.parametrize("method", ["taylor", "hybrid"])
@pytest.mark.parametrize("problem", sorted(problems.REGISTRY))
def test_every_problem_solves_at_the_default_flags(tmp_path, monkeypatch, problem, method):
    # each default horizon, and 0.75 of it, is a whole number of default steps
    monkeypatch.chdir(tmp_path)
    assert run("solve", "--problem", problem, "--method", method)[0] == 0
    assert (tmp_path / f"{problem}_{method}.csv").stat().st_size > 0


@pytest.mark.parametrize("problem", ["linear", "constant", "cosine"])
def test_synthetic_problems_converge_at_their_default_horizon(problem):
    assert run("converge", "--problem", problem, "--h", "0.1", "0.05", "0.025")[0] == 0


def test_solve_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--problem", "cosine", "--method", "hybrid", "--h", "0.05",
            "--T", "10", "--Tp", "7.5"]
    assert run(*args, "-o", str(a))[0] == 0
    assert run(*args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_round_trips_every_solve_output(tmp_path):
    for problem, method in (("constant", "taylor"), ("cosine", "hybrid")):
        out = tmp_path / f"{problem}.csv"
        args = ["solve", "--problem", problem, "--method", method, "--h", "0.25",
                "--T", "2", "-o", str(out)]
        if method == "hybrid":
            args += ["--Tp", "1.5"]
        assert run(*args)[0] == 0
        svg = tmp_path / f"{problem}.svg"
        assert run("plot", str(out), "-o", str(svg))[0] == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 1


def test_plot_hybrid_draws_phase_rule(tmp_path):
    out = tmp_path / "vdp.csv"
    run("solve", "--problem", "vdp", "--method", "hybrid", "--h", "0.05",
        "--T", "10", "--Tp", "7.5", "-o", str(out))
    svg = tmp_path / "vdp.svg"
    assert run("plot", str(out), "-o", str(svg))[0] == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert "stroke-dasharray" in text


def test_plot_reference_columns_add_polylines(tmp_path):
    out = tmp_path / "fhn.csv"
    code, _, _ = run(
        "solve", "--problem", "fhn", "--method", "taylor", "--h", "0.1",
        "--T", "2", "--reference", "-o", str(out),
    )
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "mean_0", "mean_1", "std_0", "std_1", "ref_0", "ref_1", "phase"]
    svg = tmp_path / "fhn.svg"
    assert run("plot", str(out), "-o", str(svg))[0] == 0
    assert svg.read_text().count("<polyline") == 4


def test_plot_empty_csv_renders_axes_only(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("t,mean_0,std_0,phase\n")
    svg = tmp_path / "empty.svg"
    code, _, _ = run("plot", str(csv), "-o", str(svg))
    assert code == 0
    text = svg.read_text()
    assert "<polyline" not in text
    assert "<rect" in text


def test_plot_of_an_empty_file_is_a_format_error(tmp_path):
    csv = tmp_path / "blank.csv"
    csv.write_text("")
    code, _, err = run("plot", str(csv))
    assert code == 2
    assert err.startswith("error: ") and "empty file" in err
    assert not (tmp_path / "blank.svg").exists()


def test_plot_of_a_missing_file_exit_code(tmp_path):
    code, _, err = run("plot", str(tmp_path / "missing.csv"))
    assert code == 1
    assert err.startswith("error: ") and "missing.csv" in err


def test_plot_of_one_record_spans_a_unit_time_axis(tmp_path):
    # one time gives tmin == tmax; the axis runs from it to one past it
    csv = tmp_path / "one.csv"
    csv.write_text("t,mean_0,std_0,phase\n2,1,0.1,taylor\n")
    assert run("plot", str(csv))[0] == 0
    svg = (tmp_path / "one.svg").read_text()
    assert polyline_points(svg) == [f"{_ML:.2f},{_MT + (_SVG_H - _MT - _MB) / 2:.2f}"]
    assert ">2</text>" in svg and ">3</text>" in svg


def test_module_run_exits_with_the_code_of_main(tmp_path):
    csv = tmp_path / "blank.csv"
    csv.write_text("")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "odefilter.cli", "plot", str(csv)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "empty file" in proc.stderr


def test_plot_malformed_csv_reports_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("t,mean_0,std_0,phase\n0,1,0.1,taylor\n0.1,oops,0.1,taylor\n")
    code, _, err = run("plot", str(csv))
    assert code != 0
    assert "line 3" in err

    csv.write_text("time,mean_0,std_0,phase\n")
    code, _, err = run("plot", str(csv))
    assert code != 0
    assert "line 1" in err

    csv.write_text("t,mean_0,std_0,phase\n0,1,0.1\n")
    code, _, err = run("plot", str(csv))
    assert code != 0
    assert "line 2" in err


@pytest.mark.parametrize("column", ["t", "mean_0", "ref_1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_plot_non_finite_cell_reports_line(tmp_path, column, value):
    header = "t,mean_0,mean_1,std_0,std_1,ref_0,ref_1,phase"
    rows = ["0,1,2,0,0,1,2,taylor", "0.1,1,2,0,0,1,2,taylor", "0.2,1,2,0,0,1,2,taylor"]
    cells = rows[2].split(",")
    cells[header.split(",").index(column)] = value
    rows[2] = ",".join(cells)
    csv = tmp_path / "bad.csv"
    csv.write_text("\n".join([header] + rows) + "\n")
    code, _, err = run("plot", str(csv))
    assert code == 2
    assert err.startswith("error: line 4") and column in err
    assert not (tmp_path / "bad.svg").exists()


def test_plot_accepts_non_finite_stds(tmp_path):
    # stds are not drawn, and a NaN std is what a NaN covariance projects to
    csv = tmp_path / "stds.csv"
    csv.write_text("t,mean_0,std_0,phase\n0,1,nan,taylor\n0.1,1,inf,taylor\n")
    code, _, _ = run("plot", str(csv))
    assert code == 0
    assert "nan" not in (tmp_path / "stds.svg").read_text()


def test_converge_linear_order():
    code, stdout, _ = run(
        "converge", "--problem", "linear", "--q", "1",
        "--h", "0.1", "0.05", "0.025",
    )
    assert code == 0
    order_line = stdout.strip().split("\n")[-1]
    assert order_line.startswith("fitted order:")
    assert float(order_line.split(":")[1]) >= 0.8


def test_converge_constant_reports_exact():
    code, stdout, _ = run(
        "converge", "--problem", "constant", "--q", "1",
        "--h", "0.1", "0.05", "0.025",
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[-1] == "fitted order: exact"
    for line in lines[1:-1]:
        assert float(line.split()[1]) <= 1e-9


def test_converge_vdp_order():
    code, stdout, _ = run(
        "converge", "--problem", "vdp", "--T", "5",
        "--h", "0.01", "0.005", "0.0025",
    )
    assert code == 0
    order_line = stdout.strip().split("\n")[-1]
    assert float(order_line.split(":")[1]) >= 0.8


def test_run_converge_rejects_a_fractional_q():
    # q is passed to TaylorParams as given: 1.5 must not run as q=1
    with pytest.raises(ContractViolation, match="q must be an integer"):
        run_converge("linear", 1.5, [0.1, 0.05, 0.025], None, 1.0)


@pytest.mark.parametrize(
    "hs", [[0.1], [0.1, 0.05], [0.025, 0.05, 0.1], [0.1, 0.1, 0.05], [0.1, math.nan, 0.05]]
)
def test_run_converge_needs_three_strictly_decreasing_step_sizes(hs):
    # one point has no slope to fit, and the CLI's usage rule is the library's
    with pytest.raises(ContractViolation, match="step sizes"):
        run_converge("linear", 1, hs, None, 1.0)


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "lorenz", "--method", "taylor"])
    assert exc.value.code == 2
    assert "lorenz" in capsys.readouterr().err

    # HybridConfig and hybrid_solve own the T_p range rule
    assert main(["solve", "--problem", "vdp", "--method", "hybrid", "--Tp", "80"]) == 2
    assert "T_p" in capsys.readouterr().err

    # run_converge owns the step-size rule
    assert main(["converge", "--problem", "linear", "--h", "0.1", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("error:")

    assert main(["converge", "--problem", "linear", "--h", "0.025", "0.05", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_grid_exit_code(tmp_path):
    # an off-grid step size is rejected before any file is written
    out = tmp_path / "x.csv"
    code, _, err = run(
        "solve", "--problem", "linear", "--method", "taylor",
        "--h", "0.3", "--T", "1", "-o", str(out),
    )
    assert code == 2
    assert "integer" in err
    assert not out.exists()


def test_zero_train_jitter_exit_code(tmp_path):
    # a zero training variance is rejected before any file is written
    out = tmp_path / "x.csv"
    code, _, err = run(
        "solve", "--problem", "vdp", "--method", "hybrid", "--train-jitter", "0", "-o", str(out),
    )
    assert code == 2
    assert err.startswith("error:") and "jitter" in err
    assert not out.exists()


def test_derivative_variance_training_at_zero_noise_exits_before_any_field_evaluation(
    tmp_path, monkeypatch
):
    # at R = 0 every Taylor derivative variance past t = 0 is 0, so no row could be whitened
    calls = []

    def counted(name, **kwargs):
        ivp = by_name(name, **kwargs)
        return replace(ivp, field=lambda x, t: calls.append(t) or ivp.field(x, t))

    monkeypatch.setattr(problems, "by_name", counted)
    out = tmp_path / "x.csv"
    argv = ["solve", "--problem", "vdp", "--method", "hybrid", "--T", "5", "-o", str(out),
            "--train-policy", "values_and_derivatives", "--train-noise", "taylor_variance"]
    code, _, err = run(*argv)
    assert (code, calls) == (2, [])
    assert all(name in err for name in ("values_and_derivatives", "taylor_variance", "R > 0"))
    assert not out.exists()
    assert run(*argv, "--R", "1e-6")[0] == 0
    assert calls


def test_taylor_solve_ignores_every_hybrid_only_flag(tmp_path):
    # flags a Taylor solve never reads are not checked, whatever their values
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    base = ["solve", "--problem", "linear", "--method", "taylor", "--h", "0.1", "-o"]
    assert run(*base, str(plain))[0] == 0
    hybrid_only = [
        "--J", "-1", "--w0", "nan", "--l", "0", "--sigma2-fourier", "-1", "--Tp", "5",
        "--train-policy", "values_stride", "--train-stride", "0",
        "--train-noise", "fixed_jitter", "--train-jitter", "0",
    ]
    assert run(*base, str(flagged), *hybrid_only)[0] == 0
    assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        "hybrid --w0 nan",
        "hybrid --w0 inf",
        "hybrid --h nan",
        "taylor --h nan",
        "taylor --T inf",
        "taylor --T nan",
        "hybrid --R nan",
        "taylor --R inf",
        "taylor --sigma2-taylor nan",
        "taylor --sigma2-taylor inf",
        "hybrid --l nan",
        "hybrid --l inf",
        "hybrid --sigma2-fourier inf",
        "hybrid --train-jitter inf",
        "taylor --reference --h-ref nan",
    ],
)
def test_non_finite_parameters_exit_code(tmp_path, flags):
    # rejected as contract violations before any file is written
    method, *flags = flags.split()
    out = tmp_path / "x.csv"
    code, _, err = run(
        "solve", "--problem", "linear", "--method", method, "--h", "0.1", *flags, "-o", str(out)
    )
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    ["vdp --mu nan", "vdp --mu inf", "fhn --fhn-I inf", "fhn --fhn-I nan", "fhn --fhn-tau nan"],
)
def test_non_finite_problem_parameters_exit_code(tmp_path, flags):
    # rejected by the problem factory before any file is written, not
    # reported later as a non-finite field value
    problem, *flags = flags.split()
    out = tmp_path / "x.csv"
    code, _, err = run(
        "solve", "--problem", problem, "--method", "hybrid", *flags, "-o", str(out)
    )
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "problem,flags,expected",
    [
        ("vdp", [], vdp()),
        ("vdp", ["--mu", "2"], vdp(mu=2.0)),
        ("fhn", ["--fhn-I", "0.3", "--fhn-b", "0.8"], fhn(I=0.3, b=0.8)),
    ],
)
def test_problem_flags_reach_the_factory(tmp_path, problem, flags, expected):
    out = tmp_path / "x.csv"
    code, _, _ = run("solve", "--problem", problem, "--method", "taylor", "--T", "1", *flags,
                     "-o", str(out))
    assert code == 0
    ssm = taylor_state_space(TaylorParams(1, 1.0))
    traj = solve(ssm, replace(expected, T=1.0), 0.01, 0.0)
    assert out.read_text() == trajectory_csv(traj)


def test_fhn_b_flag_reaches_the_field(tmp_path):
    # b is live: its flag gives another trajectory, the library's solve of fhn(b=0.3)
    args = ["solve", "--problem", "fhn", "--method", "hybrid", "--T", "4"]
    default, live = tmp_path / "default.csv", tmp_path / "b.csv"
    assert run(*args, "-o", str(default))[0] == 0
    assert run(*args, "--fhn-b", "0.3", "-o", str(live))[0] == 0
    config = HybridConfig(TaylorParams(1, 1.0), FourierParams(3, 1.0, 3.0, 1.0), T_p=3.0, h=0.01)
    expected = trajectory_csv(hybrid_solve(config, replace(fhn(b=0.3), T=4.0)))
    assert live.read_text() == expected
    assert live.read_text() != default.read_text()


def test_fhn_has_no_form_switch_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "fhn", "--method", "taylor", "--fhn-standard"])
    assert exc.value.code == 2
    assert "--fhn-standard" in capsys.readouterr().err


def test_taylor_order_beyond_float_range_exit_code(tmp_path):
    # (2q+1)(q!)^2 leaves float range at q = 98
    out = tmp_path / "x.csv"
    code, _, err = run("solve", "--problem", "linear", "--method", "taylor", "--q", "98",
                       "-o", str(out))
    assert code == 2
    assert err.startswith("error: ") and "q=98" in err and "h=0.01" in err
    assert not out.exists()


def rmse_lines(csv_text: str) -> list[str]:
    """The per-phase RMSE lines of `solve --reference`, recomputed from its CSV."""
    data = parse_trajectory_csv(csv_text)
    phases = np.array(data.phases)
    lines = []
    for phase in dict.fromkeys(data.phases):
        rows = (data.means - data.refs)[phases == phase]
        lines.append(f"  {phase} RMSE vs RK4 per coordinate: {np.sqrt(np.mean(rows**2, axis=0))}")
    return lines


@pytest.mark.parametrize(
    "problem,flags",
    [
        ("vdp", ["--method", "hybrid", "--h", "0.05", "--T", "10", "--Tp", "7.5"]),
        ("fhn", ["--method", "hybrid", "--h", "0.05"]),
        ("linear", ["--method", "taylor", "--h", "0.1", "--T", "2"]),
    ],
)
def test_solve_reference_prints_the_rmse_of_each_phase(tmp_path, problem, flags):
    out = tmp_path / "x.csv"
    code, stdout, _ = run("solve", "--problem", problem, *flags, "--reference", "-o", str(out))
    assert code == 0
    wrote, *rest = stdout.splitlines()
    assert wrote.startswith(f"wrote {out}")
    expected = rmse_lines(out.read_text())
    assert len(expected) == (2 if "hybrid" in flags else 1)
    assert rest == expected
    # without the reference there is nothing to compare against
    stdout = run("solve", "--problem", problem, *flags, "-o", str(out))[1]
    assert "RMSE" not in stdout


def test_flag_of_another_problem_is_rejected(tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run("solve", "--problem", "fhn", "--method", "taylor", "--mu", "2",
                       "-o", str(out))
    assert code == 2
    assert "does not accept ['mu']" in err
    assert not out.exists()


def test_diverging_solve_exit_code(tmp_path):
    # a too-large step on the stiff oscillator blows the filter up
    out = tmp_path / "div.csv"
    with np.errstate(all="ignore"):
        code, _, err = run(
            "solve", "--problem", "vdp", "--method", "taylor",
            "--h", "0.5", "--T", "50", "-o", str(out),
        )
    assert code == 1
    assert "solver error" in err and "t=" in err
    assert not out.exists()


def test_parse_render_svg_determinism(tmp_path):
    out = tmp_path / "c.csv"
    run("solve", "--problem", "cosine", "--method", "taylor", "--h", "0.25",
        "--T", "2", "-o", str(out))
    data = parse_trajectory_csv(out.read_text())
    assert render_svg(data) == render_svg(data)
    assert np.allclose(data.t, np.arange(9) * 0.25)
    assert data.means.shape == (9, 1)
    assert abs(data.means[-1, 0] - math.cos(2.0)) <= 5e-2


def polyline_points(svg: str) -> list[str]:
    return re.findall(r'<polyline [^>]*points="([^"]*)"', svg)


def test_csv_and_svg_equal_the_per_value_formatting():
    ivp = replace(fhn(), T=5.0)
    traj = solve(taylor_state_space(TaylorParams(2, 1.0)), ivp, 0.05, 0.0)
    reference = rk4_reference(ivp, 0.005, h_out=0.05)
    for ref in (None, reference):
        text = trajectory_csv(traj, ref)
        assert text == format_trajectory_csv(traj, ref)
        data = parse_trajectory_csv(text)
        assert polyline_points(render_svg(data)) == format_polyline_points(data)


@pytest.mark.parametrize("ref_problem,ref_T", [("linear", 5.0), ("fhn", 4.0)], ids=["dim", "length"])
def test_csv_rejects_a_reference_of_another_shape(ref_problem, ref_T):
    # a 1-dim reference of the same length must not reach the row format
    traj = solve(taylor_state_space(TaylorParams(1, 1.0)), replace(fhn(), T=5.0), 0.05, 0.0)
    ivp = replace(by_name(ref_problem), T=ref_T)
    reference = rk4_reference(ivp, 0.05)
    shape = re.escape(str(reference.value_means().shape))
    with pytest.raises(ContractViolation, match=rf"{shape}.*\(101, 2\)"):
        trajectory_csv(traj, reference)


def test_csv_rejects_a_reference_on_another_grid():
    # same record count, other times: each row would pair t=0.1k with ref(0.2k)
    traj = solve(taylor_state_space(TaylorParams(1, 1.0)), by_name("linear", T=1.0), 0.1, 0.0)
    reference = rk4_reference(by_name("linear", T=2.0), 0.02, h_out=0.2)
    assert reference.value_means().shape == traj.value_means().shape
    with pytest.raises(ContractViolation, match=r"reference time 0\.2\d* differs from t=0\.1"):
        trajectory_csv(traj, reference)


def test_csv_formats_non_finite_stds_and_negative_zeros():
    # value_means sums from +0.0, so a -0.0 cell reaches the CSV through t alone
    nan, inf = math.nan, math.inf
    projections = ProjectionPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    means = np.array([[[1.0, 1.0]], [[1 / 3, 0.0]], [[-1e-300, 0.0]], [[1e17, 0.0]]])
    covs = np.zeros((4, 2, 2))
    covs[:, 0, 0] = [nan, inf, -1.0, 0.25]  # stds nan, inf, 0 (clamped) and 0.5
    first = PhaseSegment("taylor", projections, np.array([-0.0, 0.5]), means[:2], covs[:2])
    second = PhaseSegment("fourier", projections, np.array([1.0, 1.5]), means[2:], covs[2:])
    traj = Trajectory((first, second))
    ref_means = np.array([[[-2.0, 0.0]], [[2.5e-8, 0.0]], [[-7.0, 0.0]], [[0.1, 0.0]]])
    zeros = np.zeros((4, 2, 2))
    ref_segment = PhaseSegment("reference", projections, np.arange(4) * 0.5, ref_means, zeros)
    reference = Trajectory((ref_segment,))
    text = trajectory_csv(traj, reference)
    assert text == format_trajectory_csv(traj, reference)
    assert text.split("\n")[1:3] == [
        "-0,1,nan,-2,taylor", "0.5,0.33333333333333331,inf,2.4999999999999999e-08,taylor"
    ]
    data = parse_trajectory_csv(text)
    assert polyline_points(render_svg(data)) == format_polyline_points(data)


@pytest.mark.parametrize(
    "means", [[[-0.0], [0.0], [-0.0]], [[2.0], [2.0], [2.0]], [[-1e-12], [3.0], [1e-300]]],
    ids=["signed-zeros", "flat", "tiny"],
)
def test_svg_polylines_equal_the_per_point_formatting(means):
    means = np.array(means)
    data = CsvData(np.array([0.0, 0.5, 1.0]), means, np.zeros_like(means), -means, ["taylor"] * 3)
    assert polyline_points(render_svg(data)) == format_polyline_points(data)


def test_csv_rejects_a_reference_one_small_step_late():
    # at h = 1e-10 a whole step is far inside an absolute 1e-9
    ivp = by_name("constant", T=1e-9)
    traj = solve(taylor_state_space(TaylorParams(1, 1.0)), ivp, 1e-10, 0.0)
    (segment,) = rk4_reference(ivp, 1e-10).segments
    late = Trajectory((replace(segment, t=segment.t + 1e-10),))
    with pytest.raises(ContractViolation, match=r"reference time 1e-10 differs from t=0$"):
        trajectory_csv(traj, late)


@pytest.mark.parametrize("top", ["1e308", "1.7976931348623157e308"])
def test_plot_of_times_and_values_near_the_float_limit(tmp_path, top):
    # tmax - tmin and ymax - ymin overflow float64; every point must still be finite
    csv = tmp_path / "wide.csv"
    rows = [f"{t},{top},-{top},0,0,taylor" for t in (f"-{top}", top)]
    csv.write_text("\n".join(["t,mean_0,mean_1,std_0,std_1,phase"] + rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("plot", str(csv))[0] == 0
    svg = (tmp_path / "wide.svg").read_text()
    assert "nan" not in svg
    assert polyline_points(svg) == ["64.00,38.91 824.00,38.91", "64.00,417.09 824.00,417.09"]


@pytest.mark.parametrize(
    "rows,points",
    [
        (["0,1e17,0,taylor", "1,1e17,0,taylor"], ["64.00,436.00 824.00,436.00"]),
        (["1e17,1,0,taylor"], ["64.00,228.00"]),
    ],
    ids=["flat-values", "one-time"],
)
def test_plot_of_huge_flat_data_widens_the_flat_axis(tmp_path, rows, points):
    # at 1e17 rounding absorbs the quarter (values) or half (times) a flat
    # axis is widened by; the axis then runs to the next float up
    csv = tmp_path / "flat.csv"
    csv.write_text("\n".join(["t,mean_0,std_0,phase"] + rows) + "\n")
    assert run("plot", str(csv))[0] == 0
    assert polyline_points((tmp_path / "flat.svg").read_text()) == points


@pytest.mark.parametrize("w0", ["1e308", "1e307"])
def test_a_fourier_angle_beyond_float_range_exits_2(tmp_path, w0):
    # at J=3, w0=1e308 overflows J*w0 and w0=1e307 the angle 3*w0*t of the
    # training times; neither may write NaN rows
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run("solve", "--problem", "vdp", "--method", "hybrid", "--w0", w0, "-o", str(out))
    assert code == 2
    assert err.startswith("error:") and f"float range at w0={float(w0):g}, J=3" in err
    assert not out.exists()
