"""CLI surface: solve/plot/converge, CSV schema, SVG output, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from odefilter import ContractViolation, TaylorParams, fhn, solve, taylor_state_space, vdp
from odefilter.cli import main, parse_trajectory_csv, render_svg, run_converge, trajectory_csv

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


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "lorenz", "--method", "taylor"])
    assert exc.value.code == 2
    assert "lorenz" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "vdp", "--method", "hybrid", "--Tp", "80"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["converge", "--problem", "linear", "--h", "0.1", "0.05"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["converge", "--problem", "linear", "--h", "0.025", "0.05", "0.1"])
    assert exc.value.code == 2


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
    "problem,flags,expected",
    [
        ("vdp", [], vdp()),
        ("vdp", ["--mu", "2"], vdp(mu=2.0)),
        ("fhn", ["--fhn-I", "0.3", "--fhn-standard"], fhn(I=0.3, standard=True)),
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
