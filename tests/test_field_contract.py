"""The field contract: the README's table gives the outcome of each kind of vector-field output
(a row) at each call site (a column), and the matrix here checks every cell against a run, so
the table cannot drift from the code."""

import functools
import math
import re
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from odefilter import ContractViolation, DivergedSolveError, IVProblem, TaylorParams, rk4_reference
from odefilter import problems, solve, solver, taylor_state_space
from odefilter.problems import _array_field

from conftest import float_cube

README = Path(__file__).resolve().parent.parent / "README.md"
Q = {q: taylor_state_space(TaylorParams(q, 1.0)) for q in (1, 2)}
H = 0.01
# the first step past t = 0.5, the first RK4 midpoint stage past it, and the record that
# stage belongs to when RK4 records every fifth substep
LATE, MID, RECORD = 51 * H, 50 * H + 0.5 * H, 11 * 0.05


def midpoint(t):
    """An RK4 midpoint stage past t = 0.5: off the grid of step H."""
    return t > 0.5 and abs(t / H - round(t / H)) > 1e-6


# The rows of the table, each as its members: the output a field returns in place of
# the right values z, a float64 vector of d entries.
ROWS = {
    "1-D float64 array": {"float64": lambda z: z},
    "list or tuple": {"list": lambda z: z.tolist(), "tuple": lambda z: tuple(z.tolist())},
    "scalar (d = 1)": {"scalar": lambda z: z[0]},
    "int, float32 or big-endian array": {
        "int": lambda z: z.astype(int),
        "float32": lambda z: z.astype(np.float32),
        "big-endian": lambda z: z.astype(">f8"),
    },
    "column array (d, 1)": {"column": lambda z: z.reshape(-1, 1)},
    "wrong count": {
        "one more": lambda z: z.tolist() + [0.0],
        "one fewer": lambda z: z.tolist()[1:],
        "long column": lambda z: np.append(z, 0.0).reshape(-1, 1),
    },
    "NaN or ±inf": {
        "NaN first": lambda z: [math.nan] + z.tolist()[1:],
        "inf last": lambda z: [1e308] * (len(z) - 1) + [math.inf],
        "-inf": lambda z: [-math.inf] * len(z),
    },
    "finite, sum overflows": {
        "positive": lambda z: [1e308] * len(z),
        "negative": lambda z: [-1e308] * len(z),
    },
    "None, str, complex, huge int, cancelling huge ints, ragged": {
        "None": lambda z: None,
        "None in": lambda z: [None] * len(z),
        "str": lambda z: ["a"] * len(z),
        "complex": lambda z: [1j] * len(z),
        "huge int": lambda z: [10**400] + [0.0] * (len(z) - 1),
        "cancelling": lambda z: [10**400, -(10**400)] + [0.0] * (len(z) - 2),
        "ragged": lambda z: [z.tolist()] + [[]] * max(len(z) - 1, 1),
    },
    "numpy complex array": {"complex array": lambda z: z * (1.0 + 1.0j)},
}
# Rows whose members convert to float64 values, which give their means where _read_output reads them
CONVERSIONS = list(ROWS)[:5]


def problem(form, d, odd, calls, floats):
    """d coordinates of dx/dt = -x whose field returns form(-x) where odd(t): an array field or,
    with floats, a float form that pads a state that shrank; calls collects the call times."""

    def rhs(t, *x):
        calls.append(t)
        z = [-v for v in x] + [0.0] * (d - len(x))
        return form(np.array(z)) if odd(t) else z

    def field(x, t):
        calls.append(t)
        return form(-x) if odd(t) else -x

    return IVProblem(_array_field(rhs, d) if floats else field, np.linspace(1.0, 2.0, d), 1.0, "")


def run(make, t, record=None):
    """make(calls)'s means as bytes, or its error's type, message and t; then t, the time
    of the first odd output, record, the RK4 record it belongs to, and the calls' times."""
    calls = []
    try:
        with np.errstate(all="ignore"):
            (segment,) = make(calls).segments
    except (ContractViolation, DivergedSolveError) as err:
        return (type(err), str(err), getattr(err, "t", None)), t, record, calls
    return segment.means.tobytes(), t, record, calls


def solves(floats, *cases):
    """Solves at q whose field returns form from time t on (at t = 0, at the Taylor init's
    call alone), for each (q, t) of cases."""

    def runs(monkeypatch, form, d):
        odd = lambda t: (lambda s: s >= t) if t else (lambda s: s == 0)
        make = lambda q, t: lambda c: solve(Q[q], problem(form, d, odd(t), c, floats), H, 0.0)
        return [run(make(q, t), t) for q, t in cases]

    return runs


def array_field_solves(monkeypatch, form, d):
    """Solves at q=1, at q=2 before (step 5) and past (step 51) its gain freeze at step 19, and
    the Taylor init, of an array field and of a float form, save at the pair kernel's q=1: at
    d = 2 and q=1 the array field runs the pair kernel's inline read and its fallback."""
    cases = [(1, LATE), (2, 5 * H), (2, LATE), (1, 0.0)]
    array_field, float_form = solves(False, *cases), solves(True, *cases[d == 2 :])
    return array_field(monkeypatch, form, d) + float_form(monkeypatch, form, d)


def stages(floats, *records):
    """RK4 at h = H whose field returns form at the midpoint stages past t = 0.5, for each
    (h_out, the record of the first such stage) of records."""

    def runs(monkeypatch, form, d):
        make = lambda h: lambda c: rk4_reference(problem(form, d, midpoint, c, floats), H, h)
        return [run(make(h_out), MID, record) for h_out, record in records]

    return runs


RK4_KERNELS = {name: getattr(problems, name) for name in ("_rk4_pairs", "_rk4_lists")}


def record_state(monkeypatch, form, d):
    """RK4 of a float form whose substep kernel yields form(x) as the state at RECORD."""
    for name, kernel in RK4_KERNELS.items():
        odd = lambda f, x, n, h, kernel=kernel: (
            form(np.array(x)) if k == 11 else x for k, x in enumerate(kernel(f, x, n, h), 1)
        )
        monkeypatch.setattr(problems, name, odd)
    make = lambda c: rk4_reference(problem(lambda z: z, d, lambda s: False, c, True), H, 0.05)
    return [run(make, None, RECORD)]


def record_derivative(monkeypatch, form, d):
    """RK4 of a float form that returns form at the derivative call of RECORD: call 232,
    after the one at t = 0 and 21 calls per record."""
    calls = count(1)
    odd = lambda s: next(calls) == 1 + 11 * 21
    return [run(lambda c: rk4_reference(problem(form, d, odd, c, True), H, 0.05), RECORD, RECORD)]


# The columns of the table: the coordinate counts each runs, whether it reads the outputs
# through _read_output, and its runs of a member. RK4 runs _rk4_pairs at d = 2, else _rk4_lists.
COLUMNS = {
    "pair kernel, float form": ((2,), False, solves(True, (1, LATE))),
    "solve, array field": ((1, 2, 3), True, array_field_solves),
    "RK4 stage, float form": ((1, 2, 3), False, stages(True, (H, LATE), (0.05, RECORD))),
    # an array field's stages are checked, so a state that overflows fails the next
    # check, which is the record's only where RK4 records every substep
    "RK4 stage, array field": ((1, 2, 3), True, stages(False, (H, LATE))),
    "RK4 record state": ((2, 3), False, record_state),
    "RK4 record derivative": ((2, 3), False, record_derivative),
}


def code(outcome, t, record, calls, form, d, read):
    """The table's code of a run's outcome: accepted, or what was raised and when, at t or
    at the record, as the message names it or, for a count, as the last call was made."""
    if isinstance(outcome, bytes):
        return "accepted"
    kind, message, t_err = outcome
    names = {f"{x:g}": name for name, x in (("record", record), ("t", t)) if x is not None}
    last = names.get(stop := f"{calls[-1]:g}")
    if kind is DivergedSolveError:
        assert message == f"vector field returned non-finite value at t={t_err:g}"
        assert names[f"{t_err:g}"] == last
        return f"diverged at {last}"
    counted = r"vector field returned (\d+) components for a (\d+)-dimensional state"
    if m := re.fullmatch(counted, message):
        assert m.groups() == (str(len(form(np.ones(d)))), str(d))
        return f"count at {last}"
    # _rk4_pairs' unpack or _rk4_lists' strict update zip of a stage of the wrong length
    unpack = r"(too many|not enough) values to unpack \(expected 2.*\)"
    zipped = r"(?P<zip>zip\(\) argument \d is (longer|shorter) than arguments? 1(-\d)?)"
    what = rf"(?P<what>no real numbers|{unpack}|{zipped})"
    pattern = rf"vector field returned {what} (?P<when>at|by) t=(?P<t>[^:]+)(?P<repr>: .+)?"
    assert (m := re.fullmatch(pattern, message, re.S)), message
    assert bool(m["repr"]) == read, message  # _read_output's message ends in the output's repr
    # a stage's own error stops RK4 at that stage, the update zip at its substep's end
    assert stop == (m["t"] if m["when"] == "at" else f"{t + (0.5 * H if m['zip'] else 0):g}")
    return f"{'real' if m['what'] == 'no real numbers' else 'length'} {m['when']} {names[m['t']]}"


@functools.cache
def readme_table():
    """The README's field-contract table: its columns, and each row's cells by column."""
    text = README.read_text()
    lines = text[text.index("| field output |") :].split("\n\n")[0].splitlines()
    header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    return header[1:], {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def test_the_readme_table_has_a_cell_for_every_row_and_column():
    columns, cells = readme_table()
    assert columns == list(COLUMNS)
    assert list(cells) == list(ROWS)
    assert all(list(row) == columns for row in cells.values())


def cell(row, member, column):
    """The README cell's outcome for member of row at column: the row's outcome, unless the
    cell continues with "member: outcome" for a member whose outcome differs."""
    default, *others = readme_table()[1][row][column].split("; ")
    return dict(part.split(": ") for part in others).get(member, default)


CELLS = [(row, member, column) for row in ROWS for member in ROWS[row] for column in COLUMNS]


# no call site reads a complex output as its real part, which numpy would do with this warning
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("row, member, column", CELLS)
def test_every_output_meets_its_readme_cell(monkeypatch, row, member, column):
    expected = cell(row, member, column)
    (dims, read, runs), form = COLUMNS[column], ROWS[row][member]
    ds = [d for d in dims if member != "scalar" or d == 1]
    assert bool(ds) == (expected != "—")
    for d in ds:
        observed = runs(monkeypatch, form, d)
        for outcome in observed:
            assert code(*outcome, form, d, read) == expected, d
        if read and row in CONVERSIONS:  # the outcome of the float64 array it converts to
            converted = lambda z: np.asarray(form(z), dtype=float).reshape(-1)
            assert [o[0] for o in observed] == [o[0] for o in runs(monkeypatch, converted, d)]


@pytest.mark.parametrize("i", [0, 1], ids=["first", "second"])
def test_a_field_that_overflows_diverges_at_the_same_t_at_every_solve_call_site(monkeypatch, i):
    # x³ of coordinate i, from 4 there, leaves float64's range before t = 1: each kernel on
    # the float form and on an array field of it stops with the same error at the same t
    cube = _array_field(lambda t, *x: [float_cube(v) if j == i else v for j, v in enumerate(x)])
    x0, seen = np.where(np.arange(2) == i, 4.0, 1.0), set()
    for kernel in (solver._pair_mean_loop, solver._array_mean_loop):
        monkeypatch.setattr(solver, "_pair_mean_loop", kernel)
        for field in (cube, lambda x, t: cube(x, t)):
            seen.add(run(lambda c: solve(Q[1], IVProblem(field, x0, 1.0, "x³"), H, 0.0), None)[0])
    ((kind, message, t),) = seen
    assert kind is DivergedSolveError and 0.0 < t < 1.0


@pytest.mark.parametrize("floats", [True, False], ids=["float form", "array field"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_rk4_checks_the_state_and_the_derivative_of_every_record(monkeypatch, floats, d):
    # t = 0 included: _checked sees each record's state, then its derivative
    checked, seen = problems._checked, []
    spy = lambda values, size, t: seen.append((len(values), size, t)) or checked(values, size, t)
    monkeypatch.setattr(problems, "_checked", spy)
    rk4_reference(problem(lambda z: z, d, lambda s: False, [], floats), H, 0.05)
    assert seen == [(d, d, k * 0.05) for k in range(21) for _ in "xf"]


def own_error(z):
    raise TypeError("the field's own error")


@pytest.mark.parametrize("d", [2, 3])
def test_rk4_reference_passes_an_array_fields_own_error_unchanged(d):
    # _read_output checks an array field's outputs, so its TypeError is its own
    with pytest.raises(TypeError, match="the field's own error"):
        rk4_reference(problem(own_error, d, lambda s: s > 0.5, [], False), H)
