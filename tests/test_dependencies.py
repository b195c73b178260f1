"""The package imports nothing beyond numpy and the standard library, the
covariance arithmetic stays behind ``filtering``'s covariance map, each
prior builds its own state-space model, step counts are rounded in one
place, one function reads the grid tolerance, the registered vector fields
are float code, the solver calls an array field in two places, which hand
every output they do not read inline to one checking helper, and checks
every call of a float form where it is made, its mean recursion sees no
covariance, the solve, the hybrid solve, the CLI and every test
module but one run without the per-belief wrappers, every CLI usage error
after parsing comes from the library, and the package stays within its
code-line budget."""

import ast
import io
import pathlib
import re
import sys
import tokenize

import odefilter
from odefilter import filtering

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "odefilter"


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_dependencies_are_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_modules(path)
        if name != "numpy" and name not in sys.stdlib_module_names
    }
    assert not foreign


def imported_names(path, module):
    """Names one source file imports from a relative import of ``module``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            yield from (alias.name for alias in node.names)


def test_solver_builds_no_covariance_map_of_its_own():
    # the solver's covariance steps go through _cov_map and _gain_map
    names = set(imported_names(PACKAGE / "solver.py", "filtering"))
    assert {"_cov_map", "_gain_map"} <= names
    forbidden = {"_symmetrize"}
    assert all(hasattr(filtering, name) for name in forbidden)  # a stale name never fails
    assert not names & forbidden


# The per-belief API, kept for its own tests and the benchmark's replay until
# the array kernels replace it; the solve, the hybrid solve, the CLI and every
# other test module run without it.
PER_BELIEF_WRAPPERS = {
    "GaussianBelief",
    "MeasurementModel",
    "predict",
    "update",
    "taylor_init",
    "fourier_init",
    "train_fourier",
    "predict_forward",
}


def names_in(node):
    """Every name, attribute and imported name (before any ``as``) under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.alias):
            yield child.name
        else:
            yield getattr(child, "id", getattr(child, "attr", None))


def test_the_solve_paths_name_no_per_belief_wrapper():
    assert all(hasattr(odefilter, name) for name in PER_BELIEF_WRAPPERS)  # a stale name never fails
    for module in ("solver.py", "cli.py"):
        tree = ast.parse((PACKAGE / module).read_text())
        assert not set(names_in(tree)) & PER_BELIEF_WRAPPERS, module
    # nor do the hybrid solve and the Fourier state-space model in their modules
    for module, name in (("hybrid.py", "hybrid_solve"), ("fourier.py", "fourier_state_space")):
        tree = ast.parse((PACKAGE / module).read_text())
        (function,) = [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert not set(names_in(function)) & PER_BELIEF_WRAPPERS, name
    # the rule sees a name by import, by attribute and by reference
    use = "from .filtering import update as u\nfiltering.predict(b)\nGaussianBelief(m, P)"
    assert set(names_in(ast.parse(use))) >= {"update", "predict", "GaussianBelief"}


def test_only_the_per_belief_api_tests_name_a_per_belief_wrapper():
    # tests/test_per_belief_api.py goes with the wrappers; every other test
    # module checks the maths on the array kernels, so it outlives them
    tests = pathlib.Path(__file__).resolve().parent
    named = {
        path.name: set(names_in(ast.parse(path.read_text()))) & PER_BELIEF_WRAPPERS
        for path in sorted(tests.glob("*.py"))
        if path.name != "test_per_belief_api.py"
    }
    assert len(named) > 10
    assert not {name: found for name, found in named.items() if found}


def relative_imports(path):
    """The package modules one source file imports relatively, by module name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # ``from . import problems`` names them as aliases
                yield from (alias.name for alias in node.names)
            else:
                yield node.module


def test_each_prior_builds_its_own_state_space_model():
    # the solver knows the StateSpaceModel interface, not the priors behind it,
    # and a prior needs nothing from the layers built on it
    assert not set(relative_imports(PACKAGE / "solver.py")) & {"taylor", "fourier"}
    for prior in ("taylor.py", "fourier.py"):
        assert not set(relative_imports(PACKAGE / prior)) & {"hybrid", "problems", "cli"}


def test_only_the_solver_rounds_step_counts():
    # the whole-number-of-steps rule lives in solver._n_steps; docstrings do not count
    rounding = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "round"
    }
    assert rounding == {"solver.py"}


def grid_tolerance_readers(node, owner="<module>"):
    """The innermost function or class around each read of GRID_TOL under node."""
    for child in ast.iter_child_nodes(node):
        if getattr(child, "id", getattr(child, "attr", None)) == "GRID_TOL":
            if isinstance(child.ctx, ast.Load):
                yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from grid_tolerance_readers(child, child.name if named else owner)


def test_one_function_reads_the_grid_tolerance():
    # the grid rule is solver._same_grid_point; every other grid check calls it
    readers = {
        (path.name, owner)
        for path in PACKAGE.glob("*.py")
        for owner in grid_tolerance_readers(ast.parse(path.read_text(), filename=str(path)))
    }
    assert readers == {("solver.py", "_same_grid_point")}
    assert "GRID_TOL" not in set(imported_names(PACKAGE / "cli.py", "solver"))


def test_registered_fields_are_float_code():
    # each problem writes its field once on floats; arrays are built and read
    # back only by the adapter that makes its array field and by the oracle's
    # wrapper around an array field
    def owners(node, path):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", "<lambda>" if isinstance(child, ast.Lambda) else None)
            inner = path + (name,) if name else path
            call = ast.unparse(child.func) if isinstance(child, ast.Call) else ""
            if call == "np.array" or call.endswith(".tolist"):
                yield ".".join(path)
            yield from owners(child, inner)

    tree = ast.parse((PACKAGE / "problems.py").read_text())
    assert set(owners(tree, ())) == {"_array_field.field", "rk4_reference.<lambda>"}


def field_callers(node, owner="<module>"):
    """The innermost function around each call of a name or attribute ``field`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) == "field":
                yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from field_callers(child, getattr(child, "name", "<lambda>") if named else owner)


def float_form_readers(node, owner="<module>"):
    """The innermost function around each read of the float form ``rhs`` under
    node: an attribute ``.rhs``, or a ``getattr`` or ``hasattr`` of the name "rhs"."""
    for child in ast.iter_child_nodes(node):
        by_name = (
            isinstance(child, ast.Call)
            and getattr(child.func, "id", None) in ("getattr", "hasattr")
            and any(isinstance(arg, ast.Constant) and arg.value == "rhs" for arg in child.args)
        )
        if by_name or getattr(child, "attr", None) == "rhs":
            yield owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from float_form_readers(child, getattr(child, "name", "<lambda>") if named else owner)


def float_form_calls(tree):
    """Each call of the float form under tree, as (line, checked): a call of an
    attribute ``rhs`` or of a name bound to a read of the float form, checked
    when it is the first argument of a ``_checked`` call."""
    names, checked = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                paired = isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                pairs = zip(target.elts, node.value.elts) if paired else [(target, node.value)]
                for bound, value in pairs:
                    if any(float_form_readers(ast.Expression(value))):
                        names |= {name.id for name in ast.walk(bound) if isinstance(name, ast.Name)}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked":
            checked.add(id(node.args[0]))
    return [
        (node.lineno, id(node) in checked)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "rhs" or getattr(node.func, "id", None) in names)
    ]


def field_calls(tree):
    """Each call of a name or attribute ``field`` under tree, as (line, read): read when
    its output is the first argument of a ``_read_output`` call, as the call itself or
    as a name it is bound to that such a call in the same function takes."""
    calls = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        nodes = list(ast.walk(function))
        read = [
            node.args[0]
            for node in nodes
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_read_output"
        ]
        read_names = {arg.id for arg in read if isinstance(arg, ast.Name)}
        bound = {id(node.value): node.targets for node in nodes if isinstance(node, ast.Assign)}
        for node in nodes:
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "field":
                names = {name.id for name in bound.get(id(node), ()) if isinstance(name, ast.Name)}
                passed = any(arg is node for arg in read) or bool(names & read_names)
                calls.append((node.lineno, passed))
    return calls


def test_the_solver_reads_every_field_output_where_it_calls_the_field():
    # _field_at and the pair kernel call an array field, and each hands what it
    # returns to _read_output, the pair kernel each output that is not a
    # float64 pair with a finite sum; only the pair kernel reads a registered
    # problem's float form ``rhs``, and _checked checks every output of it
    # where it is called
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    assert set(field_callers(tree)) == {"_field_at", "_pair_mean_loop"}
    calls = field_calls(tree)
    assert calls and all(read for _, read in calls), calls
    assert set(float_form_readers(tree)) == {"_pair_mean_loop"}
    calls = float_form_calls(tree)
    assert calls and all(checked for _, checked in calls), calls
    # the rule sees a read by name as well as by attribute
    for read in ('getattr(field, "rhs", None)', 'hasattr(field, "rhs")', "field.rhs"):
        assert set(float_form_readers(ast.parse(f"def loop(field):\n    {read}"))) == {"loop"}
    # and an unchecked call, of the bound name or of the attribute
    bind = 'def loop(field):\n    rhs, last = getattr(field, "rhs", None), None\n    '
    for call, checked in (
        ("z1, z2 = _checked(rhs(t, x1, x2), 2, t)", True),
        ("z1, z2 = rhs(t, x1, x2)", False),
        ("z1, z2 = _checked(field.rhs(t, x1, x2), 2, t)", True),
        ("z1, z2 = field.rhs(t, x1, x2)", False),
        ("z1, z2 = _checked(t, rhs(t, x1, x2), 2)", False),
    ):
        assert [seen for _, seen in float_form_calls(ast.parse(bind + call))] == [checked], call
    # and an array field's output that never reaches _read_output, called or bound
    for body, read in (
        ("return _read_output(field(m, t), m.size, t, floats)", True),
        ("z = field(x, t)\n    if z is None:\n        z = _read_output(z, 2, t)", True),
        ("return field(m, t)", False),
        ("z1, z2 = field(x, t)", False),
        ("z = field(x, t)\n    z1, z2 = z.tolist()", False),
        ("z = field(x, t)\n    y = _read_output(x, 2, t)", False),
        ("z = _read_output(self.field(x, t).copy(), 2, t)", False),
    ):
        tree = ast.parse(f"def loop(field):\n    {body}")
        assert [seen for _, seen in field_calls(tree)] == [read], body


def test_the_mean_recursion_sees_no_covariance():
    # the two mean kernels, found by name, take the same parameters, one
    # (K, S) per step among them, and reach neither the covariances, R nor
    # the covariance maps
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    kernels = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and re.fullmatch(r"_\w+_mean_loop", node.name)
    ]
    assert sorted(kernel.name for kernel in kernels) == ["_array_mean_loop", "_pair_mean_loop"]
    params = [[arg.arg for arg in kernel.args.args + kernel.args.kwonlyargs] for kernel in kernels]
    assert all(p == params[0] for p in params)
    assert not {"covs", "R"} & set(params[0])
    for kernel in kernels:
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(kernel)}
        assert not names & {"covs", "_cov_map", "_joseph"}, kernel.name


def test_the_cli_raises_no_usage_error_of_its_own():
    # argparse's parse errors stay; every later one is a library ContractViolation
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "error"
    ]
    assert not calls


# The most code lines the package may have, counted by ``code_lines``. Raising
# it takes a CHANGES.md line that gives the new count and why the lines are needed.
CODE_LINE_BUDGET = 1141

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source):
    """The lines of source that hold a token other than layout, a comment or a
    docstring: a string that is a statement of its own."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER)
    ]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:]):
        docstring = (
            tok.type == tokenize.STRING
            and (before is None or before.type in LAYOUT)
            and after.type == tokenize.NEWLINE
        )
        if tok.type not in LAYOUT and not docstring:
            lines |= set(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_the_package_stays_within_its_code_line_budget():
    assert code_lines('"""doc"""\n# note\n\nx = 1  # set\ny = """a\nb"""\n') == 3
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CODE_LINE_BUDGET, f"{total} code lines, budget {CODE_LINE_BUDGET}: {counts}"
