"""The package imports nothing beyond numpy and the standard library, the
covariance arithmetic stays behind ``filtering``'s covariance map, each
prior builds its own state-space model, step counts are rounded in one
place, one function reads the grid tolerance, the registered vector fields
are float code, the solver calls a field in one place, and every CLI usage
error after parsing comes from the library."""

import ast
import pathlib
import sys

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
    assert not names & {"_identity", "_symmetrize"}


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


def test_the_solver_calls_the_field_only_through_field_at():
    # both mean kernels hand the field a fresh array through _field_at, which
    # checks what it returns; neither reaches for the float form ``rhs``
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    assert set(field_callers(tree)) == {"_field_at"}
    assert not [node.lineno for node in ast.walk(tree) if getattr(node, "attr", None) == "rhs"]


def test_the_cli_raises_no_usage_error_of_its_own():
    # argparse's parse errors stay; every later one is a library ContractViolation
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "error"
    ]
    assert not calls
