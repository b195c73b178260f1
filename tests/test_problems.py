"""Benchmark vector fields, the registry, and the RK4 reference oracle."""

import inspect
import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from odefilter import (
    ContractViolation,
    DivergedSolveError,
    IVProblem,
    TaylorParams,
    by_name,
    constant,
    fhn,
    linear,
    rk4_reference,
    solve,
    taylor_state_space,
    vdp,
)
from odefilter import problems
from odefilter.problems import REGISTRY, _array_field

from conftest import float_cube, numpy_fhn_field, numpy_rk4_means, numpy_vdp_field

EXP_MINUS_1 = 0.36787944117144233


def test_vdp_field_values():
    f = vdp(mu=5.0).field
    assert np.allclose(f(np.array([1.0, -1.0]), 0.0), [25.0 / 3.0, 0.2], rtol=1e-12)
    assert np.array_equal(f(np.array([0.0, 0.0]), 0.0), np.zeros(2))
    assert np.allclose(f(np.array([2.0, 0.0]), 0.0), [-10.0 / 3.0, 0.4], rtol=1e-12)


def test_vdp_defaults_and_validation():
    ivp = vdp()
    assert np.array_equal(ivp.x0, [1.0, -1.0])
    assert ivp.T == 50.0
    with pytest.raises(ContractViolation):
        vdp(mu=0.0)


def test_fhn_field_values():
    f = fhn().field
    out = f(np.array([1.0, 0.1]), 0.0)
    assert np.allclose(out, [1.0 - 1.0 / 3.0 - 0.1 + 0.5, 0.16], rtol=1e-12)
    assert np.allclose(f(np.array([0.0, 0.0]), 0.0), [0.5, 0.07], rtol=1e-12)
    assert np.array_equal(fhn(I=0.0, a=0.0).field(np.zeros(2), 0.0), np.zeros(2))
    with pytest.raises(ContractViolation):
        fhn(tau=0.0)


def test_fhn_default_is_the_printed_form_b_1():
    x = np.array([0.4, -0.3])
    assert same_bits(fhn().field(x, 0.0), fhn(b=1.0).field(x, 0.0))
    # the textbook form is b = 0.8
    standard = fhn(b=0.8).field(x, 0.0)
    assert standard[1] == pytest.approx((0.4 + 0.7 - 0.8 * (-0.3)) / 10.0, rel=1e-12)
    assert standard[1] != fhn().field(x, 0.0)[1]


def test_fhn_has_no_form_switch():
    assert list(inspect.signature(fhn).parameters) == ["I", "a", "b", "tau"]
    with pytest.raises(ContractViolation, match="does not accept"):
        by_name("fhn", standard=True)


def test_empty_initial_value_is_rejected():
    for x0 in ([], np.zeros((0, 2))):
        with pytest.raises(ContractViolation, match="non-empty"):
            IVProblem(lambda x, t: x, x0, 1.0, "e")


def test_registry_is_total_over_known_names():
    for name in ("vdp", "fhn", "linear", "constant", "cosine"):
        ivp = by_name(name)
        assert ivp.name == name
    assert set(REGISTRY) == {"vdp", "fhn", "linear", "constant", "cosine"}
    with pytest.raises(ContractViolation):
        by_name("lorenz")
    with pytest.raises(ContractViolation):
        by_name("vdp", tau=1.0)


def test_registry_horizon_override():
    assert by_name("vdp", T=10.0).T == 10.0
    assert by_name("linear").T == 2.0


def test_rk4_exponential_decay():
    traj = rk4_reference(by_name("linear", T=1.0), 1e-3)
    assert len(traj) == 1001
    assert abs(traj.value_means()[-1, 0] - EXP_MINUS_1) <= 1e-10


def test_rk4_constant_field():
    traj = rk4_reference(by_name("constant", T=2.0), 0.01)
    values = traj.value_means()[:, 0]
    assert np.array_equal(values, np.ones_like(values))


def test_constant_with_an_array_value_stays_put():
    # its field returned one zero for any state, so every solve and reference
    # on two coordinates raised "returned 1 components for a 2-dimensional state"
    ivp = constant(c=[1.0, 2.0])
    for traj in (
        solve(taylor_state_space(TaylorParams(1, 1.0)), ivp, 0.1, 0.0),
        rk4_reference(ivp, 0.01, h_out=0.1),
    ):
        assert len(traj) == 21
        assert np.array_equal(traj.value_means(), np.tile([1.0, 2.0], (21, 1)))


def test_rk4_harmonic_oscillator_round_trip():
    ivp = IVProblem(
        field=lambda x, t: np.array([x[1], -x[0]]),
        x0=np.array([1.0, 0.0]),
        T=2 * math.pi,
        name="harmonic",
    )
    h_ref = 2 * math.pi / 6284  # ~1e-3, commensurate with the horizon
    traj = rk4_reference(ivp, h_ref)
    final = traj.value_means()[-1]
    assert np.max(np.abs(final - [1.0, 0.0])) <= 1e-9
    energy = np.sum(traj.value_means() ** 2, axis=1)
    assert np.max(np.abs(energy - 1.0)) <= 1e-9


def test_rk4_self_convergence_is_fourth_order():
    ivp = by_name("vdp", T=5.0)
    truth = rk4_reference(ivp, 0.005, h_out=0.02).value_means()
    coarse = rk4_reference(ivp, 0.02, h_out=0.02).value_means()
    fine = rk4_reference(ivp, 0.01, h_out=0.02).value_means()
    e_coarse = np.max(np.abs(coarse - truth))
    e_fine = np.max(np.abs(fine - truth))
    assert e_coarse / e_fine >= 12.0


def test_rk4_diverges_loudly():
    ivp = IVProblem(
        field=lambda x, t: x**3, x0=np.array([4.0]), T=2.0, name="blowup"
    )
    with np.errstate(all="ignore"), pytest.raises(DivergedSolveError) as exc:
        rk4_reference(ivp, 0.01)
    assert exc.value.t > 0


def test_rk4_grid_validation():
    ivp = by_name("linear", T=1.0)
    with pytest.raises(ContractViolation):
        rk4_reference(ivp, 0.0)
    with pytest.raises(ContractViolation):
        rk4_reference(ivp, 0.003, h_out=0.01)  # not an integer multiple
    with pytest.raises(ContractViolation):
        rk4_reference(ivp, 0.02, h_out=0.01)  # h_out below h_ref


@pytest.mark.parametrize("off,accepted", [(5e-10, True), (5e-9, False)])
def test_rk4_reference_and_solve_share_one_grid_tolerance(off, accepted):
    # a step ratio off by `off` relative: t_end/h in solve, h_out/h_ref in the reference
    ivp = linear(T=1.0)
    runs = [
        lambda: solve(taylor_state_space(TaylorParams(1, 1.0)), ivp, 0.1 * (1 + off), 0.0),
        lambda: rk4_reference(ivp, 0.01 * (1 + off), h_out=0.1),
    ]
    for run in runs:
        if accepted:
            run()
        else:
            with pytest.raises(ContractViolation, match="not an integer number of steps"):
                run()


def same_bits(a, b) -> bool:
    """Equal float64 arrays bit for bit, sign of zero included; NaN matches NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


FIELD_PAIRS = {
    "vdp": (vdp(), numpy_vdp_field(5.0)),
    "vdp-mu": (vdp(mu=-0.3), numpy_vdp_field(-0.3)),
    "fhn": (fhn(), numpy_fhn_field()),
    "fhn-b": (fhn(I=-1.2, a=0.3, b=2.0, tau=3.0), numpy_fhn_field(-1.2, 0.3, 2.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("substeps", [1, 10])
def test_rk4_equals_the_numpy_loop_bitwise(name, substeps):
    ivp = by_name(name)
    h_ref = ivp.T / 2000
    reference_field = {"vdp": numpy_vdp_field(5.0), "fhn": numpy_fhn_field()}.get(name, ivp.field)
    expected = numpy_rk4_means(reference_field, ivp.x0, h_ref, substeps * h_ref, 2000 // substeps)
    (segment,) = rk4_reference(ivp, h_ref, h_out=substeps * h_ref).segments
    assert same_bits(segment.means, expected)


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("substeps", [1, 10])
def test_rk4_of_the_float_form_equals_rk4_of_the_array_field_bitwise(name, substeps):
    # a registered problem's reference calls its float form; the same field
    # hidden behind a plain function goes through the array-field wrapper
    ivp = by_name(name)
    assert callable(ivp.field.rhs)
    as_array = replace(ivp, field=lambda x, t: ivp.field(x, t))
    h_ref = ivp.T / 2000
    (float_form,) = rk4_reference(ivp, h_ref, h_out=substeps * h_ref).segments
    (array_field,) = rk4_reference(as_array, h_ref, h_out=substeps * h_ref).segments
    assert same_bits(float_form.means, array_field.means)


@pytest.mark.parametrize("pair", FIELD_PAIRS.values(), ids=FIELD_PAIRS.keys())
def test_fields_equal_the_numpy_scalar_forms_bitwise(pair):
    ivp, reference = pair
    rng = np.random.default_rng(7)
    states = rng.normal(size=(20000, 2)) * 10.0 ** rng.uniform(-3, 3, size=(20000, 2))
    nan, inf, big = math.nan, math.inf, 1.7976931348623157e308
    overflows = [  # x1**3 overflows: 5.7e102 is just past the edge, 5.6e102 just short of it
        [1e200, 0.5], [-1e200, 0.5], [1e200, -1e200],
        [5.7e102, 0.5], [-5.7e102, 0.5], [big, 0.5], [-big, 0.5],
    ]
    special = overflows + [
        [5.6e102, 0.5], [-5.6e102, 0.5], [0.5, 1e200],
        [nan, 1.0], [1.0, nan], [inf, 0.0], [-inf, 0.0], [0.0, -0.0], [-0.0, 0.0],
    ]
    states = np.concatenate([states, special])
    with np.errstate(all="ignore"):
        expected = [reference(x, 0.0) for x in states]
    got = [ivp.field(x, 0.0) for x in states]
    assert same_bits(got, expected)
    # an overflowing cube is inf, not OverflowError, so a diverging solve stays typed
    assert all(np.isinf(ivp.field(np.array(x), 0.0)[0]) for x in overflows)


@pytest.mark.parametrize("pair", FIELD_PAIRS.values(), ids=FIELD_PAIRS.keys())
def test_fields_take_object_states(pair):
    ivp, reference = pair
    for x in (
        np.array([0.5, -2.0], dtype=object),
        np.array([Fraction(1, 3), Fraction(-2, 7)], dtype=object),
    ):
        got, expected = ivp.field(x, 0.0), reference(x, 0.0)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()


def test_rk4_call_count_and_aliased_field_outputs():
    calls = []

    def fresh(x, t):
        calls.append((x, x.copy()))
        return np.array([x[1], -x[0]])

    def returns_its_input(x, t):
        x[0], x[1] = x[1], -x[0]
        return x

    cache = np.empty(2)

    def returns_a_cached_array(x, t):
        cache[0], cache[1] = x[1], -x[0]
        return cache

    ivp = IVProblem(field=fresh, x0=np.array([1.0, 0.0]), T=1.0, name="harmonic")
    (expected,) = rk4_reference(ivp, 0.01, h_out=0.05).segments
    substeps, n_out = 5, 20
    assert len(calls) == 4 * substeps * n_out + n_out + 1
    # every call gets its own float64 array, which nothing writes to afterwards
    assert len({id(x) for x, _ in calls}) == len(calls)
    assert all(x.dtype == np.float64 and np.array_equal(x, seen) for x, seen in calls)
    for field in (returns_its_input, returns_a_cached_array):
        (segment,) = rk4_reference(replace(ivp, field=field), 0.01, h_out=0.05).segments
        assert np.array_equal(segment.means, expected.means)


def test_rk4_calls_a_float_form_when_it_calls_an_array_field():
    # t = 0, four stage calls per substep and one derivative per record, on
    # the float path as on the array path that field_evals counts
    float_times, array_times = [], []

    def rhs(t, x1, x2):
        float_times.append(t)
        return x2, -x1

    def array(x, t):
        array_times.append(t)
        return np.array([x[1], -x[0]])

    ivp = IVProblem(_array_field(rhs, 2), [1.0, 0.0], 1.0, "harmonic")
    (float_path,) = rk4_reference(ivp, 0.01, h_out=0.05).segments
    (array_path,) = rk4_reference(replace(ivp, field=array), 0.01, h_out=0.05).segments
    assert same_bits(float_path.means, array_path.means)
    h, half, substeps, expected = 0.01, 0.5 * 0.01, 5, [0.0]
    for k in range(1, 21):
        for t in (s * h for s in range((k - 1) * substeps, k * substeps)):
            expected += [t, t + half, t + half, t + h]
        expected.append(k * 0.05)
    assert len(expected) == 4 * substeps * 20 + 20 + 1
    assert float_times == array_times == expected


@pytest.mark.parametrize("name,size", [("vdp", 2), ("fhn", 2), ("cosine", 1)])
def test_a_registered_problem_takes_only_an_x0_of_its_size(name, size):
    ivp = by_name(name)
    for wrong in (n for n in (size - 1, size + 1) if n):
        message = f"{name} takes an x0 of size {size}, got {wrong}"
        with pytest.raises(ContractViolation, match=message):
            replace(ivp, x0=[1.0] * wrong)
    # the check runs at construction, before the field is ever called
    calls = []
    spy = _array_field(lambda t, *x: calls.append(t) or x, size)
    with pytest.raises(ContractViolation, match=f"takes an x0 of size {size}, got {size + 1}"):
        IVProblem(spy, [1.0] * (size + 1), 1.0, name)
    assert not calls


@pytest.mark.parametrize("factory", [linear, constant])
def test_linear_and_constant_take_an_x0_of_any_size(factory):
    for d in (1, 2, 3):
        ivp = replace(factory(), x0=[0.5] * d)
        (segment,) = rk4_reference(ivp, 0.01, h_out=0.1).segments
        assert segment.means.shape == (21, d, 2)


def cubic_blowup(x, t):
    return np.array([x[0] ** 3, x[1]])


RK4_PAIR_INPUTS = {
    "vdp": vdp(),
    "fhn": fhn(),
    "vdp-array": replace(vdp(), field=lambda x, t: vdp().field(x, t)),
    "fhn-array": replace(fhn(), field=lambda x, t: fhn().field(x, t)),
    # the array field fails its contract at a stage; the float form runs on
    # to a non-finite state, which the record check catches
    "blowup-array": IVProblem(cubic_blowup, [4.0, 1.0], 2.0, "blowup"),
    "blowup-float": IVProblem(
        _array_field(lambda t, x1, x2: (float_cube(x1), x2)), [4.0, 1.0], 2.0, "blowup"
    ),
}


def rk4_outcome(ivp, h_ref, h_out):
    """The means of rk4_reference, or its error's type, message and t."""
    try:
        with np.errstate(all="ignore"):
            (segment,) = rk4_reference(ivp, h_ref, h_out=h_out).segments
    except (ContractViolation, DivergedSolveError) as err:
        return type(err), str(err), getattr(err, "t", None)
    return segment.means.tobytes()


@pytest.mark.parametrize("substeps", [1, 10])
@pytest.mark.parametrize("name", RK4_PAIR_INPUTS)
def test_the_rk4_kernels_agree_bitwise(monkeypatch, name, substeps):
    ivp = RK4_PAIR_INPUTS[name]
    h_ref = ivp.T / 2000
    pairs = rk4_outcome(ivp, h_ref, substeps * h_ref)
    monkeypatch.setattr(problems, "_rk4_pairs", problems._rk4_lists)
    lists = rk4_outcome(ivp, h_ref, substeps * h_ref)
    assert pairs == lists
    assert isinstance(pairs, bytes) == name.startswith(("vdp", "fhn"))


@pytest.mark.parametrize("name", ["vdp", "fhn"])
def test_the_rk4_kernels_run_on_their_own(name):
    # each kernel yields the state after every n substeps from substep 0 on
    rhs = RK4_PAIR_INPUTS[name].field.rhs
    x0 = RK4_PAIR_INPUTS[name].x0.tolist()
    for n in (1, 250):
        pairs = list(islice(problems._rk4_pairs(rhs, x0, n, 1e-3), 3))
        lists = list(islice(problems._rk4_lists(rhs, x0, n, 1e-3), 3))
        assert same_bits(pairs, lists)
        for x, before in zip(pairs, [x0] + pairs):
            assert all(type(v) is float for v in x) and x != before


@pytest.mark.parametrize("d,kernel", [(1, "_rk4_lists"), (2, "_rk4_pairs"), (3, "_rk4_lists")])
def test_the_rk4_kernel_follows_the_coordinate_count(monkeypatch, d, kernel):
    ran = []

    def spy(name):
        run = getattr(problems, name)
        return lambda *args: ran.append(name) or run(*args)

    for name in ("_rk4_pairs", "_rk4_lists"):
        monkeypatch.setattr(problems, name, spy(name))
    rk4_reference(linear(x0=[1.0] * d, T=1.0), 0.01, h_out=0.1)
    assert ran == [kernel]  # one kernel runs the whole grid
