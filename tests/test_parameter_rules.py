"""Integer and finite parameters: one rule each, one error type for every bad value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import (
    ContractViolation,
    FourierParams,
    HybridConfig,
    IVProblem,
    TaylorParams,
    TrainNoise,
    TrainPolicy,
    bessel_i,
    by_name,
    constant,
    cosine,
    fhn,
    fourier_transition,
    hybrid_solve,
    ibm_transition,
    linear,
    rk4_reference,
    solve,
    taylor_projections,
    taylor_state_space,
    vdp,
)
from odefilter.cli import run_converge

NAN, INF = math.nan, math.inf
TAYLOR = TaylorParams(1, 1.0)
FOURIER = FourierParams(1, 1.0, 3.0, 1.0)
LINEAR = linear(T=1.0)
SSM = taylor_state_space(TAYLOR)


# The sites that check the integer rule themselves.
INTEGER_RULE_SITES = {
    "TaylorParams.q": lambda v: TaylorParams(v, 1.0),
    "FourierParams.J": lambda v: FourierParams(v, 1.0, 3.0, 1.0),
    "taylor_projections.q": taylor_projections,
    "bessel_i.j": lambda v: bessel_i(v, 1.0),
}
# Every public constructor or entry point taking an integer parameter, as a
# function of that one parameter; the others hold valid values.
INTEGER_PARAMETERS = {
    **INTEGER_RULE_SITES,
    "TrainPolicy.stride": lambda v: TrainPolicy("values_stride", v),
    "run_converge.q": lambda v: run_converge("linear", v, [0.1, 0.05, 0.025], 1.0, 1.0),
}

# NaN and inf are no integers, and a stride must be one before it slices.
BAD_INTEGERS = [(name, v) for name in INTEGER_RULE_SITES for v in (NAN, INF)] + [
    ("TrainPolicy.stride", v) for v in (2.5, NAN, INF)
]


@pytest.mark.parametrize("name,value", BAD_INTEGERS, ids=[f"{n}={v}" for n, v in BAD_INTEGERS])
def test_a_bad_integer_parameter_is_a_contract_violation(name, value):
    build = INTEGER_PARAMETERS[name]
    with pytest.raises(ContractViolation, match=r"must be an integer >= \d, got "):
        build(value)


@pytest.mark.parametrize("value", ["1", None])
@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_a_non_number_integer_parameter_is_a_contract_violation(name, value):
    # the integer rule runs before any comparison a non-number would fail with TypeError
    with pytest.raises(ContractViolation, match="must be an integer"):
        INTEGER_PARAMETERS[name](value)


def test_integral_floats_are_stored_as_ints():
    assert type(TaylorParams(2.0, 1.0).q) is int
    assert type(FourierParams(3.0, 1.0, 3.0, 1.0).J) is int
    assert type(TrainPolicy("values_stride", 2.0).stride) is int
    assert bessel_i(2.0, 1.0) == bessel_i(2, 1.0)
    assert np.array_equal(taylor_projections(2.0).H, taylor_projections(2).H)


def test_an_integral_float_stride_trains():
    def run(stride):
        policy = TrainPolicy("values_stride", stride)
        return hybrid_solve(HybridConfig(TAYLOR, FOURIER, 0.5, 0.1, train_policy=policy), LINEAR)

    assert np.array_equal(run(2.0).value_means(), run(2).value_means())


def test_stride_is_checked_only_under_values_stride():
    assert TrainPolicy("values_all", NAN).kind == "values_all"
    # the same rule for the jitter, which only fixed_jitter reads
    assert TrainNoise("taylor_variance", NAN).kind == "taylor_variance"


# The same for every parameter that must be finite.
FINITE_PARAMETERS = {
    "TaylorParams.sigma2": lambda v: TaylorParams(1, v),
    "FourierParams.w0": lambda v: FourierParams(1, v, 3.0, 1.0),
    "FourierParams.l": lambda v: FourierParams(1, 1.0, v, 1.0),
    "FourierParams.sigma2": lambda v: FourierParams(1, 1.0, 3.0, v),
    "TrainNoise.jitter": lambda v: TrainNoise("fixed_jitter", v),
    "HybridConfig.T_p": lambda v: HybridConfig(TAYLOR, FOURIER, T_p=v, h=0.1),
    "HybridConfig.h": lambda v: HybridConfig(TAYLOR, FOURIER, T_p=0.5, h=v),
    "HybridConfig.R": lambda v: HybridConfig(TAYLOR, FOURIER, T_p=0.5, h=0.1, R=v),
    "IVProblem.T": lambda v: IVProblem(lambda x, t: -x, np.ones(1), v, "p"),
    "IVProblem.x0": lambda v: IVProblem(lambda x, t: -x, np.array([v]), 1.0, "p"),
    "solve.h": lambda v: solve(SSM, LINEAR, v, 0.0),
    "solve.R": lambda v: solve(SSM, LINEAR, 0.1, v),
    "solve.t_end": lambda v: solve(SSM, LINEAR, 0.1, 0.0, t_end=v),
    "ibm_transition.h": lambda v: ibm_transition(v, TAYLOR),
    "fourier_transition.h": lambda v: fourier_transition(v, FOURIER),
    "bessel_i.z": lambda v: bessel_i(0, v),
    "rk4_reference.h_ref": lambda v: rk4_reference(LINEAR, v),
    "rk4_reference.h_out": lambda v: rk4_reference(LINEAR, 0.1, h_out=v),
    "vdp.mu": lambda v: vdp(mu=v),
    "fhn.I": lambda v: fhn(I=v),
    "fhn.tau": lambda v: fhn(tau=v),
    "linear.x0": lambda v: linear(x0=v),
    "linear.T": lambda v: linear(T=v),
    "constant.c": lambda v: constant(c=v),
    "cosine.T": lambda v: cosine(T=v),
    "by_name.T": lambda v: by_name("linear", T=v),
}

NON_FINITE = st.sampled_from([NAN, INF, -INF])
NON_INTEGRAL = NON_FINITE | st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: v != int(v)
)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(INTEGER_PARAMETERS)), value=NON_INTEGRAL)
def test_integer_parameters_reject_only_with_contract_violations(name, value):
    with pytest.raises(ContractViolation):
        INTEGER_PARAMETERS[name](value)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(FINITE_PARAMETERS)), value=NON_FINITE)
def test_finite_parameters_reject_only_with_contract_violations(name, value):
    with pytest.raises(ContractViolation):
        FINITE_PARAMETERS[name](value)


# A parameter is a real number, numpy scalars included, and nothing else;
# so is every entry of the array-valued rows (x0, c), which numpy alone
# would read from the string "0.5".
@pytest.mark.parametrize("name", sorted(FINITE_PARAMETERS))
def test_a_non_number_scalar_parameter_is_a_contract_violation(name):
    FINITE_PARAMETERS[name](np.float64(0.5))  # 0.5 is a valid value for every row
    with pytest.raises(ContractViolation):
        FINITE_PARAMETERS[name]("0.5")


def test_an_initial_value_must_hold_numbers_bools_included():
    field = lambda x, t: -x  # noqa: E731
    with pytest.raises(ContractViolation, match="real numbers"):
        IVProblem(field, ["1", "2"], 1.0, "p")
    with pytest.raises(ContractViolation, match="real numbers"):
        IVProblem(field, np.array([1.0 + 0j]), 1.0, "p")
    with pytest.raises(ContractViolation, match="real numbers"):  # ragged
        IVProblem(field, [[1.0], []], 1.0, "p")
    assert np.array_equal(IVProblem(field, [True, 2], 1.0, "p").x0, [1.0, 2.0])
    assert IVProblem(field, np.arange(2, dtype=np.uint8), 1.0, "p").x0.dtype == float
