"""Integrated-Brownian-motion transition, projections, and initial belief."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import (
    ContractViolation,
    IVProblem,
    TaylorParams,
    ibm_transition,
    taylor_projections,
    taylor_state_space,
    vdp,
)

from conftest import loop_ibm_transition

# Frozen from an exact-fraction evaluation of the transition formulas at
# q=2, h=1/2: Q = [[1/640, 1/128, 1/48], [1/128, 1/24, 1/8], [1/48, 1/8, 1/2]].
Q_Q2_H05 = np.array(
    [
        [0.0015625, 0.0078125, 0.020833333333333332],
        [0.0078125, 0.041666666666666664, 0.125],
        [0.020833333333333332, 0.125, 0.5],
    ]
)
A_Q2_H05 = np.array([[1.0, 0.5, 0.125], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])


def test_unit_step_matrices():
    trans = ibm_transition(1.0, TaylorParams(1, 1.0))
    assert np.array_equal(trans.A, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(trans.Q, np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]]))


def test_vanishing_step_limit():
    trans = ibm_transition(1e-8, TaylorParams(1, 1.0))
    assert np.max(np.abs(trans.A - np.eye(2))) <= 1e-8
    assert np.max(np.abs(trans.Q)) <= 1e-8


def test_q2_matrices_match_independent_evaluation():
    trans = ibm_transition(0.5, TaylorParams(2, 1.0))
    assert np.allclose(trans.A, A_Q2_H05, rtol=1e-15, atol=0)
    assert np.allclose(trans.Q, Q_Q2_H05, rtol=1e-15, atol=0)
    assert trans.Q[2, 2] == 0.5
    assert trans.Q[0, 0] == 1.5625e-3


@pytest.mark.parametrize("q", range(1, 31))
def test_closed_form_equals_the_double_loop_bitwise(q):
    for h in np.geomspace(1e-3, 1.7, 9):
        for sigma2 in (0.3, 1.0, 7.5):
            trans = ibm_transition(h, TaylorParams(q, sigma2))
            A, Q = loop_ibm_transition(h, q, sigma2)
            assert np.array_equal(trans.A, A) and np.array_equal(trans.Q, Q)


def test_invalid_arguments():
    with pytest.raises(ContractViolation):
        ibm_transition(0.0, TaylorParams(1, 1.0))
    with pytest.raises(ContractViolation):
        ibm_transition(-0.1, TaylorParams(1, 1.0))
    for h in (1e40, np.float64(1e40)):  # h^9 beyond float range
        with pytest.raises(ContractViolation, match=r"h=1e\+40.*q=4"):
            ibm_transition(h, TaylorParams(4, 1.0))
    with pytest.raises(ContractViolation):
        TaylorParams(0, 1.0)
    with pytest.raises(ContractViolation):
        TaylorParams(1, 0.0)


@pytest.mark.parametrize("h", [1e-3, 0.01, 1.0, 1.7])
def test_denominators_beyond_float_range_are_a_contract_violation(h):
    # (2q+1)(q!)^2 leaves float range at q = 98 whatever h is; q = 97 still builds
    with pytest.raises(ContractViolation, match=rf"h={h:g}.*q=98"):
        ibm_transition(h, TaylorParams(98, 1.0))
    trans = ibm_transition(h, TaylorParams(97, 1.0))
    A, Q = loop_ibm_transition(h, 97, 1.0)
    assert np.array_equal(trans.A, A) and np.array_equal(trans.Q, Q)


def test_projections_select_value_and_derivative():
    pair = taylor_projections(1)
    assert np.array_equal(pair.H0, np.array([1.0, 0.0]))
    assert np.array_equal(pair.H, np.array([0.0, 1.0]))
    pair = taylor_projections(2)
    assert np.array_equal(pair.H0, np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(pair.H, np.array([0.0, 1.0, 0.0]))


@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
def test_projection_selector_semantics(a, b):
    pair = taylor_projections(1)
    state = np.array([a, b])
    assert float(pair.H0 @ state) == a
    assert float(pair.H @ state) == b


def taylor_init_arrays(x0, dx0, q):
    """The init means (1, q+1) and covariance of a one-coordinate Taylor solve
    from x(0) = x0 whose field gives x'(0) = dx0."""
    ivp = IVProblem(lambda x, t: np.array([dx0]), np.array([x0]), 1.0, "init")
    return taylor_state_space(TaylorParams(q, 1.0)).init(ivp)


def test_init_belief():
    M, P = taylor_init_arrays(1.0, -1.0, 1)
    assert np.array_equal(M[0], np.array([1.0, -1.0]))
    assert np.array_equal(P, 1e-12 * np.eye(2))

    M, _ = taylor_init_arrays(0.0, 0.0, 2)
    assert np.array_equal(M[0], np.zeros(3))

    # first coordinate of the Van der Pol field at x(0) = [1, -1], mu = 5
    M, _ = taylor_state_space(TaylorParams(1, 1.0)).init(vdp(mu=5.0))
    assert M[0, 1] == pytest.approx(25.0 / 3.0, rel=1e-15)


@given(
    h1=st.floats(1e-3, 1.0),
    h2=st.floats(1e-3, 1.0),
    q=st.integers(1, 3),
)
@settings(max_examples=200)
def test_transition_semigroup(h1, h2, q):
    params = TaylorParams(q, 1.0)
    a1 = ibm_transition(h1, params).A
    a2 = ibm_transition(h2, params).A
    a12 = ibm_transition(h1 + h2, params).A
    assert np.max(np.abs(a1 @ a2 - a12)) <= 1e-12


@given(h=st.floats(1e-6, 2.0), q=st.integers(1, 3), sigma2=st.floats(0.1, 10.0))
@settings(max_examples=200)
def test_process_noise_symmetric_psd(h, q, sigma2):
    Q = ibm_transition(h, TaylorParams(q, sigma2)).Q
    assert np.array_equal(Q, Q.T)
    eig = np.linalg.eigvalsh(Q)
    assert eig.min() >= -1e-10 * np.max(np.abs(eig))


@given(c=st.floats(1e-3, 1e3), h=st.floats(1e-3, 2.0), q=st.integers(1, 3))
def test_variance_scale_is_exactly_linear(c, h, q):
    q_unit = ibm_transition(h, TaylorParams(q, 1.0)).Q
    q_scaled = ibm_transition(h, TaylorParams(q, c)).Q
    assert np.array_equal(q_scaled, c * q_unit)


@given(x=st.floats(-1e3, 1e3), v=st.floats(-1e3, 1e3), h=st.floats(1e-3, 1.0))
def test_mean_prediction_is_taylor_expansion(x, v, h):
    M, _ = taylor_init_arrays(x, v, 1)
    mean = ibm_transition(h, TaylorParams(1, 1.0)).A @ M[0]
    assert mean[0] == x + h * v
    assert mean[1] == v
