"""Predict and update kernels against hand-derived and batch oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import ContractViolation, ProjectionPair, SingularUpdateError, TransitionModel

from odefilter.filtering import ZERO_INNOVATION_TOL, _cov_map, _joseph, _passthrough

from conftest import (
    assert_covariance_hygiene,
    batch_gaussian_posterior,
    joseph_update,
    random_spd,
)


def test_predict_identity_transition_is_identity():
    mean, cov, A = np.array([5.0, -3.0]), np.eye(2), np.eye(2)
    assert np.array_equal(A @ mean, mean)
    assert np.array_equal(_cov_map(cov, A, np.zeros((2, 2))), cov)


def test_predict_taylor_step_from_zero_covariance():
    # expected values from direct matrix arithmetic: A m = [1+2, 2], cov = Q
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    assert np.array_equal(A @ np.array([1.0, 2.0]), np.array([3.0, 2.0]))
    assert np.allclose(_cov_map(np.zeros((2, 2)), A, Q), Q, rtol=0, atol=0)


def test_predict_rotation_preserves_isotropic_covariance():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    sigma2 = 2.5
    assert np.array_equal(A @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    cov = _cov_map(sigma2 * np.eye(2), A, np.zeros((2, 2)))
    assert np.allclose(cov, sigma2 * np.eye(2), atol=1e-15)


def test_update_exact_measurement():
    # scalar Kalman algebra: S=1, K=[1,0], Joseph zeroes row/col 0
    mean, cov = joseph_update(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), 0.0, 1.0)
    assert np.array_equal(mean, np.array([1.0, 0.0]))
    assert np.array_equal(cov, np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_update_noisy_measurement():
    # S=2, K=[1/2,0]: mean=[1,0], cov=[[1/2,0],[0,1]]
    mean, cov = joseph_update(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), 1.0, 2.0)
    assert np.allclose(mean, np.array([1.0, 0.0]), atol=0)
    assert np.allclose(cov, np.array([[0.5, 0.0], [0.0, 1.0]]), atol=0)


def test_update_zero_innovation_moves_nothing():
    mean = np.array([0.7, -1.2])
    h = np.array([1.0, 0.0])
    out, _ = joseph_update(mean, 2.0 * np.eye(2), h, 0.5, float(h @ mean))
    assert np.array_equal(out, mean)


def test_update_singular_with_zero_innovation_is_noop():
    mean, cov = np.zeros(2), np.zeros((2, 2))
    out_mean, out_cov = joseph_update(mean, cov, np.array([1.0, 0.0]), 0.0, 0.0)
    assert out_mean is mean and out_cov is cov


def test_update_singular_with_nonzero_innovation_raises():
    with pytest.raises(SingularUpdateError):
        joseph_update(np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0, 1.0)


@pytest.mark.parametrize(
    "z,raises", [(0.0, False), (-ZERO_INNOVATION_TOL, False), (2e-12, True), (np.nan, True)]
)
def test_passthrough_accepts_only_innovations_within_the_tolerance(z, raises):
    # a NaN innovation compares False with any bound, so it must fail "<= tol"
    M, h = np.zeros((1, 2)), np.array([0.0, 1.0])
    if raises:
        with pytest.raises(SingularUpdateError, match=f"innovation {abs(z):g}"):
            _passthrough(M, h, np.array([z]), 0.0)
    else:
        assert _passthrough(M, h, np.array([z]), 0.0) is None


@pytest.mark.parametrize("G", ["spd", "zero"])
def test_cov_map_on_a_stack_equals_the_per_matrix_map(G):
    rng = np.random.default_rng(11)
    D = 4
    Ps = np.array([random_spd(rng, D) for _ in range(6)])
    Fs = rng.normal(size=(6, D, D))
    G = random_spd(rng, D) if G == "spd" else 0.0

    def one(P, F):
        X = F @ P @ F.T + G
        return 0.5 * (X + X.T)

    assert np.array_equal(_cov_map(Ps, Fs[0], G), np.array([one(P, Fs[0]) for P in Ps]))
    assert np.array_equal(_cov_map(Ps[0], Fs, G), np.array([one(Ps[0], F) for F in Fs]))


def test_joseph_passthrough_has_no_gain():
    P0 = np.diag([0.0, 2.0])
    P, K, S = _joseph(P0, np.array([1.0, 0.0]), 0.0)
    assert P is P0 and K is None and S == 0.0


def test_transition_shape_validation():
    with pytest.raises(ContractViolation, match="square"):
        TransitionModel(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ContractViolation, match="square"):
        TransitionModel(np.ones(2), np.eye(2))
    with pytest.raises(ContractViolation, match="does not match"):
        TransitionModel(np.eye(2), np.eye(3))
    with pytest.raises(ContractViolation, match="symmetric"):
        TransitionModel(np.eye(2), np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_projection_pair_rows_have_equal_length():
    with pytest.raises(ContractViolation, match="equal length"):
        ProjectionPair(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]))


@given(seed=st.integers(0, 2**32 - 1), R=st.floats(0.0, 10.0), z=st.floats(-50.0, 50.0))
@settings(max_examples=100)
def test_update_never_inflates_measured_variance(seed, R, z):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    mean, cov = rng.normal(size=d), random_spd(rng, d)
    h = rng.normal(size=d)
    _, out = joseph_update(mean, cov, h, R, z)
    before = float(h @ cov @ h)
    after = float(h @ out @ h)
    assert after <= before + 1e-12
    assert_covariance_hygiene(out)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_joseph_exact_measurement_zeroes_coordinate(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    j = int(rng.integers(0, d))
    mean, cov = rng.normal(size=d), random_spd(rng, d)
    h = np.zeros(d)
    h[j] = 1.0
    _, out = joseph_update(mean, cov, h, 0.0, float(rng.normal()))
    assert np.max(np.abs(out[j, :])) <= 1e-12
    assert np.max(np.abs(out[:, j])) <= 1e-12


def test_sequential_updates_commute_and_match_batch_least_squares():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mean = rng.normal(size=4)
        cov = random_spd(rng, 4)
        h1, h2 = rng.normal(size=4), rng.normal(size=4)
        r1, r2 = rng.uniform(0.1, 1.0, size=2)
        z1, z2 = rng.normal(size=2)

        m12, P12 = joseph_update(*joseph_update(mean, cov, h1, r1, z1), h2, r2, z2)
        m21, P21 = joseph_update(*joseph_update(mean, cov, h2, r2, z2), h1, r1, z1)
        assert np.allclose(m12, m21, atol=1e-10)
        assert np.allclose(P12, P21, atol=1e-10)

        ref_mean, ref_cov = batch_gaussian_posterior(
            mean, cov, [h1, h2], [z1, z2], [r1, r2]
        )
        assert np.allclose(m12, ref_mean, atol=1e-10)
        assert np.allclose(P12, ref_cov, atol=1e-10)
