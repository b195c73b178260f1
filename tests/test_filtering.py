"""Predict/update primitives against hand-derived and batch oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import (
    ContractViolation,
    GaussianBelief,
    MeasurementModel,
    ProjectionPair,
    SingularUpdateError,
    TransitionModel,
    predict,
    update,
)

from odefilter.filtering import _cov_map, _gain_update, _joseph

from conftest import assert_belief_hygiene, batch_gaussian_posterior, random_spd


def test_predict_identity_transition_is_identity():
    belief = GaussianBelief(np.array([5.0, -3.0]), np.eye(2))
    out = predict(belief, TransitionModel(np.eye(2), np.zeros((2, 2))))
    assert np.array_equal(out.mean, belief.mean)
    assert np.array_equal(out.cov, belief.cov)


def test_predict_taylor_step_from_zero_covariance():
    # expected values from direct matrix arithmetic: A m = [1+2, 2], cov = Q
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
    belief = GaussianBelief(np.array([1.0, 2.0]), np.zeros((2, 2)))
    out = predict(belief, TransitionModel(A, Q))
    assert np.array_equal(out.mean, np.array([3.0, 2.0]))
    assert np.allclose(out.cov, Q, rtol=0, atol=0)


def test_predict_rotation_preserves_isotropic_covariance():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    sigma2 = 2.5
    belief = GaussianBelief(np.array([1.0, 0.0]), sigma2 * np.eye(2))
    out = predict(belief, TransitionModel(A, np.zeros((2, 2))))
    assert np.array_equal(out.mean, np.array([0.0, 1.0]))
    assert np.allclose(out.cov, sigma2 * np.eye(2), atol=1e-15)


def test_predict_dimension_mismatch():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(ContractViolation):
        predict(belief, TransitionModel(np.eye(3), np.zeros((3, 3))))


def test_predict_leaves_inputs_unchanged():
    mean = np.array([1.0, 2.0])
    cov = np.eye(2)
    belief = GaussianBelief(mean.copy(), cov.copy())
    trans = TransitionModel(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1 * np.eye(2))
    predict(belief, trans)
    assert np.array_equal(belief.mean, mean)
    assert np.array_equal(belief.cov, cov)


def test_update_exact_measurement():
    # scalar Kalman algebra: S=1, K=[1,0], Joseph zeroes row/col 0
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    out = update(belief, MeasurementModel(np.array([1.0, 0.0]), 0.0), 1.0)
    assert np.array_equal(out.mean, np.array([1.0, 0.0]))
    assert np.array_equal(out.cov, np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_update_noisy_measurement():
    # S=2, K=[1/2,0]: mean=[1,0], cov=[[1/2,0],[0,1]]
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    out = update(belief, MeasurementModel(np.array([1.0, 0.0]), 1.0), 2.0)
    assert np.allclose(out.mean, np.array([1.0, 0.0]), atol=0)
    assert np.allclose(out.cov, np.array([[0.5, 0.0], [0.0, 1.0]]), atol=0)


def test_update_zero_innovation_moves_nothing():
    mean = np.array([0.7, -1.2])
    belief = GaussianBelief(mean, 2.0 * np.eye(2))
    meas = MeasurementModel(np.array([1.0, 0.0]), 0.5)
    out = update(belief, meas, float(meas.H @ mean))
    assert np.array_equal(out.mean, mean)


def test_update_singular_with_zero_innovation_is_noop():
    belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
    out = update(belief, MeasurementModel(np.array([1.0, 0.0]), 0.0), 0.0)
    assert out is belief


def test_update_singular_with_nonzero_innovation_raises():
    belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(SingularUpdateError):
        update(belief, MeasurementModel(np.array([1.0, 0.0]), 0.0), 1.0)


def test_update_composes_the_covariance_and_mean_kernels():
    # the covariance and gain come from the covariance alone; z moves only the mean
    rng = np.random.default_rng(7)
    mean, cov, h = rng.normal(size=4), random_spd(rng, 4), rng.normal(size=4)
    P, K, S = _joseph(cov, h, 0.2)
    assert S == float(h @ (cov @ h)) + 0.2
    assert np.array_equal(K, cov @ h / S)
    for z in (-3.0, 0.0, 11.0):
        out = update(GaussianBelief(mean, cov), MeasurementModel(h, 0.2), z)
        assert np.array_equal(out.cov, P)
        assert np.array_equal(out.mean, _gain_update(mean, h, z, K))
    # a stack of means moves row by row as each lone mean would, bit for bit
    means, zs = rng.normal(size=(6, 4)), rng.normal(size=6)
    stacked = _gain_update(means, h, zs, K)
    assert stacked.shape == means.shape
    for row, m, z in zip(stacked, means, zs):
        assert np.array_equal(row, _gain_update(m, h, float(z), K))


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


def test_update_dimension_mismatch():
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises(ContractViolation):
        update(belief, MeasurementModel(np.array([1.0, 0.0, 0.0]), 0.0), 1.0)


def test_negative_measurement_noise_rejected():
    with pytest.raises(ContractViolation):
        MeasurementModel(np.array([1.0, 0.0]), -0.1)


def test_belief_shape_validation():
    with pytest.raises(ContractViolation):
        GaussianBelief(np.zeros(2), np.eye(3))
    with pytest.raises(ContractViolation):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.1], [0.2, 1.0]]))
    with pytest.raises(ContractViolation, match="vector"):
        GaussianBelief(np.zeros((2, 1)), np.eye(2))


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
    belief = GaussianBelief(rng.normal(size=d), random_spd(rng, d))
    h = rng.normal(size=d)
    meas = MeasurementModel(h, R)
    out = update(belief, meas, z)
    before = float(h @ belief.cov @ h)
    after = float(h @ out.cov @ h)
    assert after <= before + 1e-12
    assert_belief_hygiene(out)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_joseph_exact_measurement_zeroes_coordinate(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    j = int(rng.integers(0, d))
    belief = GaussianBelief(rng.normal(size=d), random_spd(rng, d))
    h = np.zeros(d)
    h[j] = 1.0
    out = update(belief, MeasurementModel(h, 0.0), float(rng.normal()))
    assert np.max(np.abs(out.cov[j, :])) <= 1e-12
    assert np.max(np.abs(out.cov[:, j])) <= 1e-12


def test_sequential_updates_commute_and_match_batch_least_squares():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mean = rng.normal(size=4)
        cov = random_spd(rng, 4)
        belief = GaussianBelief(mean, cov)
        h1, h2 = rng.normal(size=4), rng.normal(size=4)
        r1, r2 = rng.uniform(0.1, 1.0, size=2)
        z1, z2 = rng.normal(size=2)
        m1, m2 = MeasurementModel(h1, r1), MeasurementModel(h2, r2)

        b12 = update(update(belief, m1, z1), m2, z2)
        b21 = update(update(belief, m2, z2), m1, z1)
        assert np.allclose(b12.mean, b21.mean, atol=1e-10)
        assert np.allclose(b12.cov, b21.cov, atol=1e-10)

        ref_mean, ref_cov = batch_gaussian_posterior(
            mean, cov, [h1, h2], [z1, z2], [r1, r2]
        )
        assert np.allclose(b12.mean, ref_mean, atol=1e-10)
        assert np.allclose(b12.cov, ref_cov, atol=1e-10)
