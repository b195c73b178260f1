"""Fourier SSM: Bessel weights, rotation dynamics, projections, GP equivalence."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import (
    ContractViolation,
    FourierParams,
    bessel_i,
    fourier_projections,
    fourier_transition,
    fourier_weights,
)

from odefilter.filtering import _cov_map
from odefilter.fourier import _fourier_prior, _rotated_row, _rotation

from conftest import batch_gaussian_posterior, joseph_update, random_spd, rotation_matrix

# High-precision values of I_0(1), I_1(1/9), and 2 I_1(1/9)/exp(1/9),
# frozen from a 30-digit mpmath evaluation.
I0_AT_1 = 1.2660658777520084
I1_AT_NINTH = 0.055641333550721706
Q1SQ_L3 = 0.09958010580233657


def test_bessel_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(5, 0.0) == 0.0


def test_bessel_reference_values():
    assert bessel_i(0, 1.0) == pytest.approx(I0_AT_1, rel=1e-14)
    assert bessel_i(1, 1.0 / 9.0) == pytest.approx(I1_AT_NINTH, rel=1e-14)


def test_bessel_matches_scipy_over_kernel_range():
    for j in range(9):
        for z in np.linspace(0.0, 2.0, 41):
            ref = scipy.special.iv(j, z)
            assert abs(bessel_i(j, float(z)) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_bessel_invalid_arguments():
    with pytest.raises(ContractViolation):
        bessel_i(-1, 1.0)
    with pytest.raises(ContractViolation):
        bessel_i(0, -0.5)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_bessel_non_finite_argument_rejected(z):
    with pytest.raises(ContractViolation, match="finite"):
        bessel_i(0, z)


def test_bessel_matches_scaled_scipy_at_short_lengthscales():
    # z = l^-2 up to 625: the terms grow until k ~ z/2, far past a fixed cap
    for l in np.geomspace(0.04, 10.0, 61):
        z = float(l) ** -2
        for j in range(21):
            ref = scipy.special.ive(j, z)
            assert abs(bessel_i(j, z) / math.exp(z) - ref) <= 1e-12 * ref, (l, j)


@pytest.mark.parametrize("l", [0.1, 0.05])
def test_weights_at_short_lengthscales(l):
    w = fourier_weights(FourierParams(3, 1.0, l, 1.0))
    ref = scipy.special.ive(np.arange(4), l**-2) * np.array([1.0, 2.0, 2.0, 2.0])
    assert np.allclose(w, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("J,l", [(3, 0.03), (2000, 3.0)], ids=["exp-overflow", "underflow"])
def test_weights_beyond_float_range_rejected(J, l):
    with pytest.raises(ContractViolation, match="float range"):
        fourier_weights(FourierParams(J, 1.0, l, 1.0))


def test_weights_reference_value():
    w = fourier_weights(FourierParams(3, 1.0, 3.0, 1.0))
    assert w[1] == pytest.approx(Q1SQ_L3, rel=1e-12)
    assert np.all(w > 0)


def test_weights_long_lengthscale_limit():
    w = fourier_weights(FourierParams(3, 1.0, 1e6, 1.0))
    assert w[0] == pytest.approx(1.0, rel=1e-6)
    assert np.all(w[1:] <= 1e-11)


def test_weights_scale_linearly_in_variance():
    base = fourier_weights(FourierParams(3, 1.0, 3.0, 1.0))
    scaled = fourier_weights(FourierParams(3, 1.0, 3.0, 4.0))
    assert np.allclose(scaled, 4.0 * base, rtol=1e-15)


def test_weights_sum_to_kernel_variance():
    # I_0(z) + 2 sum_j I_j(z) = exp(z), so the q_j^2 sum to sigma2 as J grows
    w = fourier_weights(FourierParams(12, 1.0, 3.0, 1.0))
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


def test_transition_quarter_turn():
    trans = fourier_transition(math.pi / 2, FourierParams(1, 1.0, 3.0, 1.0))
    assert np.allclose(trans.A[:2, :2], np.eye(2), atol=0)
    assert np.allclose(trans.A[2:, 2:], np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)
    assert np.array_equal(trans.Q, np.zeros((4, 4)))


def test_transition_full_period_is_identity():
    trans = fourier_transition(2 * math.pi, FourierParams(2, 1.0, 3.0, 1.0))
    assert np.max(np.abs(trans.A - np.eye(6))) <= 1e-12


def test_transition_trig_entries():
    trans = fourier_transition(0.25, FourierParams(1, 2.0, 3.0, 1.0))
    # theta_1 = 0.5; cos/sin frozen from mpmath
    block = np.array(
        [[0.8775825618903728, -0.479425538604203], [0.479425538604203, 0.8775825618903728]]
    )
    assert np.allclose(trans.A[2:, 2:], block, rtol=1e-15)


def test_projections_match_series_layout():
    pair = fourier_projections(FourierParams(3, 1.0, 3.0, 1.0))
    assert np.array_equal(pair.H0, np.array([1.0, 0, 1, 0, 1, 0, 1, 0]))
    assert np.array_equal(pair.H, np.array([0.0, 0, 0, -1, 0, -2, 0, -3]))

    pair = fourier_projections(FourierParams(0, 5.0, 3.0, 1.0))
    assert np.array_equal(pair.H0, np.array([1.0, 0.0]))
    assert np.array_equal(pair.H, np.array([0.0, 0.0]))

    pair = fourier_projections(FourierParams(2, 3.0, 3.0, 1.0))
    assert np.array_equal(pair.H, np.array([0.0, 0, 0, -3, 0, -6]))


def test_init_prior():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    mean, cov = _fourier_prior(params)
    w = fourier_weights(params)
    assert np.array_equal(mean, np.zeros(4))
    assert np.array_equal(cov, np.diag([w[0], w[0], w[1], w[1]]))
    assert cov[2, 2] == pytest.approx(Q1SQ_L3, rel=1e-12)

    _, cov0 = _fourier_prior(FourierParams(0, 1.0, 3.0, 1.0))
    assert np.array_equal(cov0, w[0] * np.eye(2))


def test_prior_value_variance_is_weight_sum():
    params = FourierParams(3, 1.0, 3.0, 1.0)
    _, cov = _fourier_prior(params)
    H0 = fourier_projections(params).H0
    assert float(H0 @ cov @ H0) == pytest.approx(
        float(np.sum(fourier_weights(params))), rel=1e-15
    )


@given(
    h1=st.floats(1e-3, 5.0),
    h2=st.floats(1e-3, 5.0),
    J=st.integers(0, 4),
    w0=st.floats(0.1, 5.0),
)
@settings(max_examples=150)
def test_rotation_semigroup(h1, h2, J, w0):
    params = FourierParams(J, w0, 3.0, 1.0)
    a1 = fourier_transition(h1, params).A
    a2 = fourier_transition(h2, params).A
    a12 = fourier_transition(h1 + h2, params).A
    assert np.max(np.abs(a1 @ a2 - a12)) <= 1e-12


@given(h=st.floats(1e-3, 10.0), J=st.integers(0, 4), w0=st.floats(0.1, 5.0))
@settings(max_examples=150)
def test_rotation_orthogonality(h, J, w0):
    A = fourier_transition(h, FourierParams(J, w0, 3.0, 1.0)).A
    assert np.max(np.abs(A.T @ A - np.eye(A.shape[0]))) <= 1e-12


def test_predict_preserves_isotropic_value_variance():
    params = FourierParams(3, 1.3, 2.0, 1.0)
    _, cov = _fourier_prior(params)
    H0 = fourier_projections(params).H0
    before = float(H0 @ cov @ H0)
    for h in (0.1, 0.7, 2.3):
        trans = fourier_transition(h, params)
        out = _cov_map(cov, trans.A, trans.Q)
        assert float(H0 @ out @ H0) == pytest.approx(before, rel=1e-12)


def test_zero_diffusion_predict_only_rotates_covariance():
    rng = np.random.default_rng(3)
    params = FourierParams(2, 0.9, 3.0, 1.0)
    cov = random_spd(rng, 6)
    trans = fourier_transition(0.37, params)
    out = _cov_map(cov, trans.A, trans.Q)
    before = np.sort(np.linalg.eigvalsh(cov))
    after = np.sort(np.linalg.eigvalsh(out))
    assert np.max(np.abs(before - after)) <= 1e-10


def test_predict_reproduces_oscillator_solution():
    rng = np.random.default_rng(11)
    J, w0 = 3, 1.7
    params = FourierParams(J, w0, 3.0, 1.0)
    a = rng.normal(size=J + 1)
    b = rng.normal(size=J + 1)
    mean = np.zeros(2 * (J + 1))
    mean[0] = a[0] / 2.0  # constant term, zero conjugate slot
    for j in range(1, J + 1):
        mean[2 * j] = a[j]
        mean[2 * j + 1] = -b[j]

    h, n = 0.05, 37
    trans = fourier_transition(h, params)
    for _ in range(n):
        mean = trans.A @ mean

    t = n * h
    pair = fourier_projections(params)
    value = a[0] / 2.0 + sum(
        a[j] * math.cos(w0 * j * t) + b[j] * math.sin(w0 * j * t) for j in range(1, J + 1)
    )
    y = [a[j] * math.sin(w0 * j * t) - b[j] * math.cos(w0 * j * t) for j in range(J + 1)]
    derivative = sum(-w0 * j * y[j] for j in range(1, J + 1))
    assert float(pair.H0 @ mean) == pytest.approx(value, abs=1e-10)
    assert float(pair.H @ mean) == pytest.approx(derivative, abs=1e-10)


def test_filtering_equals_batch_regression():
    # zero diffusion makes sequential filtering exact GP regression; the
    # independent oracle is a dense information-form solve over X(0)
    rng = np.random.default_rng(23)
    params = FourierParams(2, 1.3, 1.5, 1.0)
    D = params.dim
    h = 0.1
    n = 50
    R = 0.4

    prior = _fourier_prior(params)
    trans = fourier_transition(h, params)
    rows = rng.normal(size=(n, D))
    zs = rng.normal(size=n)

    mean, cov = prior
    for k in range(n):
        mean, cov = trans.A @ mean, _cov_map(cov, trans.A, trans.Q)
        mean, cov = joseph_update(mean, cov, rows[k], R, zs[k])

    t_end = n * h
    batch_rows = [rows[k] @ rotation_matrix(params.J, params.w0, (k + 1) * h) for k in range(n)]
    m0, P0 = batch_gaussian_posterior(*prior, batch_rows, zs, [R] * n)
    A_end = rotation_matrix(params.J, params.w0, t_end)
    ref_mean = A_end @ m0
    ref_cov = A_end @ P0 @ A_end.T

    assert np.linalg.norm(mean - ref_mean) <= 1e-8 * np.linalg.norm(ref_mean)
    assert np.linalg.norm(cov - ref_cov) <= 1e-8 * np.linalg.norm(ref_cov)


def test_params_validation():
    with pytest.raises(ContractViolation):
        FourierParams(-1, 1.0, 3.0, 1.0)
    with pytest.raises(ContractViolation):
        FourierParams(1, 0.0, 3.0, 1.0)
    with pytest.raises(ContractViolation):
        FourierParams(1, 1.0, -3.0, 1.0)
    with pytest.raises(ContractViolation):
        FourierParams(1, 1.0, 3.0, 0.0)
    with pytest.raises(ContractViolation):
        fourier_transition(0.0, FourierParams(1, 1.0, 3.0, 1.0))


def test_an_angular_velocity_beyond_float_range_is_rejected():
    # J*w0 = 3e308 overflows: the top block's rotation and derivative row would be NaN
    with pytest.raises(ContractViolation, match=r"^J\*w0 leaves float range at w0=1e\+308, J=3$"):
        FourierParams(3, 1e308, 3.0, 1.0)
    assert FourierParams(1, 1e308, 3.0, 1.0).w0 == 1e308


@pytest.mark.parametrize("J", [0, 1, 3, 20])
@pytest.mark.parametrize("row", ["H0", "H"])
def test_rotated_rows_are_the_rotation_matrix_rows_bit_for_bit(J, row):
    # H0 and H have one nonzero per block, so g @ A(t) has one nonzero product
    # per column; tobytes() tells the signed zeros apart
    params = FourierParams(J, 0.7, 3.0, 1.0)
    g = getattr(fourier_projections(params), row)
    t = np.concatenate(
        [[0.0, -0.0, 5e-324], np.linspace(0.0, 50.0, 501), -np.geomspace(1e-3, 1e3, 7)]
    )
    rows = _rotated_row(params, g, t)
    assert rows.shape == (t.size, params.dim)
    assert rows.tobytes() == (g @ _rotation(params, t)).tobytes()
    assert _rotated_row(params, g, 2.5).tobytes() == (g @ _rotation(params, 2.5)).tobytes()
    assert _rotated_row(params, g, t[:0]).shape == (0, params.dim)


@pytest.mark.filterwarnings("error")
def test_a_rotation_angle_beyond_float_range_is_rejected():
    params = FourierParams(3, 1e307, 3.0, 1.0)
    match = r"^Fourier angle j\*w0\*t leaves float range at w0=1e\+307, J=3, t=37.5$"
    with pytest.raises(ContractViolation, match=match):
        fourier_transition(37.5, params)
    assert np.isfinite(fourier_transition(5.0, params).A).all()  # 3e307 * 5 is finite
