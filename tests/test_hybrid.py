"""Hybrid Taylor-Fourier solver: training, prediction, budget, batch equivalence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from odefilter import (
    ContractViolation,
    FourierParams,
    HybridConfig,
    TaylorParams,
    TrainNoise,
    TrainPolicy,
    cosine,
    fhn,
    fourier_init,
    fourier_projections,
    hybrid_solve,
    solve,
    taylor_state_space,
    vdp,
)

from odefilter.hybrid import _extrapolate, _train

from conftest import (
    assert_trajectory_hygiene,
    batch_gaussian_posterior,
    random_spd,
    rotation_matrix,
    synthetic_taylor_trajectory,
)

PARAMS_51 = dict(
    taylor=TaylorParams(1, 1.0),
    fourier=FourierParams(3, 1.0, 3.0, 1.0),
)


class CountingField:
    def __init__(self, field):
        self.field = field
        self.calls = 0
        self.max_t = -math.inf

    def __call__(self, x, t):
        self.calls += 1
        self.max_t = max(self.max_t, t)
        return self.field(x, t)


def prior_arrays(params):
    """The mean and covariance of ``fourier_init``'s prior."""
    prior = fourier_init(params)
    return prior.mean, prior.cov


def batch_trained_belief(params, traj, policy=None, noise=None, prior=None, coordinate=0):
    """Independent oracle: dense batch regression over X(0), rotated to T_p."""
    policy = policy or TrainPolicy()
    noise = noise or TrainNoise()
    m0, P0 = prior or prior_arrays(params)
    (seg,) = traj.segments
    proj_tay = seg.projections
    proj_four = fourier_projections(params)
    n = len(traj) - 1
    if policy.kind == "values_stride":
        selected = range(policy.stride, n + 1, policy.stride)
    else:
        selected = range(0, n + 1)

    rows, zs, rvars = [], [], []
    for k in selected:
        rot = rotation_matrix(params.J, params.w0, seg.t[k])
        mean, cov = seg.means[k, coordinate], seg.covs[k]
        rows.append(proj_four.H0 @ rot)
        zs.append(float(proj_tay.H0 @ mean))
        rvars.append(
            float(proj_tay.H0 @ cov @ proj_tay.H0)
            if noise.kind == "taylor_variance"
            else noise.jitter
        )
        if policy.kind == "values_and_derivatives":
            rows.append(proj_four.H @ rot)
            zs.append(float(proj_tay.H @ mean))
            rvars.append(
                float(proj_tay.H @ cov @ proj_tay.H)
                if noise.kind == "taylor_variance"
                else noise.jitter
            )

    m0, P0 = batch_gaussian_posterior(m0, P0, rows, zs, rvars)
    t_p = seg.t[-1]
    A_end = rotation_matrix(params.J, params.w0, t_p)
    return A_end @ m0, A_end @ P0 @ A_end.T


def test_train_on_constant_signal_single_observation():
    params = FourierParams(0, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(lambda t: 2.5, lambda t: 0.0, 0.1, 0)
    M, P = _train(*prior_arrays(params), traj, params, TrainPolicy(), TrainNoise())
    assert M[0, 0] == pytest.approx(2.5, rel=1e-9)
    assert P[0, 0] <= 2e-10


def test_empty_selection_returns_rotated_prior():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 10)
    m0, P0 = prior_arrays(params)
    M, P = _train(m0, P0, traj, params, TrainPolicy("values_stride", stride=50), TrainNoise())
    assert np.array_equal(M[0], np.zeros(params.dim))
    # isotropic blocks are invariant under the rotation
    assert np.allclose(P, P0, atol=1e-15)


def test_cosine_training_recovers_fourier_coefficients():
    # exact coefficients of cos(t): a_1 = 1, everything else 0
    params = FourierParams(3, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 125)
    M, _ = _train(*prior_arrays(params), traj, params, TrainPolicy(), TrainNoise())
    coeffs = rotation_matrix(params.J, params.w0, traj.times()[-1]).T @ M[0]
    assert abs(coeffs[2] - 1.0) <= 5e-2
    assert abs(coeffs[3]) <= 5e-2
    others = np.concatenate([coeffs[:2], coeffs[4:]])
    assert np.max(np.abs(others)) <= 5e-2


def random_prior(params):
    # a full, rotation-sensitive prior: unlike fourier_init's isotropic
    # blocks it tells a prior placed at t_0 from one placed at T_p
    rng = np.random.default_rng(7)
    return rng.normal(size=params.dim), random_spd(rng, params.dim)


TRAIN_OPTIONS = [
    (TrainPolicy(), TrainNoise()),
    (TrainPolicy("values_stride", stride=3), TrainNoise()),
    (TrainPolicy("values_and_derivatives"), TrainNoise()),
    (TrainPolicy(), TrainNoise("taylor_variance")),
]


@pytest.mark.parametrize(
    "policy,noise,make_prior",
    [
        pytest.param(policy, noise, make_prior, id=f"policy{i}-noise{i}{suffix}")
        for make_prior, suffix in ((prior_arrays, ""), (random_prior, "-random_prior"))
        for i, (policy, noise) in enumerate(TRAIN_OPTIONS)
    ],
)
def test_training_matches_batch_regression(policy, noise, make_prior):
    params = FourierParams(2, 1.1, 2.0, 1.0)
    traj = synthetic_taylor_trajectory(
        lambda t: math.cos(1.1 * t) + 0.3 * math.sin(2.2 * t),
        lambda t: -1.1 * math.sin(1.1 * t) + 0.66 * math.cos(2.2 * t),
        0.1,
        60,
        var=1e-6,
    )
    prior = make_prior(params)
    M, P = _train(*prior, traj, params, policy, noise)
    ref_mean, ref_cov = batch_trained_belief(params, traj, policy, noise, prior)
    assert np.linalg.norm(M[0] - ref_mean) <= 1e-6 * max(np.linalg.norm(ref_mean), 1e-12)
    assert np.linalg.norm(P - ref_cov) <= 1e-6 * np.linalg.norm(ref_cov)


@pytest.mark.parametrize("problem", [vdp, fhn])
def test_training_exact_on_benchmark_runs(problem):
    # the benchmark config: q=1, J=3, h=0.01, T_p=37.5, jitter 1e-10; the
    # trained belief must be the exact Gaussian posterior, not a recursion
    # that drifts from it under the tiny training noise
    config = HybridConfig(T_p=37.5, h=0.01, R=0.0, **PARAMS_51)
    ivp = problem()
    taylor = solve(taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p)
    prior = prior_arrays(config.fourier)
    M, P = _train(*prior, taylor, config.fourier, TrainPolicy(), TrainNoise())
    H0 = fourier_projections(config.fourier).H0
    for i in range(ivp.dim):
        ref_mean, ref_cov = batch_trained_belief(config.fourier, taylor, coordinate=i)
        assert np.linalg.norm(M[i] - ref_mean) <= 1e-9 * np.linalg.norm(ref_mean)
        assert np.linalg.norm(P - ref_cov) <= 1e-9 * np.linalg.norm(ref_cov)
        # the never-observed y_0 slot keeps its prior variance and dominates
        # the norm above; the value variance is what the CSV std reports
        value_var = float(H0 @ ref_cov @ H0)
        assert abs(float(H0 @ P @ H0) - value_var) <= 1e-9 * value_var


def test_training_accepts_a_singular_prior():
    # a zero-variance block keeps its prior mean; the free block is the
    # batch regression on what the pinned block leaves of the signal
    params = FourierParams(1, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 40, var=1e-6)
    prior = (np.array([0.5, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0]))
    M, P = _train(*prior, traj, params, TrainPolicy(), TrainNoise())
    assert np.array_equal(M[0, :2], [0.5, 0.0])
    assert np.array_equal(P[:2], np.zeros((2, 4)))

    ts = traj.times()
    rows = [rotation_matrix(1, 1.0, t)[2, 2:] for t in ts]  # H0 on the free block
    m1, P1 = batch_gaussian_posterior(
        np.zeros(2), np.eye(2), rows, np.cos(ts) - 0.5, np.full(len(ts), 1e-10)
    )
    rot = rotation_matrix(1, 1.0, ts[-1])[2:, 2:]
    assert np.linalg.norm(M[0, 2:] - rot @ m1) <= 1e-9 * np.linalg.norm(m1)
    assert np.linalg.norm(P[2:, 2:] - rot @ P1 @ rot.T) <= 1e-9 * np.linalg.norm(P1)


def test_taylor_variance_rejects_a_zero_variance_row():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 20, var=1e-6)
    traj.segments[0].covs[7] = 0.0
    with pytest.raises(ContractViolation, match=r"t=0\.7"):
        _train(*prior_arrays(params), traj, params, TrainPolicy(), TrainNoise("taylor_variance"))
    # a row the policy does not select is never whitened
    policy = TrainPolicy("values_stride", stride=2)
    _train(*prior_arrays(params), traj, params, policy, TrainNoise("taylor_variance"))


def test_predict_forward_zero_mean_stays_zero():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    m0, P0 = prior_arrays(params)
    segment = _extrapolate(m0[None], P0, params, 0.1, 1.0, 2.0)
    assert len(segment.t) == 10
    for means in segment.means:
        assert np.array_equal(means[0], np.zeros(params.dim))


def test_predict_forward_emits_cosine():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    t_p = 4.0
    # the mean at t_p encoding the oscillator state of cos(t) trained from t=0
    mean = rotation_matrix(1, 1.0, t_p) @ np.array([0.0, 0.0, 1.0, 0.0])
    segment = _extrapolate(mean[None], np.zeros((4, 4)), params, 0.25, t_p, 8.0)
    H0 = fourier_projections(params).H0
    for t, means in zip(segment.t, segment.means):
        assert abs(float(H0 @ means[0]) - math.cos(t)) <= 1e-9


def test_predict_forward_grid():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    m0, P0 = prior_arrays(params)
    segment = _extrapolate(m0[None], P0, params, 0.25, 1.0, 3.5)
    assert len(segment.t) == 10
    assert segment.t[0] == pytest.approx(1.25)
    assert segment.t[-1] == pytest.approx(3.5)
    with pytest.raises(ContractViolation):
        _extrapolate(m0[None], P0, params, 0.25, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        _extrapolate(m0[None], P0, params, 0.25, 1.0, 1.1)
    with pytest.raises(ContractViolation):
        _extrapolate(m0[None], P0, params, 0.0, 1.0, 2.0)


def test_hybrid_structure_and_budget():
    counting = CountingField(vdp().field)
    ivp = replace(vdp(), field=counting, T=5.0)
    config = HybridConfig(T_p=2.5, h=0.01, R=0.0, **PARAMS_51)
    traj = hybrid_solve(config, ivp)

    assert len(traj) == 501
    phases = traj.phases()
    assert phases[:251] == ["taylor"] * 251
    assert phases[251:] == ["fourier"] * 250
    assert traj.times()[250] == pytest.approx(2.5)
    # one evaluation at t=0 for initialization plus one per Taylor step,
    # none at all in the prediction phase
    assert counting.calls == 251
    assert counting.max_t <= 2.5
    assert [seg.phase for seg in traj.segments] == ["taylor", "fourier"]


@pytest.mark.parametrize("T_p", [45.0, 5.0], ids=["training", "extrapolation"])
def test_an_angle_beyond_float_range_fails_before_any_field_evaluation(T_p):
    # 3 * 1e307 * 45 overflows: at T_p = 45 in the training, at T - T_p = 45
    # in the extrapolation; 3 * 1e307 * 5 does not
    counting = CountingField(vdp().field)
    fourier = FourierParams(3, 1e307, 3.0, 1.0)
    config = HybridConfig(TaylorParams(1, 1.0), fourier, T_p=T_p, h=0.01)
    match = r"^Fourier angle j\*w0\*t leaves float range at w0=1e\+307, J=3, t=45$"
    with pytest.raises(ContractViolation, match=match):
        hybrid_solve(config, replace(vdp(), field=counting))
    assert counting.calls == 0


def test_hybrid_covariance_trace_constant_in_prediction_phase():
    config = HybridConfig(T_p=2.5, h=0.05, R=0.0, **PARAMS_51)
    traj = hybrid_solve(config, cosine(T=5.0))
    traces = [float(np.trace(cov)) for cov in traj.segments[1].covs]
    assert np.max(np.abs(np.array(traces) - traces[0])) <= 1e-9


def test_hybrid_cosine_extrapolation_accuracy():
    # in-model signal with the exact angular velocity: the prediction phase
    # should reproduce cos(t) to well under the 1e-2 target
    h = 4 * math.pi / 252
    t_p = 4 * math.pi
    config = HybridConfig(T_p=t_p, h=h, R=0.0, **PARAMS_51)
    traj = hybrid_solve(config, cosine(T=6 * math.pi))
    ts = traj.times()
    values = traj.value_means()[:, 0]
    mask = ts > t_p
    rmse = float(np.sqrt(np.mean((values[mask] - np.cos(ts[mask])) ** 2)))
    assert rmse <= 1e-2
    assert_trajectory_hygiene(traj)


def test_hybrid_fhn_shape_contract():
    config = HybridConfig(T_p=3.0, h=0.05, R=0.0, **PARAMS_51)
    traj = hybrid_solve(config, replace(fhn(), T=4.0))
    assert len(traj) == 81
    assert traj.dim == 2
    flip = traj.phases().index("fourier")
    assert traj.times()[flip - 1] == pytest.approx(3.0)


def test_hybrid_config_validation():
    with pytest.raises(ContractViolation):
        HybridConfig(T_p=0.0, h=0.1, **PARAMS_51)
    with pytest.raises(ContractViolation):
        HybridConfig(T_p=1.0, h=-0.1, **PARAMS_51)
    with pytest.raises(ContractViolation):
        HybridConfig(T_p=1.0, h=0.1, R=-1.0, **PARAMS_51)
    with pytest.raises(ContractViolation):
        HybridConfig(T_p=1.05, h=0.1, **PARAMS_51)  # T_p not on the grid
    with pytest.raises(ContractViolation):
        TrainPolicy("bogus")
    with pytest.raises(ContractViolation):
        TrainNoise("bogus")
    # a zero-variance observation cannot be whitened
    with pytest.raises(ContractViolation):
        TrainNoise(jitter=0.0)
    with pytest.raises(ContractViolation):
        TrainNoise("fixed_jitter", jitter=-1e-10)
    with pytest.raises(ContractViolation):
        TrainPolicy("values_stride", stride=0)
    config = HybridConfig(T_p=2.0, h=0.1, **PARAMS_51)
    with pytest.raises(ContractViolation):
        hybrid_solve(config, cosine(T=2.0))  # T_p must be interior
    config = HybridConfig(T_p=2.0, h=0.4, **PARAMS_51)
    with pytest.raises(ContractViolation):
        hybrid_solve(config, cosine(T=3.0))  # (T - T_p)/h off the grid
