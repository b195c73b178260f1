"""Hybrid Taylor-Fourier solver: training, prediction, budget, batch equivalence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from odefilter import (
    ContractViolation,
    FourierParams,
    GaussianBelief,
    HybridConfig,
    TaylorParams,
    Trajectory,
    TrainNoise,
    TrainPolicy,
    cosine,
    fhn,
    fourier_init,
    fourier_projections,
    fourier_transition,
    hybrid_solve,
    predict,
    predict_forward,
    solve,
    taylor_state_space,
    train_fourier,
    vdp,
)

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


def batch_trained_belief(params, traj, policy=None, noise=None, prior=None, coordinate=0):
    """Independent oracle: dense batch regression over X(0), rotated to T_p."""
    policy = policy or TrainPolicy()
    noise = noise or TrainNoise()
    prior = prior or fourier_init(params)
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

    m0, P0 = batch_gaussian_posterior(prior.mean, prior.cov, rows, zs, rvars)
    t_p = seg.t[-1]
    A_end = rotation_matrix(params.J, params.w0, t_p)
    return A_end @ m0, A_end @ P0 @ A_end.T


def test_train_on_constant_signal_single_observation():
    params = FourierParams(0, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(lambda t: 2.5, lambda t: 0.0, 0.1, 0)
    trained = train_fourier(fourier_init(params), traj, 0, params)
    assert trained.mean[0] == pytest.approx(2.5, rel=1e-9)
    assert trained.cov[0, 0] <= 2e-10


def test_empty_selection_returns_rotated_prior():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 10)
    prior = fourier_init(params)
    trained = train_fourier(prior, traj, 0, params, TrainPolicy("values_stride", stride=50))
    assert np.array_equal(trained.mean, np.zeros(params.dim))
    # isotropic blocks are invariant under the rotation
    assert np.allclose(trained.cov, prior.cov, atol=1e-15)


def test_cosine_training_recovers_fourier_coefficients():
    # exact coefficients of cos(t): a_1 = 1, everything else 0
    params = FourierParams(3, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 125)
    trained = train_fourier(fourier_init(params), traj, 0, params)
    coeffs = rotation_matrix(params.J, params.w0, traj.times()[-1]).T @ trained.mean
    assert abs(coeffs[2] - 1.0) <= 5e-2
    assert abs(coeffs[3]) <= 5e-2
    others = np.concatenate([coeffs[:2], coeffs[4:]])
    assert np.max(np.abs(others)) <= 5e-2


def random_prior(params):
    # a full, rotation-sensitive prior: unlike fourier_init's isotropic
    # blocks it tells a prior placed at t_0 from one placed at T_p
    rng = np.random.default_rng(7)
    return GaussianBelief(rng.normal(size=params.dim), random_spd(rng, params.dim))


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
        for make_prior, suffix in ((fourier_init, ""), (random_prior, "-random_prior"))
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
    trained = train_fourier(prior, traj, 0, params, policy, noise)
    ref_mean, ref_cov = batch_trained_belief(params, traj, policy, noise, prior)
    assert np.linalg.norm(trained.mean - ref_mean) <= 1e-6 * max(np.linalg.norm(ref_mean), 1e-12)
    assert np.linalg.norm(trained.cov - ref_cov) <= 1e-6 * np.linalg.norm(ref_cov)


@pytest.mark.parametrize("problem", [vdp, fhn])
def test_training_exact_on_benchmark_runs(problem):
    # the benchmark config: q=1, J=3, h=0.01, T_p=37.5, jitter 1e-10; the
    # trained belief must be the exact Gaussian posterior, not a recursion
    # that drifts from it under the tiny training noise
    config = HybridConfig(T_p=37.5, h=0.01, R=0.0, **PARAMS_51)
    ivp = problem()
    taylor = solve(taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p)
    prior = fourier_init(config.fourier)
    H0 = fourier_projections(config.fourier).H0
    for i in range(ivp.dim):
        trained = train_fourier(prior, taylor, i, config.fourier)
        ref_mean, ref_cov = batch_trained_belief(config.fourier, taylor, coordinate=i)
        assert np.linalg.norm(trained.mean - ref_mean) <= 1e-9 * np.linalg.norm(ref_mean)
        assert np.linalg.norm(trained.cov - ref_cov) <= 1e-9 * np.linalg.norm(ref_cov)
        # the never-observed y_0 slot keeps its prior variance and dominates
        # the norm above; the value variance is what the CSV std reports
        value_var = float(H0 @ ref_cov @ H0)
        assert abs(float(H0 @ trained.cov @ H0) - value_var) <= 1e-9 * value_var


def test_training_accepts_a_singular_prior():
    # a zero-variance block keeps its prior mean; the free block is the
    # batch regression on what the pinned block leaves of the signal
    params = FourierParams(1, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 40, var=1e-6)
    prior = GaussianBelief(np.array([0.5, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0]))
    trained = train_fourier(prior, traj, 0, params)
    assert np.array_equal(trained.mean[:2], [0.5, 0.0])
    assert np.array_equal(trained.cov[:2], np.zeros((2, 4)))

    ts = traj.times()
    rows = [rotation_matrix(1, 1.0, t)[2, 2:] for t in ts]  # H0 on the free block
    m1, P1 = batch_gaussian_posterior(
        np.zeros(2), np.eye(2), rows, np.cos(ts) - 0.5, np.full(len(ts), 1e-10)
    )
    rot = rotation_matrix(1, 1.0, ts[-1])[2:, 2:]
    assert np.linalg.norm(trained.mean[2:] - rot @ m1) <= 1e-9 * np.linalg.norm(m1)
    assert np.linalg.norm(trained.cov[2:, 2:] - rot @ P1 @ rot.T) <= 1e-9 * np.linalg.norm(P1)


def test_taylor_variance_rejects_a_zero_variance_row():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 20, var=1e-6)
    traj.segments[0].covs[7] = 0.0
    with pytest.raises(ContractViolation, match=r"t=0\.7"):
        train_fourier(fourier_init(params), traj, 0, params, noise=TrainNoise("taylor_variance"))
    # a row the policy does not select is never whitened
    policy = TrainPolicy("values_stride", stride=2)
    train_fourier(fourier_init(params), traj, 0, params, policy, TrainNoise("taylor_variance"))


@pytest.mark.parametrize("coordinate", [-1, 2, 5])
def test_train_fourier_rejects_a_coordinate_outside_the_trajectory(coordinate):
    # a negative index used to read the last coordinate from the end, and
    # d or more used to fail with a bare IndexError
    params = FourierParams(1, 1.0, 3.0, 1.0)
    taylor = solve(taylor_state_space(TaylorParams(1, 1.0)), replace(vdp(), T=1.0), 0.1, 0.0)
    with pytest.raises(ContractViolation, match="coordinate"):
        train_fourier(fourier_init(params), taylor, coordinate, params)
    assert train_fourier(fourier_init(params), taylor, 1, params).dim == params.dim


def test_predict_forward_zero_mean_stays_zero():
    params = FourierParams(2, 1.0, 3.0, 1.0)
    segment = predict_forward(fourier_init(params), params, 0.1, 1.0, 2.0)
    assert len(segment) == 10
    for _, belief in segment:
        assert np.array_equal(belief.mean, np.zeros(params.dim))


def test_predict_forward_emits_cosine():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    t_p = 4.0
    # belief at t_p encoding the oscillator state of cos(t) trained from t=0
    mean = rotation_matrix(1, 1.0, t_p) @ np.array([0.0, 0.0, 1.0, 0.0])
    belief = GaussianBelief(mean, np.zeros((4, 4)))
    H0 = fourier_projections(params).H0
    for t, predicted in predict_forward(belief, params, 0.25, t_p, 8.0):
        assert abs(float(H0 @ predicted.mean) - math.cos(t)) <= 1e-9


def test_predict_forward_matches_repeated_predict():
    # the direct rotation by m*h against m steps of the public predict
    params = FourierParams(3, 0.7, 3.0, 1.0)
    rng = np.random.default_rng(11)
    belief = GaussianBelief(rng.normal(size=params.dim), random_spd(rng, params.dim))
    trans = fourier_transition(0.05, params)
    stepped = belief
    for _, direct in predict_forward(belief, params, 0.05, 1.0, 11.0):
        stepped = predict(stepped, trans)
        assert np.linalg.norm(direct.mean - stepped.mean) <= 1e-12 * np.linalg.norm(stepped.mean)
        assert np.linalg.norm(direct.cov - stepped.cov) <= 1e-12 * np.linalg.norm(stepped.cov)


def test_predict_forward_grid():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    segment = predict_forward(fourier_init(params), params, 0.25, 1.0, 3.5)
    assert len(segment) == 10
    assert segment[0][0] == pytest.approx(1.25)
    assert segment[-1][0] == pytest.approx(3.5)
    with pytest.raises(ContractViolation):
        predict_forward(fourier_init(params), params, 0.25, 1.0, 1.0)
    with pytest.raises(ContractViolation):
        predict_forward(fourier_init(params), params, 0.25, 1.0, 1.1)


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


def test_hybrid_boundary_belief_is_trained_belief():
    config = HybridConfig(T_p=2.5, h=0.05, R=0.0, **PARAMS_51)
    ivp = cosine(T=5.0)
    traj = hybrid_solve(config, ivp)

    taylor_part, fourier_part = traj.segments
    sub = Trajectory((taylor_part,), h=traj.h, problem=traj.problem)
    trained = train_fourier(
        fourier_init(config.fourier), sub, 0, config.fourier, config.train_policy, config.train_noise
    )
    expected = predict(trained, fourier_transition(config.h, config.fourier))
    assert np.array_equal(fourier_part.means[0, 0], expected.mean)
    assert np.array_equal(fourier_part.covs[0], expected.cov)


@pytest.mark.parametrize(
    "policy,noise",
    TRAIN_OPTIONS,
    ids=["defaults", "values_stride", "values_and_derivatives", "taylor_variance"],
)
def test_hybrid_values_equal_the_public_pieces_bitwise(policy, noise):
    # hybrid_solve must equal its composition from the public pieces, bit
    # for bit, with the Fourier values projected per grid point and
    # coordinate from the beliefs predict_forward returns, under every
    # training option
    config = HybridConfig(
        T_p=3.75, h=0.01, R=0.0, train_policy=policy, train_noise=noise, **PARAMS_51
    )
    ivp = replace(vdp(), T=5.0)
    traj = hybrid_solve(config, ivp)

    taylor = solve(taylor_state_space(config.taylor), ivp, config.h, config.R, t_end=config.T_p)
    prior = fourier_init(config.fourier)
    trained = [
        train_fourier(prior, taylor, i, config.fourier, config.train_policy, config.train_noise)
        for i in range(ivp.dim)
    ]
    late = [
        [b for _, b in predict_forward(b0, config.fourier, config.h, config.T_p, ivp.T)]
        for b0 in trained
    ]
    H0 = fourier_projections(config.fourier).H0
    steps = range(len(late[0]))
    late_means = np.array([[float(H0 @ col[m].mean) for col in late] for m in steps])
    late_stds = np.array(
        [[np.sqrt(max(float(H0 @ col[m].cov @ H0), 0.0)) for col in late] for m in steps]
    )
    assert np.array_equal(traj.value_means(), np.vstack((taylor.value_means(), late_means)))
    assert np.array_equal(traj.value_stds(), np.vstack((taylor.value_stds(), late_stds)))


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
        TrainNoise("taylor_variance", jitter=-1e-10)
    with pytest.raises(ContractViolation):
        TrainPolicy("values_stride", stride=0)
    config = HybridConfig(T_p=2.0, h=0.1, **PARAMS_51)
    with pytest.raises(ContractViolation):
        hybrid_solve(config, cosine(T=2.0))  # T_p must be interior
    config = HybridConfig(T_p=2.0, h=0.4, **PARAMS_51)
    with pytest.raises(ContractViolation):
        hybrid_solve(config, cosine(T=3.0))  # (T - T_p)/h off the grid
