"""The per-belief API: ``GaussianBelief``, ``MeasurementModel``, ``predict``,
``update``, ``taylor_init``, ``fourier_init``, ``train_fourier`` and
``predict_forward``.

These eight wrappers run one belief through the array kernels that ``solve``,
``hybrid_solve`` and the CLI call directly; ``benchmark/tracing.py`` replays a
solve through them. This is the one test module that names them. Its tests
check the wrappers' own argument rules, that the wrappers agree with the
kernels and with ``hybrid_solve``, bit for bit where the replay needs it,
and that no solve path builds a belief. Every other module tests the maths
on the kernels themselves.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import (
    ContractViolation,
    FourierParams,
    GaussianBelief,
    HybridConfig,
    IVProblem,
    MeasurementModel,
    SingularUpdateError,
    TaylorParams,
    TransitionModel,
    Trajectory,
    cosine,
    fhn,
    fourier_init,
    fourier_projections,
    fourier_state_space,
    fourier_transition,
    hybrid_solve,
    linear,
    predict,
    predict_forward,
    rk4_reference,
    solve,
    taylor_init,
    taylor_state_space,
    train_fourier,
    update,
    vdp,
)
from odefilter.cli import main
from odefilter.filtering import _gain_update, _joseph
from odefilter.fourier import _fourier_prior

from conftest import random_spd, synthetic_taylor_trajectory
from test_hybrid import PARAMS_51, TRAIN_OPTIONS
from test_parameter_rules import NON_FINITE, NON_INTEGRAL
from test_solver import (
    FREEZE_CASES,
    FREEZE_PROBLEMS,
    coupled_linear,
    full_recursion,
    passthrough_chain,
    settled_step,
)

NAN, INF = math.nan, math.inf


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


@pytest.mark.parametrize("z", [NAN, INF, -INF])
def test_update_rejects_a_non_finite_measurement(z):
    # with a gain the means would turn NaN; with none (a zero covariance at
    # R = 0) the belief would come back as it was
    for cov, R in ((np.eye(2), 1e-6), (np.zeros((2, 2)), 0.0)):
        with pytest.raises(ContractViolation, match="measurement z"):
            update(GaussianBelief(np.zeros(2), cov), MeasurementModel([0, 1], R), z)


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


# The wrappers' rows of the tables in tests/test_parameter_rules.py, held to
# the same rules there: one rule each, one error type for every bad value.
FOURIER = FourierParams(1, 1.0, 3.0, 1.0)
TRAJ = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 10)
INTEGER_RULE_SITES = {"taylor_init.q": lambda v: taylor_init(1.0, 0.0, v)}
INTEGER_PARAMETERS = {
    **INTEGER_RULE_SITES,
    "train_fourier.coordinate": lambda v: train_fourier(fourier_init(FOURIER), TRAJ, v, FOURIER),
}
BAD_INTEGERS = [(name, v) for name in INTEGER_RULE_SITES for v in (NAN, INF)]
FINITE_PARAMETERS = {
    "taylor_init.x0": lambda v: taylor_init(v, 0.0, 2),
    "taylor_init.dx0": lambda v: taylor_init(1.0, v, 2),
    "MeasurementModel.R": lambda v: MeasurementModel(np.ones(2), v),
    "predict_forward.h": lambda v: predict_forward(fourier_init(FOURIER), FOURIER, v, 0.0, 1.0),
    "predict_forward.t_p": lambda v: predict_forward(fourier_init(FOURIER), FOURIER, 0.1, v, 1.0),
    "predict_forward.t_end": lambda v: predict_forward(fourier_init(FOURIER), FOURIER, 0.1, 0.0, v),
}


@pytest.mark.parametrize("name,value", BAD_INTEGERS, ids=[f"{n}={v}" for n, v in BAD_INTEGERS])
def test_a_bad_integer_parameter_is_a_contract_violation(name, value):
    with pytest.raises(ContractViolation, match=r"must be an integer >= \d, got "):
        INTEGER_PARAMETERS[name](value)


@pytest.mark.parametrize("value", ["1", None])
@pytest.mark.parametrize("name", sorted(INTEGER_PARAMETERS))
def test_a_non_number_integer_parameter_is_a_contract_violation(name, value):
    with pytest.raises(ContractViolation, match="must be an integer"):
        INTEGER_PARAMETERS[name](value)


def test_integral_floats_are_stored_as_ints():
    assert np.array_equal(taylor_init(1.0, 0.5, 2.0).mean, taylor_init(1.0, 0.5, 2).mean)


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


@pytest.mark.parametrize("name", sorted(FINITE_PARAMETERS))
def test_a_non_number_scalar_parameter_is_a_contract_violation(name):
    FINITE_PARAMETERS[name](np.float64(0.5))  # 0.5 is a valid value for every row
    with pytest.raises(ContractViolation):
        FINITE_PARAMETERS[name]("0.5")


@pytest.mark.parametrize("build", [lambda: MeasurementModel(np.ones(2), NAN)])
def test_non_finite_parameters_are_contract_violations(build):
    with pytest.raises(ContractViolation):
        build()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_taylor_init_is_one_row_of_the_batched_init(q):
    ivp = IVProblem(vdp().field, np.array([1.0 / 3.0, -2.0 / 7.0]), 1.0, "vdp")
    M, P = taylor_state_space(TaylorParams(q, 1.0)).init(ivp)
    dx0 = vdp().field(ivp.x0, 0.0)
    for i in range(2):
        belief = taylor_init(ivp.x0[i], dx0[i], q)
        assert np.array_equal(belief.mean, M[i])
        assert np.array_equal(belief.cov, P)


@pytest.mark.parametrize("J", [0, 3, 5])
def test_fourier_init_is_the_array_prior_as_a_belief(J):
    params = FourierParams(J, 1.0, 3.0, 1.0)
    belief, (m0, P0) = fourier_init(params), _fourier_prior(params)
    assert np.array_equal(belief.mean, m0) and belief.mean.dtype == m0.dtype
    assert np.array_equal(belief.cov, P0) and belief.cov.dtype == P0.dtype


@pytest.mark.parametrize("J", [0, 3, 5])
def test_fourier_init_conditioned_on_x0_is_each_row_of_the_batched_init(J):
    # the zero-mean prior conditioned, with no noise, on the value H0 m = x0
    params = FourierParams(J, 1.0, 3.0, 1.0)
    ivp = vdp()
    M, P = fourier_state_space(params).init(ivp)
    exact = MeasurementModel(fourier_projections(params).H0, 0.0)
    assert M.shape == (2, params.dim)
    for i in range(2):
        belief = update(fourier_init(params), exact, ivp.x0[i])
        assert np.array_equal(belief.mean, M[i])
        assert np.array_equal(belief.cov, P)
    assert M @ exact.H == pytest.approx(ivp.x0, rel=1e-15)  # to rounding
    # every solve shares P, so it is read-only
    assert not P.flags.writeable


def reference_solve(ssm, ivp, h, R):
    """Per-coordinate loop of the public predict/update over [0, T].

    Returns per-record lists of per-coordinate beliefs.
    """
    trans = ssm.transition_builder(h)
    meas = MeasurementModel(ssm.projections.H, R)
    H0 = ssm.projections.H0
    M, P = ssm.init(ivp)
    beliefs = [GaussianBelief(m, P) for m in M]
    records = [beliefs]
    for k in range(1, round(ivp.T / h) + 1):
        predicted = [predict(b, trans) for b in beliefs]
        z = ivp.field(np.array([float(H0 @ b.mean) for b in predicted]), k * h)
        beliefs = [update(b, meas, z[i]) for i, b in enumerate(predicted)]
        records.append(beliefs)
    return records


@pytest.mark.parametrize(
    "ivp,q,h,bitwise",
    [
        (linear(T=1.0), 1, 0.01, True),
        (linear(T=1.0), 3, 0.01, True),
        (cosine(T=2.0), 2, 0.02, True),
        (replace(vdp(), T=2.0), 1, 0.01, False),
        (coupled_linear(), 2, 0.01, False),
    ],
    ids=["linear-q1", "linear-q3", "cosine-q2", "vdp-q1", "coupled3-q2"],
)
def test_shared_covariance_loop_matches_per_coordinate_reference(ivp, q, h, bitwise):
    ssm = taylor_state_space(TaylorParams(q, 1.0))
    (seg,) = solve(ssm, ivp, h, 0.0).segments
    settled = settled_step(ssm, h, 0.0, len(seg.t) - 1)
    ref = reference_solve(ssm, ivp, h, 0.0)
    ref_means = np.array([[b.mean for b in rec] for rec in ref])
    assert seg.means.shape == ref_means.shape
    # Up to the gain freeze each step is the reference's; past it the frozen
    # gain and the affine scan sum in another order, except that the q=1
    # gain is bitwise constant, so its means stay bitwise.
    if bitwise:
        assert np.array_equal(seg.means[: settled + 1], ref_means[: settled + 1])
        if q == 1:
            assert np.array_equal(seg.means, ref_means)
    scale = np.max(np.abs(ref_means), axis=(0, 2), keepdims=True)
    assert np.max(np.abs(seg.means - ref_means) / scale) <= 1e-12
    for k, (cov, rec) in enumerate(zip(seg.covs, ref)):
        for b in rec:
            if bitwise and k <= settled:
                assert np.array_equal(cov, b.cov)
            else:
                assert np.max(np.abs(cov - b.cov)) <= 1e-12 * np.max(np.abs(b.cov))


# The solve tests' shapes at h=0.01: the freeze matrix but the chain at q=3
# and vdp at q=4, which diverges at R=0 (t=0.56), where full_recursion raises
# and the per-belief loop, which checks no field output, runs on through the
# overflow; the J=3 Fourier prior on cosine; and the passthrough chain.
EQUIVALENCE_CASES = {
    f"{p}-q{q}": (taylor_state_space(TaylorParams(q, 1.0)), FREEZE_PROBLEMS[p], 0.01)
    for p, q in FREEZE_CASES
    if (p, q) not in {("vdp", 4), ("chain32", 3)}
}
EQUIVALENCE_CASES["cosine-J3"] = (
    fourier_state_space(FourierParams(3, 1.0, 3.0, 1.0)), cosine(T=10.0), 0.01
)
EQUIVALENCE_CASES["passthrough"] = passthrough_chain()


@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_reference_solve_is_the_full_recursion_bit_for_bit(case, R):
    # the per-belief loop and the recursion on the array kernels, by which
    # the solve tests judge solve, give the same bits
    ssm, ivp, h = EQUIVALENCE_CASES[case]
    if (case, R) == ("cosine-J3", 0.0):
        # zero diffusion and no measurement noise: both stop at the same
        # singular update, and only the solver's message names its step
        with pytest.raises(SingularUpdateError) as ref_err:
            reference_solve(ssm, ivp, h, R)
        with pytest.raises(SingularUpdateError) as full_err:
            full_recursion(ssm, ivp, h, R)
        assert str(full_err.value) == f"{ref_err.value} at step 7 (t=0.07)"
        return
    means, covs = full_recursion(ssm, ivp, h, R)
    ref = reference_solve(ssm, ivp, h, R)
    assert np.array_equal(means, np.array([[b.mean for b in rec] for rec in ref]))
    ref_covs = np.array([[b.cov for b in rec] for rec in ref])
    assert np.array_equal(np.broadcast_to(covs[:, None], ref_covs.shape), ref_covs)


@pytest.mark.parametrize("coordinate", [-1, 2, 5])
def test_train_fourier_rejects_a_coordinate_outside_the_trajectory(coordinate):
    # a negative index used to read the last coordinate from the end, and
    # d or more used to fail with a bare IndexError
    params = FourierParams(1, 1.0, 3.0, 1.0)
    taylor = solve(taylor_state_space(TaylorParams(1, 1.0)), replace(vdp(), T=1.0), 0.1, 0.0)
    with pytest.raises(ContractViolation, match="coordinate"):
        train_fourier(fourier_init(params), taylor, coordinate, params)
    assert train_fourier(fourier_init(params), taylor, 1, params).dim == params.dim


def test_train_fourier_rejects_a_prior_of_another_dimension():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    taylor = solve(taylor_state_space(TaylorParams(1, 1.0)), replace(vdp(), T=1.0), 0.1, 0.0)
    prior = fourier_init(FourierParams(2, 1.0, 3.0, 1.0))
    with pytest.raises(ContractViolation, match="prior dimension 6 != Fourier dimension 4"):
        train_fourier(prior, taylor, 0, params)


def test_predict_forward_rejects_a_belief_of_another_dimension():
    params = FourierParams(1, 1.0, 3.0, 1.0)
    belief = fourier_init(FourierParams(2, 1.0, 3.0, 1.0))
    with pytest.raises(ContractViolation, match="belief dimension 6 != Fourier dimension 4"):
        predict_forward(belief, params, 0.1, 0.0, 1.0)


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


def test_hybrid_boundary_belief_is_trained_belief():
    config = HybridConfig(T_p=2.5, h=0.05, R=0.0, **PARAMS_51)
    ivp = cosine(T=5.0)
    traj = hybrid_solve(config, ivp)

    taylor_part, fourier_part = traj.segments
    sub = Trajectory((taylor_part,))
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


def test_no_solve_path_builds_a_belief(monkeypatch, tmp_path):
    # solve, hybrid_solve, the oracle and the CLI run on the array kernels alone
    def refuse(belief):
        raise AssertionError("a solve path built a GaussianBelief")

    monkeypatch.setattr(GaussianBelief, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built a GaussianBelief"):
        fourier_init(FOURIER)
    config = HybridConfig(T_p=3.0, h=0.01, **PARAMS_51)
    for ivp in (vdp(), fhn()):
        hybrid_solve(config, replace(ivp, T=4.0))
    solve(taylor_state_space(TaylorParams(2, 1.0)), replace(vdp(), T=1.0), 0.01, 0.0)
    solve(fourier_state_space(FOURIER), cosine(T=1.0), 0.01, 1e-6)
    rk4_reference(replace(fhn(), T=1.0), 0.001)
    monkeypatch.chdir(tmp_path)
    solve_argv = ["solve", "--problem", "vdp", "--method", "hybrid", "--reference", "--T", "2"]
    assert main(solve_argv + ["-o", "vdp.csv"]) == 0
    assert main(["plot", "vdp.csv", "-o", "vdp.svg"]) == 0
    assert main(["converge", "--problem", "linear", "--h", "0.1", "0.05", "0.025"]) == 0
