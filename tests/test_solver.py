"""The filter loop: measurement assembly, grid handling, convergence, determinism."""

import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from odefilter import (
    ContractViolation,
    DivergedSolveError,
    FourierParams,
    HybridConfig,
    IVProblem,
    SingularUpdateError,
    TaylorParams,
    TrainNoise,
    TrainPolicy,
    constant,
    cosine,
    fhn,
    fourier_projections,
    fourier_state_space,
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
from odefilter import solver
from odefilter.cli import trajectory_csv
from odefilter.filtering import (
    TransitionModel,
    _cov_map,
    _dot,
    _gain_map,
    _gain_update,
    _joseph,
    _passthrough,
)
from odefilter.fourier import _fourier_prior
from odefilter.hybrid import _train
from odefilter.problems import _array_field
from odefilter.solver import PhaseSegment, Trajectory
from odefilter.taylor import INIT_JITTER

from conftest import (
    doubling_affine_scan,
    extended_precision_ibm_filter,
    random_spd,
    single_loop_array_kernel,
)

EXP_MINUS_1 = 0.36787944117144233

TAYLOR_Q1 = taylor_state_space(TaylorParams(1, 1.0))


def test_constant_problem_stays_put():
    traj = solve(TAYLOR_Q1, constant(c=4.0, T=2.0), 0.25, 0.0)
    assert len(traj) == 9
    for mean in traj.segments[0].means[:, 0]:
        assert abs(mean[0] - 4.0) <= 1e-9
        assert abs(mean[1]) <= 1e-9


def test_linear_decay_tracks_exponential():
    traj = solve(TAYLOR_Q1, linear(T=1.0), 0.1, 0.0)
    value = traj.value_means()[-1, 0]
    assert abs(value - EXP_MINUS_1) <= 2e-2


def test_vdp_benchmark_run_is_finite():
    traj = solve(TAYLOR_Q1, vdp(), 0.01, 0.0, t_end=37.5)
    assert len(traj) == 3751
    assert traj.phases() == ["taylor"] * 3751
    means = traj.value_means()
    assert np.all(np.isfinite(means))
    assert np.all(np.isfinite(traj.value_stds()))


class RecordingField:
    def __init__(self, field):
        self.field = field
        self.calls = []

    def __call__(self, x, t):
        self.calls.append((t, np.array(x)))
        return self.field(x, t)


def _second_evaluation(field, x0, h=0.1):
    """Solve one step; return the trajectory, the state the field saw at t=h,
    and that state rebuilt as ``H0 A m`` from each initial mean m."""
    recorder = RecordingField(field)
    traj = solve(TAYLOR_Q1, IVProblem(recorder, np.array(x0), h, "probe"), h, 0.0)
    M, _ = TAYLOR_Q1.init(IVProblem(field, np.array(x0), h, "probe"))
    A = ibm_transition(h, TaylorParams(1, 1.0)).A
    H0 = taylor_projections(1).H0
    expected = [float(H0 @ (A @ m)) for m in M]
    assert [t for t, _ in recorder.calls] == [0.0, h]
    return traj, recorder.calls[1][1], np.array(expected)


def test_field_measurement_assembles_projected_means():
    traj, seen, expected = _second_evaluation(lambda x, t: np.zeros(2), [1.0, -1.0])
    assert np.array_equal(seen, expected)
    assert np.array_equal(traj.segments[0].means[:, :, 1], np.zeros((2, 2)))

    field = vdp(mu=5.0).field
    assert np.allclose(field(np.array([1.0, -1.0]), 0.0), [25.0 / 3.0, 0.2], rtol=1e-12)
    traj, seen, expected = _second_evaluation(field, [1.0, -1.0])
    assert np.array_equal(seen, expected)
    # R = 0: the update puts the field value at the assembled means into
    # the derivative slot
    assert np.allclose(traj.segments[0].means[1, :, 1], field(seen, 0.1), rtol=1e-12)


def test_field_measurement_fhn_values():
    expected_dx0 = np.array([1.0 - 1.0 / 3.0 - 0.1 + 0.5, (1.0 + 0.7 - 0.1) / 10.0])
    traj, seen, expected = _second_evaluation(fhn().field, [1.0, 0.1])
    assert np.allclose(traj.segments[0].means[0, :, 1], expected_dx0, rtol=1e-12)
    assert np.array_equal(seen, expected)


def test_field_measurement_rejects_nonfinite_field():
    ivp = IVProblem(lambda x, t: np.array([np.inf]), np.array([1.0]), 1.0, "inf")
    with pytest.raises(DivergedSolveError) as exc:
        solve(TAYLOR_Q1, ivp, 0.25, 0.0)
    assert exc.value.t == 0.0

    def late(x, t):
        return np.array([np.inf]) if t > 0.5 else -x

    with pytest.raises(DivergedSolveError) as exc:
        solve(TAYLOR_Q1, IVProblem(late, np.array([1.0]), 1.0, "late"), 0.25, 0.0)
    assert exc.value.t == 0.75


def test_diverged_solve_carries_time():
    def field(x, t):
        return np.array([np.nan]) if t > 0.5 else -x

    ivp = IVProblem(field=field, x0=np.array([1.0]), T=1.0, name="explodes")
    with pytest.raises(DivergedSolveError) as exc:
        solve(TAYLOR_Q1, ivp, 0.25, 0.0)
    assert exc.value.t == pytest.approx(0.75)


@pytest.mark.parametrize("d", [1, 2, 32])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_field_component_diverges_at_its_step(d, where, bad):
    def field(x, t):
        z = -x
        if t > 0.5:
            z[where] = bad
        return z

    with pytest.raises(DivergedSolveError) as exc:
        solve(TAYLOR_Q1, IVProblem(field, np.ones(d), 1.0, "late"), 0.25, 0.0)
    assert exc.value.t == 0.75


@pytest.mark.parametrize("d", [1, 2, 32])
def test_huge_finite_field_outputs_of_any_form_pass(d):
    huge = np.where(np.arange(d) % 2, -1.7e308, 1.7e308)
    forms = {"array": lambda z: z, "list": list, "column": lambda z: z.reshape(d, 1)}
    means = {}
    for name, form in forms.items():
        ivp = IVProblem(lambda x, t: form(huge.copy()), np.ones(d), 1.0, "huge")
        means[name] = solve(TAYLOR_Q1, ivp, 0.25, 0.0).segments[0].means
    assert np.isfinite(means["array"]).all()
    assert np.array_equal(means["list"], means["array"])
    assert np.array_equal(means["column"], means["array"])


@pytest.mark.parametrize("q, d", [(1, 3), (2, 3), (3, 3), (1, 2)], ids=["1", "2", "3", "1-pair"])
def test_a_field_may_keep_and_overwrite_its_inputs(monkeypatch, q, d):
    if d == 2:  # two coordinates at q=1 run the pair kernel alone
        monkeypatch.setattr(solver, "_array_mean_loop", None)
    ivp = coupled_linear(T=1.0) if d == 3 else replace(vdp(), T=1.0)
    ssm = taylor_state_space(TaylorParams(q, 1.0))
    pure = solve(ssm, ivp, 0.01, 0.0).segments[0].means
    kept, called_with = [], []

    def keeping(x, t):
        kept.append(x)
        called_with.append(x.copy())
        return ivp.field(x.copy(), t)

    def overwriting(x, t):
        z = ivp.field(x.copy(), t)
        x[:] = np.nan
        return z

    for field in (keeping, overwriting):
        (seg,) = solve(ssm, replace(ivp, field=field), 0.01, 0.0).segments
        assert np.array_equal(seg.means, pure)
    # every kept input still holds the state it was called with: no buffer
    # the solve hands the field is written again or handed out twice
    assert len(kept) == len(pure)
    assert all(np.array_equal(x, c) for x, c in zip(kept, called_with))
    assert len({x.__array_interface__["data"][0] for x in kept}) == len(kept)


def test_singular_update_carries_step_index():
    # J=0 Fourier state has a zero derivative row: with R=0 any nonzero
    # field value makes the update singular
    ssm = fourier_state_space(FourierParams(0, 1.0, 3.0, 1.0))
    ivp = IVProblem(
        field=lambda x, t: np.ones(1), x0=np.array([0.0]), T=1.0, name="ramp"
    )
    with pytest.raises(SingularUpdateError) as exc:
        solve(ssm, ivp, 0.5, 0.0)
    assert exc.value.step == 1
    assert "step 1" in str(exc.value)


def test_grid_preconditions():
    ivp = linear(T=1.0)
    with pytest.raises(ContractViolation):
        solve(TAYLOR_Q1, ivp, 0.3, 0.0)  # 1/0.3 not an integer
    with pytest.raises(ContractViolation):
        solve(TAYLOR_Q1, ivp, -0.1, 0.0)
    with pytest.raises(ContractViolation):
        solve(TAYLOR_Q1, ivp, 0.1, -1.0)
    with pytest.raises(ContractViolation):
        solve(TAYLOR_Q1, ivp, 0.1, 0.0, t_end=2.0)  # beyond T
    with pytest.raises(ContractViolation):  # h^9 = 1e360 leaves float range at q=4
        solve(taylor_state_space(TaylorParams(4, 1.0)), linear(T=1e41), 1e40, 0.0)


NAN, INF = math.nan, math.inf
FOURIER = FourierParams(3, 1.0, 3.0, 1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IVProblem(lambda x, t: -x, np.ones(1), NAN, "p"),
        lambda: IVProblem(lambda x, t: -x, np.ones(1), INF, "p"),
        lambda: solve(TAYLOR_Q1, linear(), NAN, 0.0),
        lambda: solve(TAYLOR_Q1, linear(), INF, 0.0),
        lambda: solve(TAYLOR_Q1, linear(), 0.1, NAN),
        lambda: solve(TAYLOR_Q1, linear(), 0.1, INF),
        lambda: solve(TAYLOR_Q1, linear(), 0.1, 0.0, t_end=NAN),
        lambda: TaylorParams(1, NAN),
        lambda: TaylorParams(1, INF),
        lambda: FourierParams(3, NAN, 3.0, 1.0),
        lambda: FourierParams(3, INF, 3.0, 1.0),
        lambda: FourierParams(3, 1.0, NAN, 1.0),
        lambda: FourierParams(3, 1.0, INF, 1.0),
        lambda: FourierParams(3, 1.0, 3.0, NAN),
        lambda: HybridConfig(TaylorParams(1, 1.0), FOURIER, T_p=NAN, h=0.01),
        lambda: HybridConfig(TaylorParams(1, 1.0), FOURIER, T_p=1.0, h=NAN),
        lambda: HybridConfig(TaylorParams(1, 1.0), FOURIER, T_p=1.0, h=0.01, R=NAN),
        lambda: TrainNoise(jitter=INF),
        lambda: ibm_transition(NAN, TaylorParams(1, 1.0)),
        lambda: fourier_transition(INF, FOURIER),
        lambda: rk4_reference(linear(), NAN),
        lambda: rk4_reference(linear(), 0.01, h_out=NAN),
        lambda: vdp(mu=NAN),
        lambda: vdp(mu=INF),
        lambda: fhn(I=NAN),
        lambda: fhn(a=INF),
        lambda: fhn(b=NAN),
        lambda: fhn(tau=INF),
        lambda: IVProblem(lambda x, t: -x, np.array([1.0, NAN]), 1.0, "p"),
        lambda: linear(x0=NAN),
        lambda: constant(c=INF),
    ],
)
def test_non_finite_parameters_are_contract_violations(build):
    with pytest.raises(ContractViolation):
        build()


@pytest.mark.parametrize(
    "ssm,first", [(TAYLOR_Q1, 0), (fourier_state_space(FOURIER), 1)], ids=["taylor", "fourier"]
)
def test_field_evaluations_per_prior(ssm, first):
    # the Taylor init evaluates the field at t=0; the Fourier init evaluates
    # none, so a Fourier-prior solve of n steps evaluates it n times
    h, n = 0.1, 20
    field = RecordingField(cosine().field)
    solve(ssm, replace(cosine(), field=field, T=n * h), h, 1e-6)
    assert [t for t, _ in field.calls] == [k * h for k in range(first, n + 1)]


def test_a_fourier_prior_solve_of_a_constant_stays_at_x0():
    # a zero-mean init, measured only through H, whose constant-term slots
    # are zero, never learned x0: the value mean was 0 at every step
    values = solve(fourier_state_space(FOURIER), constant(c=5.0), 0.01, 1e-6).value_means()
    assert values[0, 0] == pytest.approx(5.0, rel=1e-15)
    assert np.max(np.abs(values - 5.0)) <= 1e-4  # measured 2.8e-5


def test_a_fourier_prior_solve_of_cosine_starts_from_x0():
    traj = solve(fourier_state_space(FOURIER), cosine(T=6.0), 0.01, 1e-6)
    rmse = math.sqrt(np.mean((traj.value_means()[:, 0] - np.cos(traj.times())) ** 2))
    assert rmse <= 1e-4  # measured 2.0e-6; 0.086 from a zero-mean init


def test_a_fourier_prior_solve_of_fhn_finishes():
    # with a zero-mean init this raised DivergedSolveError at t=0.09; the
    # measured x1 RMSE against RK4 at h/10 is 0.143 (x2: 0.033)
    ivp = fhn()
    ssm = fourier_state_space(FourierParams(8, 2 * math.pi / 35.04, 3.0, 1.0))
    traj = solve(ssm, ivp, 0.01, 1e-6)
    reference = rk4_reference(ivp, 0.001, h_out=0.01)
    rmse = np.sqrt(np.mean((traj.value_means() - reference.value_means()) ** 2, axis=0))
    assert rmse[0] <= 0.2


def test_record_count_matches_grid():
    for h, t_end in ((0.1, 1.0), (0.05, 0.5), (0.2, 2.0)):
        traj = solve(TAYLOR_Q1, linear(T=2.0), h, 0.0, t_end=t_end)
        assert len(traj) == round(t_end / h) + 1
        assert traj.times()[0] == 0.0
        assert traj.times()[-1] == pytest.approx(t_end, abs=1e-12)


@pytest.mark.parametrize("t", [[0.0, 0.1, 0.3], [0.0, -0.1, -0.2], [0.0, 0.0, 0.0]])
def test_trajectory_times_increase_by_one_step(t):
    # the step is the first spacing; a trajectory carries no h of its own
    means, covs = np.zeros((3, 1, 2)), np.zeros((3, 2, 2))
    segment = PhaseSegment("taylor", taylor_projections(1), np.array(t), means, covs)
    with pytest.raises(ContractViolation, match="uniform step"):
        Trajectory((segment,))


def test_uneven_steps_of_small_times_are_rejected():
    # steps of 1e-10 and 4e-10 differ by less than an absolute 1e-9
    t, means, covs = np.array([0.0, 1e-10, 5e-10]), np.zeros((3, 1, 2)), np.zeros((3, 2, 2))
    with pytest.raises(ContractViolation, match="uniform step"):
        Trajectory((PhaseSegment("taylor", taylor_projections(1), t, means, covs),))


def test_t_end_a_small_span_past_a_small_horizon_is_rejected():
    # 0.9e-9 past T is inside an absolute 1e-9, yet nine steps past T
    with pytest.raises(ContractViolation, match="exceeds problem horizon"):
        solve(TAYLOR_Q1, constant(T=1e-9), 1e-10, 0.0, t_end=1.9e-9)


def test_a_grid_of_large_times_is_one_uniform_grid():
    # at t ~ 1e7 consecutive record times differ from h by ulps of 1e7, far above 1e-9
    ivp, h = constant(T=1e7), 1e7 / 3000
    assert len(solve(TAYLOR_Q1, ivp, h, 0.0)) == 3001
    config = HybridConfig(TaylorParams(1, 1.0), FOURIER, T_p=0.75 * ivp.T, h=h)
    assert hybrid_solve(config, ivp).phases().count("fourier") == 750


@pytest.mark.parametrize(
    "means_shape,covs_shape,match",
    [
        ((3, 2), (3, 2, 2), "means shape"),  # no coordinate axis
        ((2, 1, 2), (3, 2, 2), "means shape"),  # one record short
        ((3, 1, 3), (3, 2, 2), "means shape"),  # state of another dimension
        ((3, 1, 2), (3, 2), "covs shape"),
        ((3, 1, 2), (2, 2, 2), "covs shape"),
    ],
)
def test_segment_shapes_are_checked(means_shape, covs_shape, match):
    t, means, covs = np.array([0.0, 0.1, 0.2]), np.zeros(means_shape), np.zeros(covs_shape)
    with pytest.raises(ContractViolation, match=match):
        PhaseSegment("taylor", taylor_projections(1), t, means, covs)


def test_trajectory_segments_share_one_coordinate_count():
    proj, covs = taylor_projections(1), np.zeros((2, 2, 2))
    first = PhaseSegment("taylor", proj, np.array([0.0, 0.1]), np.zeros((2, 1, 2)), covs)
    second = PhaseSegment("taylor", proj, np.array([0.2, 0.3]), np.zeros((2, 2, 2)), covs)
    with pytest.raises(ContractViolation, match="coordinate count"):
        Trajectory((first, second))


def test_fourier_prior_is_exact_on_zero_field():
    ssm = fourier_state_space(FourierParams(2, 1.0, 3.0, 1.0))
    traj = solve(ssm, constant(c=0.0, T=2.0), 0.1, 0.0)
    values = traj.value_means()[:, 0]
    assert np.max(np.abs(values - values[0])) <= 1e-9


def test_determinism_bitwise():
    a = solve(TAYLOR_Q1, vdp(), 0.01, 0.0, t_end=2.0)
    b = solve(TAYLOR_Q1, vdp(), 0.01, 0.0, t_end=2.0)
    assert len(a.segments) == len(b.segments)
    for sa, sb in zip(a.segments, b.segments):
        assert np.array_equal(sa.t, sb.t)
        assert np.array_equal(sa.means, sb.means)
        assert np.array_equal(sa.covs, sb.covs)


def test_global_convergence_order():
    ivp = linear(T=2.0)
    hs = (0.1, 0.05, 0.025)
    errors = []
    for h in hs:
        traj = solve(TAYLOR_Q1, ivp, h, 0.0)
        exact = np.exp(-traj.times())
        errors.append(float(np.max(np.abs(traj.value_means()[:, 0] - exact))))
    ratios = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(r >= 0.8 for r in ratios), (errors, ratios)


def test_time_dependent_field_is_supported():
    ivp = IVProblem(
        field=lambda x, t: np.array([-math.sin(t)]), x0=np.array([1.0]), T=1.0, name="cos"
    )
    traj = solve(TAYLOR_Q1, ivp, 0.05, 0.0)
    assert abs(traj.value_means()[-1, 0] - math.cos(1.0)) <= 1e-3


def coupled_linear(T=2.0):
    """3-dim linear system with coupled, damped rotation."""
    B = np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.5], [0.0, -0.5, -0.2]])
    return IVProblem(lambda x, t: B @ x, np.array([1.0, 0.0, -0.5]), T, "coupled")


def schedule(ssm, h, R, n):
    """The covariances and the (K, S) steps up to the freeze of an n-step solve
    under ssm; they never see the field."""
    trans, proj = ssm.transition_builder(h), ssm.projections
    _, P0 = ssm.init(constant(c=0.0))
    return solver._covariance_schedule(P0, trans.A, trans.Q, proj.H, R, n)


_FREEZES = {}


def settled_step(ssm, h, R, n):
    """The step at which an n-step solve freezes its gain, or n when it never does.

    The freeze step s depends on the prior, h and R alone, never on the data
    or on n, so it is cached per prior (A, Q, H and P0 at h) and R, next to
    the length of the schedule that found it. A schedule that ended at its
    last step may not have frozen, so a longer n runs the schedule again.
    """
    trans, proj = ssm.transition_builder(h), ssm.projections
    _, P0 = ssm.init(constant(c=0.0))
    key = tuple(a.tobytes() for a in (trans.A, trans.Q, proj.H, P0)) + (R,)
    s, ran = _FREEZES.get(key, (0, 0))
    if n > ran and s == ran:
        s, ran = _FREEZES[key] = len(schedule(ssm, h, R, n)[1]), n
    return min(s, n)


def full_recursion(ssm, ivp, h, R):
    """Predict and Joseph update of means and covariance on every step, never
    freezing the gain: the reference of the solve tests."""
    trans, proj = ssm.transition_builder(h), ssm.projections
    M, P = ssm.init(ivp)
    means, covs = [M], [P]
    for k in range(1, round(ivp.T / h) + 1):
        M, P = (trans.A @ M[..., None])[..., 0], _cov_map(P, trans.A, trans.Q)
        z = solver._field_at(ivp.field, _dot(M, proj.H0), k * h)
        P, K, S = _joseph(P, proj.H, R)
        if K is None:
            _passthrough(M, proj.H, z, S, step=k, t=k * h)
        else:
            M = _gain_update(M, proj.H, z, K)
        means.append(M)
        covs.append(P)
    return np.array(means), np.array(covs)


def coupled_chain(d, T):
    """d-dim linear chain: each coordinate turns with its neighbours and decays."""
    B = np.eye(d, k=1) - np.eye(d, k=-1) - 0.1 * np.eye(d)
    return IVProblem(lambda x, t: B @ x, np.linspace(1.0, -1.0, d), T, f"chain{d}")


FREEZE_PROBLEMS = {
    "linear": linear(T=1.0),
    "cosine": cosine(T=2.0),
    "vdp": replace(vdp(), T=2.0),
    "coupled3": coupled_linear(),
    "chain32": coupled_chain(32, T=0.3),
}
# Every problem at every q, and a 32-coordinate chain, the benchmark's shape,
# at the q >= 2 that take the one-product step past the freeze. The chain's
# short span still passes the freeze at h=0.001.
FREEZE_CASES = [(p, q) for p in FREEZE_PROBLEMS if p != "chain32" for q in (1, 2, 3, 4)]
FREEZE_CASES += [("chain32", 2), ("chain32", 3)]


def passthrough_chain():
    """(ssm, ivp, h) of a shift chain with noise on the top slot only, from a
    zero belief, at h=0.01: the noise reaches the measured slot 1 at step 4,
    so at R=0 updates 1-3 see S = 0 and zero innovations, and pass through
    with no gain."""
    h, D = 0.01, 5
    A = np.eye(D) + h * np.eye(D, k=1)
    Q = np.zeros((D, D))
    Q[-1, -1] = h
    ssm = replace(
        taylor_state_space(TaylorParams(D - 1, 1.0)),
        transition_builder=lambda step: TransitionModel(A, Q),
        init=lambda ivp: (np.zeros((ivp.dim, D)), np.zeros((D, D))),
    )

    def field(x, t):
        return -x + (np.sin(t) if t > 0.035 else 0.0)

    return ssm, IVProblem(field, np.zeros(1), 5.0, "forced"), h


@pytest.mark.parametrize("h", [0.01, 0.001])
@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("problem,q", FREEZE_CASES)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_settled_gain_matches_the_full_recursion(problem, q, R, h):
    assert_settled_gain_matches_the_full_recursion(FREEZE_PROBLEMS[problem], q, R, h)


@pytest.mark.parametrize("q", [2, 3])
def test_coarse_two_coordinate_runs_match_the_full_recursion(q):
    # ROADMAP item 17's coarse runs of two coordinates: the gain freezes by
    # step 37 of 750, and every later step takes the array kernel's one product
    assert_settled_gain_matches_the_full_recursion(replace(fhn(), T=37.5), q, 0.0, 0.05)


def assert_settled_gain_matches_the_full_recursion(ivp, q, R, h):
    """solve's means and covariances under the q-th Taylor prior: bit for bit
    those of full_recursion up to the freeze (and throughout at q=1), and past
    it within the bounds below."""
    ssm = taylor_state_space(TaylorParams(q, 1.0))
    try:
        full_means, full_covs = full_recursion(ssm, ivp, h, R)
    except DivergedSolveError as err:
        # vdp at q=4, h=0.01 overflows at t=0.56, three steps past the freeze
        # (the zero-pinned higher derivatives of the Taylor init); solve must stop
        # at the same time
        with pytest.raises(DivergedSolveError) as exc:
            solve(ssm, ivp, h, R)
        assert exc.value.t == err.t
        return
    (seg,) = solve(ssm, ivp, h, R).segments
    n = len(seg.t) - 1
    settled = settled_step(ssm, h, R, n)
    assert np.array_equal(seg.means[: settled + 1], full_means[: settled + 1])
    assert np.array_equal(seg.covs[: settled + 1], full_covs[: settled + 1])
    if q == 1:
        assert np.array_equal(seg.means, full_means)

    for cov, full_cov in zip(seg.covs, full_covs):
        assert np.array_equal(cov, cov.T)
        assert np.max(np.abs(cov - full_cov)) <= 1e-12 * np.max(np.abs(full_cov))
    # Means: within 1e-12 of each coordinate's scale of full_recursion, plus
    # twice its float64 rounding error in the component, measured against the same
    # filter run in extended precision: two float64 runs, each that close to
    # the exact filter, may sit on either side of it. The rounding term is
    # ~1e-15 on the value and derivative but ~1e-9 relative on the top
    # derivatives at q=4, h=0.001, where the covariance condition number is
    # ~1e30 and a last-bit change in the gain moves them that far.
    exact = extended_precision_ibm_filter(q, h, R, ivp.field, ivp.x0, n, INIT_JITTER)
    rounding = np.max(np.abs(full_means - exact), axis=0)
    scale = np.max(np.abs(full_means), axis=(0, 2))[:, None]
    assert np.all(np.max(np.abs(seg.means - full_means), axis=0) <= 1e-12 * scale + 2 * rounding)


def test_fourier_prior_never_freezes():
    # zero diffusion: every observation shrinks the gain, so it never settles
    ssm = fourier_state_space(FourierParams(3, 1.0, 3.0, 1.0))
    ivp = cosine(T=10.0)
    (seg,) = solve(ssm, ivp, 0.01, 1e-6).segments
    assert settled_step(ssm, 0.01, 1e-6, 1000) == 1000
    full_means, full_covs = full_recursion(ssm, ivp, 0.01, 1e-6)
    assert np.array_equal(seg.means, full_means)
    assert np.array_equal(seg.covs, full_covs)


def test_divergence_past_the_freeze_carries_time():
    def field(x, t):
        return np.array([np.nan]) if t > 4.995 else -x

    ssm = taylor_state_space(TaylorParams(2, 1.0))
    assert settled_step(ssm, 0.01, 0.0, 1000) < 500
    with pytest.raises(DivergedSolveError) as exc:
        solve(ssm, IVProblem(field, np.array([1.0]), 10.0, "late"), 0.01, 0.0)
    assert exc.value.t == 5.0


def test_passthrough_updates_do_not_freeze_the_gain():
    # updates 1-3 of the passthrough chain see S = 0 and pass through
    ssm, ivp, h = passthrough_chain()
    (seg,) = solve(ssm, ivp, h, 0.0).segments
    # the first real gains come at steps 4 and 5; this chain's gain is the
    # same from its first, so it freezes there and not on the missing ones
    _, steps = schedule(ssm, h, 0.0, 500)
    settled = len(steps)
    assert settled == 5
    assert [K is None for K, _ in steps] == [True, True, True, False, False]
    ref_means, ref_covs = full_recursion(ssm, ivp, h, 0.0)
    assert np.all(ref_covs[1:4, 1, 1] == 0.0)  # S = 0: passthroughs
    assert np.array_equal(seg.means[: settled + 1], ref_means[: settled + 1])
    assert np.array_equal(seg.covs[: settled + 1], ref_covs[: settled + 1])
    scale = np.max(np.abs(ref_means))
    assert np.max(np.abs(seg.means - ref_means)) <= 1e-12 * scale
    for cov, ref_cov in zip(seg.covs, ref_covs):
        assert np.max(np.abs(cov - ref_cov)) <= 1e-12 * np.max(np.abs(ref_cov))


@pytest.mark.parametrize(
    "ssm,R",
    [
        (taylor_state_space(TaylorParams(1, 1.0)), 0.0),
        (taylor_state_space(TaylorParams(2, 1.0)), 1e-6),
        (taylor_state_space(TaylorParams(3, 1.0)), 0.0),
    ],
    ids=["taylor-q1", "taylor-q2-R", "taylor-q3"],
)
def test_covariances_never_see_the_field(ssm, R):
    # the same prior, h, R and n give bitwise the same covariances on any field
    zero = IVProblem(lambda x, t: np.zeros(2), np.array([0.3, -2.0]), 2.0, "zero")
    expected, _ = schedule(ssm, 0.01, R, 200)
    for ivp in (replace(vdp(), T=2.0), replace(fhn(), T=2.0), zero):
        (seg,) = solve(ssm, ivp, 0.01, R).segments
        assert np.array_equal(seg.covs, expected)


def frozen_map(ssm, h, R, n):
    """The covariance at the step an n-step schedule freezes its gain, and the
    frozen map (F, G) the scan applies from there."""
    trans, proj = ssm.transition_builder(h), ssm.projections
    covs, steps = schedule(ssm, h, R, n)
    assert len(steps) < n, "the gain never settled"
    IKH, RKK = _gain_map(steps[-1][0], proj.H, R)
    return covs[len(steps)], IKH @ trans.A, _cov_map(trans.Q, IKH, RKK)


# Both sides of each doubling edge, where the last pass fills one, all or
# all but one of its L entries, and a long solve's stack.
SCAN_LENGTHS = [1, 2, 3] + [2**k + i for k in range(8, 13) for i in (-1, 0, 1)] + [5000]


@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_affine_scan_equals_the_two_loop_scan_at_every_doubling_edge(q, R):
    # q=4 with R=1e-6 freezes only at step 744 of h=0.01
    P0, F, G = frozen_map(taylor_state_space(TaylorParams(q, 1.0)), 0.01, R, 1000)
    for n in SCAN_LENGTHS:
        got = np.empty((n,) + P0.shape)
        got[0] = P0
        expected = got.copy()
        solver._affine_scan(got, F, G)
        doubling_affine_scan(expected, F, G)
        assert np.array_equal(got, expected), n
    # and the scan is the map applied step by step, up to summation order
    P = P0
    for k, cov in enumerate(got[1:], 1):
        P = _cov_map(P, F, G)
        assert np.max(np.abs(cov - P)) <= 1e-12 * np.max(np.abs(P)), k


def test_affine_scan_temporaries_stay_under_twice_the_stack():
    # a pass maps up to half the stack at once; its temporaries peak at
    # about 1.23x the stack's bytes on a 5000-long q=2 stack
    P0, F, G = frozen_map(taylor_state_space(TaylorParams(2, 1.0)), 0.01, 0.0, 1000)
    covs = np.empty((5000,) + P0.shape)
    covs[0] = P0
    tracemalloc.start()
    try:
        solver._affine_scan(covs, F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * covs.nbytes


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_covariance_beyond_float_range_is_a_passthrough(monkeypatch):
    # sigma2 = 1e308 overflows the first predicted covariance: S is inf or
    # NaN, no gain exists, and a nonzero innovation is a singular update
    ssm = taylor_state_space(TaylorParams(1, 1e308))
    with pytest.raises(SingularUpdateError) as exc:
        solve(ssm, linear(T=8.0), 2.0, 0.0)
    assert (exc.value.step, exc.value.t) == (1, 2.0)
    _, steps = schedule(ssm, 2.0, 0.0, 4)
    assert len(steps) == 4 and all(K is None for K, _ in steps)
    S = predicted_innovation_variance(ssm, linear(T=8.0), 2.0, 0.0)
    assert not 0.0 < S < np.inf
    for ivp in (linear(T=8.0), linear(x0=[1.0, 2.0], T=8.0)):
        for kernel in kernels_for(ivp):
            outcome = kernel_outcome(monkeypatch, kernel, ssm, ivp, 2.0, 0.0)
            assert outcome[0] is SingularUpdateError and outcome[2:] == (1, 2.0)
            assert message_S(outcome[1]) == format(S, "g")
    # on a zero field every innovation vanishes, so the means stay put
    traj = solve(ssm, constant(c=1.0, T=8.0), 2.0, 0.0)
    assert np.array_equal(traj.value_means(), np.ones((5, 1)))


# J=0 Fourier state: the derivative row is zero, so with R=0 the innovation
# variance S vanishes and every innovation equals the field value.
SINGULAR_SSM = fourier_state_space(FourierParams(0, 1.0, 3.0, 1.0))


def predicted_innovation_variance(ssm, ivp, h, R):
    """S of ``_joseph`` on the first predicted covariance of solve(ssm, ivp, h, R)."""
    trans, proj = ssm.transition_builder(h), ssm.projections
    return _joseph(_cov_map(ssm.init(ivp)[1], trans.A, trans.Q), proj.H, R)[2]


def message_S(message):
    """The ``S=`` field of a SingularUpdateError's message."""
    return re.search(r"\bS=(\S+) ", message).group(1)


@pytest.mark.parametrize("coordinate", [0, 1])
def test_singular_update_checks_every_coordinate(monkeypatch, coordinate):
    value = np.zeros(2)
    value[coordinate] = 1e-6
    ivp = IVProblem(lambda x, t: value, np.zeros(2), 1.0, "one-sided")
    with pytest.raises(SingularUpdateError) as exc:
        solve(SINGULAR_SSM, ivp, 0.5, 0.0)
    assert exc.value.step == 1
    assert exc.value.t == 0.5
    # every kernel reports the S that _joseph gave the passthrough step, on
    # an array field and on a float form
    S = predicted_innovation_variance(SINGULAR_SSM, ivp, 0.5, 0.0)
    assert S == 0.0
    float_form = replace(ivp, field=_array_field(lambda t, *x: value.tolist()))
    for problem in (ivp, float_form):
        for kernel in KERNELS:
            outcome = kernel_outcome(monkeypatch, kernel, SINGULAR_SSM, problem, 0.5, 0.0)
            assert outcome[0] is SingularUpdateError and outcome[2:] == (1, 0.5)
            assert message_S(outcome[1]) == format(S, "g")


def test_singular_update_passes_when_every_innovation_vanishes():
    ivp = IVProblem(lambda x, t: np.zeros(2), np.zeros(2), 1.0, "flat")
    traj = solve(SINGULAR_SSM, ivp, 0.5, 0.0)
    assert len(traj) == 3
    assert np.array_equal(traj.value_means(), np.zeros((3, 2)))


KERNELS = {
    "array": solver._array_mean_loop,
    "pair": solver._pair_mean_loop,
}


def kernels_for(ivp):
    """The kernels that can run ivp: the pair kernel takes two coordinates only."""
    return [kernel for kernel in KERNELS if kernel != "pair" or ivp.dim == 2]


def kernel_outcome(monkeypatch, kernel, ssm, ivp, h, R):
    """``solve_outcome`` with ``kernel`` as the mean recursion, whatever the
    state and problem size."""
    with monkeypatch.context() as patch:
        for name in KERNELS:
            patch.setattr(solver, f"_{name}_mean_loop", KERNELS[kernel])
        return solve_outcome(ssm, ivp, h, R)


TWO_SLOT_PRIORS = {
    "q1": taylor_state_space(TaylorParams(1, 1.0)),
    "J0": fourier_state_space(FourierParams(0, 1.0, 3.0, 1.0)),
}
TWO_SLOT_PROBLEMS = {
    "linear": linear(T=1.0),
    "linear2": linear(x0=[1.0, -0.5], T=1.0),
    "cosine": cosine(T=2.0),
    "vdp": replace(vdp(), T=2.0),
    "fhn": replace(fhn(), T=2.0),
}


# The problems the pair kernel can run; on the others only the array kernel
# runs, and test_the_float_form_and_the_array_field_agree_bitwise covers them.
PAIR_PROBLEMS = [name for name, ivp in TWO_SLOT_PROBLEMS.items() if ivp.dim == 2]


@pytest.mark.parametrize("h", [0.01, 0.001])
@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("problem", PAIR_PROBLEMS)
@pytest.mark.parametrize("prior", list(TWO_SLOT_PRIORS))
def test_the_two_slot_kernels_agree_bitwise(monkeypatch, prior, problem, R, h):
    # J=0 at R=0 has S = 0 and raises at step 1: every kernel raises the same
    # error, on the float form and on an array field
    ssm, ivp = TWO_SLOT_PRIORS[prior], TWO_SLOT_PROBLEMS[problem]
    expected = kernel_outcome(monkeypatch, "array", ssm, ivp, h, R)
    assert isinstance(expected, bytes) or (prior, R) == ("J0", 0.0)
    for field in (ivp.field, without_float_form(ivp.field)):
        for kernel in KERNELS:
            outcome = kernel_outcome(monkeypatch, kernel, ssm, replace(ivp, field=field), h, R)
            assert outcome == expected, kernel


@pytest.mark.parametrize(
    "q,d,kernel",
    [
        (1, 1, "array"),
        (1, 2, "pair"),
        (1, 3, "array"),
        (1, 10, "array"),
        (2, 1, "array"),
        (2, 2, "array"),
    ],
)
def test_the_mean_kernel_follows_the_state_and_problem_size(monkeypatch, q, d, kernel):
    ran = []

    def spy(name, loop):
        return lambda *args: ran.append(name) or loop(*args)

    for name, loop in KERNELS.items():
        monkeypatch.setattr(solver, f"_{name}_mean_loop", spy(name, loop))
    ivp, ssm = coupled_chain(d, T=1.0), taylor_state_space(TaylorParams(q, 1.0))
    (seg,) = solve(ssm, ivp, 0.01, 0.0).segments
    assert ran == [kernel]
    if q == 1:  # a two-slot state keeps the step form: the full recursion's means bit for bit
        assert np.array_equal(seg.means, full_recursion(ssm, ivp, 0.01, 0.0)[0])


def solve_outcome(ssm, ivp, h, R):
    """The means' bytes of solve(ssm, ivp, h, R), or its error's type, message, step and t."""
    try:
        with np.errstate(all="ignore"):
            (seg,) = solve(ssm, ivp, h, R).segments
    except (ContractViolation, SingularUpdateError, DivergedSolveError) as err:
        return type(err), str(err), getattr(err, "step", None), getattr(err, "t", None)
    return seg.means.tobytes()


def without_float_form(field):
    """field behind a plain array function, which carries no float form ``rhs``."""
    return lambda x, t: field(x, t)


@pytest.mark.parametrize("h", [0.01, 0.001])
@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("problem", list(TWO_SLOT_PROBLEMS))
@pytest.mark.parametrize("prior", list(TWO_SLOT_PRIORS))
def test_the_float_form_and_the_array_field_agree_bitwise(prior, problem, R, h):
    # the pair kernel calls a registered problem's rhs on its floats, and an
    # array field on a fresh array: the same means, or the same error
    ssm, ivp = TWO_SLOT_PRIORS[prior], TWO_SLOT_PROBLEMS[problem]
    expected = solve_outcome(ssm, replace(ivp, field=without_float_form(ivp.field)), h, R)
    assert solve_outcome(ssm, ivp, h, R) == expected
    assert isinstance(expected, bytes) or (prior, R) == ("J0", 0.0)


def test_the_pair_kernel_calls_the_float_form_once_per_step():
    rhs_times, array_times = [], []

    def rhs(t, *x):
        rhs_times.append(t)
        return [-v for v in x]

    registered = _array_field(rhs)

    def field(x, t):
        array_times.append(t)
        return registered(x, t)

    field.rhs = rhs
    solve(TAYLOR_Q1, IVProblem(field, [1.0, 2.0], 1.0, "spy"), 0.1, 0.0)
    assert array_times == [0.0]  # the Taylor init's evaluation; no step calls the array field
    assert rhs_times == [0.0] + [k * 0.1 for k in range(1, 11)]


def test_the_pair_kernel_calls_an_array_field_once_per_step():
    calls = []

    def field(x, t):
        calls.append((t, x.copy()))  # a copy keeps the dtype and the shape
        return -x

    (seg,) = solve(TAYLOR_Q1, IVProblem(field, [1.0, 2.0], 1.0, "spy"), 0.1, 0.0).segments
    assert [t for t, _ in calls] == [0.0] + [k * 0.1 for k in range(1, 11)]
    assert all(x.dtype == np.float64 and x.shape == (2,) for _, x in calls)
    assert calls[0][1].tolist() == [1.0, 2.0]  # the Taylor init's evaluation at x0
    # step k gets (x1, x2), the predicted values a00 p0 + a01 p1 of step k-1's means
    # (H0 = [1, 0]), in the pair kernel's float order
    (a00, a01), _ = TAYLOR_Q1.transition_builder(0.1).A.tolist()
    for (_, x), (p, q) in zip(calls[1:], seg.means[:-1].tolist()):
        assert x.tolist() == [a00 * p[0] + a01 * p[1], a00 * q[0] + a01 * q[1]]


def test_malformed_init_is_rejected():
    ivp = replace(vdp(), T=1.0)
    M, P = TAYLOR_Q1.init(ivp)
    asymmetric = P.copy()
    asymmetric[0, 1] = 1e-3
    for init in (
        (M[0], P),  # a (D,) mean, which would broadcast into every coordinate
        (np.zeros((2, 3)), np.eye(3)),  # D = 3 under a D = 2 transition
        (M, np.eye(2, 3)),  # a non-square covariance
        (M, asymmetric),
    ):
        ssm = replace(TAYLOR_Q1, init=lambda ivp: init)
        with pytest.raises(ContractViolation):
            solve(ssm, ivp, 0.1, 0.0)
    # the same arrays, well formed, give the prior's own solve
    ssm = replace(TAYLOR_Q1, init=lambda ivp: (M, P))
    (seg,) = solve(ssm, ivp, 0.1, 0.0).segments
    (expected,) = solve(TAYLOR_Q1, ivp, 0.1, 0.0).segments
    assert np.array_equal(seg.means, expected.means)
    assert np.array_equal(seg.covs, expected.covs)


@pytest.mark.parametrize("problem", [constant(T=1.0), linear(T=1.0)], ids=["constant", "linear"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["mean", "covariance"])
def test_non_finite_init_is_rejected_before_the_loop(problem, bad, where):
    # A zero field never sees the state, so a NaN mean would run to NaN rows.
    M, P = TAYLOR_Q1.init(problem)
    if where == "mean":
        M = M.copy()
        M[0, 0] = bad
    else:
        P = np.full_like(P, bad)
    calls = []

    def field(x, t):
        calls.append(t)
        return problem.field(x, t)

    ssm = replace(TAYLOR_Q1, init=lambda ivp: (M, P))
    with pytest.raises(ContractViolation, match="finite"):
        solve(ssm, replace(problem, field=field), 0.25, 0.0)
    assert calls == []


def test_segment_projections_equal_per_vector_expressions_bitwise():
    # The projections must sum like a lone `H0 @ mean`; a batched `means @ H0`
    # sums in another order and differs in the last bit on such data.
    rng = np.random.default_rng(0)
    params = FourierParams(3, 1.0, 3.0, 1.0)
    proj = fourier_projections(params)
    means = rng.normal(size=(50, 3, 8)) * 10 ** rng.uniform(-3, 3, size=(50, 3, 8))
    covs = np.array([random_spd(rng, 8) for _ in range(50)])
    seg = PhaseSegment("fourier", proj, np.arange(50) * 0.1, means, covs)
    H0 = proj.H0
    expected_means = [[float(H0 @ m) for m in rec] for rec in means]
    expected_stds = [[np.sqrt(max(float(H0 @ cov @ H0), 0.0))] * 3 for cov in covs]
    assert np.array_equal(seg.value_means(), expected_means)
    assert np.array_equal(seg.value_stds(), expected_stds)


def test_returned_covariances_belong_to_the_trajectory_alone():
    ivp = replace(vdp(), T=2.0)
    first = solve(TAYLOR_Q1, ivp, 0.01, 0.0)
    kept = first.segments[0].covs.copy()
    first.segments[0].covs[:] = 0.0  # trajectories are writable, like any array
    assert np.array_equal(solve(TAYLOR_Q1, ivp, 0.01, 0.0).segments[0].covs, kept)
    # nothing outside the trajectory keeps its covariance stack alive
    stack = weakref.ref(first.segments[0].covs)
    del first
    gc.collect()
    assert stack() is None


def test_the_array_mean_loop_holds_no_per_step_array_beyond_the_means():
    # a q=2 solve of 32 coordinates runs the array kernel; past its outputs it
    # may hold a few steps' temporaries, but nothing with one entry per step
    n, d = 4000, 32
    ivp = linear(x0=[1.0] * d, T=2.0)
    ssm = taylor_state_space(TaylorParams(2, 1.0))
    tracemalloc.start()
    try:
        (seg,) = solve(ssm, ivp, 2.0 / n, 0.0).segments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seg.means.shape == (n + 1, d, 3)
    assert peak - (seg.means.nbytes + seg.covs.nbytes + seg.t.nbytes) < n * d * 8 / 2


# Past the freeze the array kernel writes a slot-major buffer and returns its
# transposed view: the benchmark's shape and a small one, at two orders.
LAYOUT_PROBLEMS = {
    "chain32": coupled_chain(32, T=1.0),
    "linear5": linear(x0=np.linspace(1.0, 2.0, 5), T=1.0),
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("problem", list(LAYOUT_PROBLEMS))
def test_the_means_view_and_its_contiguous_copy_give_the_same_outputs(problem, q):
    # H0 and H are unit rows of the Taylor prior, so every dot sums exactly
    ssm = taylor_state_space(TaylorParams(q, 1.0))
    (seg,) = solve(ssm, LAYOUT_PROBLEMS[problem], 0.01, 0.0).segments
    dense = replace(seg, means=np.ascontiguousarray(seg.means))
    assert not seg.means.flags.c_contiguous and dense.means.flags.c_contiguous
    view, copy = Trajectory((seg,)), Trajectory((dense,))
    assert view.value_means().tobytes() == copy.value_means().tobytes()
    assert view.value_stds().tobytes() == copy.value_stds().tobytes()
    assert trajectory_csv(view) == trajectory_csv(copy)
    params = FourierParams(3, 1.0, 3.0, 1.0)
    for policy in (TrainPolicy(), TrainPolicy("values_and_derivatives")):
        (M, P), (M_copy, P_copy) = (
            _train(*_fourier_prior(params), traj, params, policy, TrainNoise())
            for traj in (view, copy)
        )
        assert M.tobytes() == M_copy.tobytes() and P.tobytes() == P_copy.tobytes(), policy.kind


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("problem", list(LAYOUT_PROBLEMS))
def test_every_past_freeze_field_input_is_a_contiguous_vector(problem, q):
    ssm, ivp, n = taylor_state_space(TaylorParams(q, 1.0)), LAYOUT_PROBLEMS[problem], 100
    inputs = []

    def spy(x, t):
        inputs.append((x.dtype, x.shape, x.flags.c_contiguous))
        return ivp.field(x, t)

    solve(ssm, replace(ivp, field=spy), 1.0 / n, 0.0)
    settled = settled_step(ssm, 1.0 / n, 0.0, n)
    assert len(inputs) == n + 1 and settled < n  # the init's call at t = 0, then one per step
    assert set(inputs[settled + 1 :]) == {(np.dtype(float), (ivp.dim,), True)}


# The frozen loop against conftest's single-loop kernel: the layout problems and fhn,
# each long enough that the gain freezes at every q and R (q=4 at R=1e-6 by step 744).
FROZEN_LOOP_PROBLEMS = {
    name: replace(ivp, T=10.0) for name, ivp in {**LAYOUT_PROBLEMS, "fhn": fhn()}.items()
}


def single_loop_outcome(monkeypatch, ssm, ivp, h, R):
    """``solve_outcome`` with conftest's single-loop kernel in place of the array kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_array_mean_loop", single_loop_array_kernel)
        return solve_outcome(ssm, ivp, h, R)


@pytest.mark.parametrize("R", [0.0, 1e-6])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("problem", list(FROZEN_LOOP_PROBLEMS))
def test_the_frozen_loop_gives_the_single_loop_kernels_means(monkeypatch, problem, q, R):
    ssm, ivp = taylor_state_space(TaylorParams(q, 1.0)), FROZEN_LOOP_PROBLEMS[problem]
    assert settled_step(ssm, 0.01, R, 1000) < 1000
    expected = single_loop_outcome(monkeypatch, ssm, ivp, 0.01, R)
    assert isinstance(expected, bytes)
    assert solve_outcome(ssm, ivp, 0.01, R) == expected


def test_a_fourier_prior_solve_gives_the_single_loop_kernels_means(monkeypatch):
    # the zero-diffusion gain never freezes, so every step takes the step form
    ssm, ivp = fourier_state_space(FourierParams(3, 1.0, 3.0, 1.0)), FROZEN_LOOP_PROBLEMS["fhn"]
    expected = single_loop_outcome(monkeypatch, ssm, ivp, 0.01, 1e-6)
    assert isinstance(expected, bytes)
    assert solve_outcome(ssm, ivp, 0.01, 1e-6) == expected


@pytest.mark.parametrize("d", [1, 3])
def test_the_frozen_loop_calls_an_array_field_once_per_step(d):
    calls = []

    def field(x, t):
        calls.append((t, x))  # the input itself, which the field may keep
        return -x

    ssm, h, n = taylor_state_space(TaylorParams(2, 1.0)), 0.01, 100
    ivp = IVProblem(field, np.linspace(1.0, 2.0, d), n * h, "spy")
    (seg,) = solve(ssm, ivp, h, 0.0).segments
    settled = settled_step(ssm, h, 0.0, n)
    assert settled == 19  # most steps run the frozen loop
    assert [t for t, _ in calls] == [0.0] + [k * h for k in range(1, n + 1)]
    assert all(x.dtype == np.float64 and x.shape == (d,) for _, x in calls)
    # past the freeze step k gets the last row of B S, S step k-1's slot-major block
    trans, proj = ssm.transition_builder(h), ssm.projections
    B = np.vstack([trans.A, proj.H @ trans.A, proj.H0 @ trans.A])
    for k in range(settled + 1, n + 1):
        assert calls[k][1].tobytes() == (B @ seg.means[k - 1].T)[-1].tobytes(), k
    assert len({x.__array_interface__["data"][0] for _, x in calls}) == n + 1


def _per_covariance_stds(seg):
    H0 = seg.projections.H0
    stds = [np.sqrt(max(float(H0 @ cov @ H0), 0.0)) for cov in seg.covs]
    return np.repeat(np.array(stds)[:, None], seg.means.shape[1], axis=1)


def _segment(prior, order):
    if prior == "taylor":
        ssm = taylor_state_space(TaylorParams(order, 1.0))
        return solve(ssm, replace(fhn(), T=2.0), 0.01, 0.0).segments[0]
    config = HybridConfig(
        taylor=TaylorParams(1, 1.0), fourier=FourierParams(order, 1.0, 3.0, 1.0), T_p=1.5, h=0.01
    )
    return hybrid_solve(config, replace(vdp(), T=3.0)).segments[1]


@pytest.mark.parametrize(
    "prior,order",
    [("taylor", 1), ("taylor", 2), ("taylor", 3), ("taylor", 4), ("fourier", 3), ("fourier", 5)],
    ids=["taylor-q1", "taylor-q2", "taylor-q3", "taylor-q4", "fourier-J3", "fourier-J5"],
)
def test_batched_value_stds_equal_the_per_covariance_loop(prior, order):
    seg = _segment(prior, order)
    assert np.array_equal(seg.value_stds(), _per_covariance_stds(seg))
    # H0 reads slot 0 in both priors: negative variances (clamped to +0.0),
    # an all -0.0 covariance and a NaN variance. The products sum from +0.0,
    # so the -0.0 covariance yields a +0.0 variance on both sides; the sign
    # of every zero is compared anyway.
    covs = seg.covs.copy()
    covs[:4] = 0.0
    covs[4] = -0.0
    covs[:4, 0, 0] = -1e-3, -np.inf, np.nan, -0.0
    odd = PhaseSegment(seg.phase, seg.projections, seg.t, seg.means, covs)
    got, expected = odd.value_stds(), _per_covariance_stds(odd)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.array_equal(got[[0, 1, 3, 4], 0], np.zeros(4)) and np.isnan(got[2, 0])
