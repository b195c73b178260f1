"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Quantitative thresholds that depend on solver output (criterion 8)
were pre-registered from an oracle run at the benchmark step size and are
frozen below.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest
import scipy.special

from odefilter import (
    FourierParams,
    HybridConfig,
    TaylorParams,
    TrainNoise,
    TrainPolicy,
    bessel_i,
    fourier_transition,
    fourier_weights,
    hybrid_solve,
    ibm_transition,
    solve,
    taylor_state_space,
)
from odefilter import problems
from odefilter.cli import trajectory_csv
from odefilter.filtering import _cov_map
from odefilter.fourier import _fourier_prior
from odefilter.hybrid import _train

from conftest import (
    CountingField,
    assert_covariance_hygiene,
    assert_trajectory_hygiene,
    batch_gaussian_posterior,
    joseph_update,
    rotation_matrix,
    synthetic_taylor_trajectory,
)

TAYLOR_51 = TaylorParams(1, 1.0)
FOURIER_51 = FourierParams(3, 1.0, 3.0, 1.0)

# Pre-registered RMSE thresholds for criterion 8, derived from an oracle run
# at h=0.01 against rk4_reference(h_ref=1e-4): measured per-coordinate RMSE
# vdp [2.03e-3, 3.98e-4] and fhn [2.97e-5, 7.07e-6]; thresholds carry ~2x
# headroom.
VDP_RMSE_BOUNDS = (4.0e-3, 8.0e-4)
FHN_RMSE_BOUNDS = (1.0e-4, 2.0e-5)


def _report(num: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def linear_solves():
    ivp = problems.by_name("linear", T=2.0)
    ssm = taylor_state_space(TAYLOR_51)
    return {h: solve(ssm, ivp, h, 0.0) for h in (0.1, 0.05, 0.025)}


@pytest.fixture(scope="module")
def batch_filter_run():
    rng = np.random.default_rng(23)
    params = FourierParams(2, 1.3, 1.5, 1.0)
    h, n, R = 0.1, 50, 0.4
    rows = rng.normal(size=(n, params.dim))
    zs = rng.normal(size=n)

    trans = fourier_transition(h, params)
    prior = _fourier_prior(params)
    beliefs = [prior]  # (mean, covariance) after each step
    for k in range(n):
        m, P = beliefs[-1]
        predicted = trans.A @ m, _cov_map(P, trans.A, trans.Q)
        beliefs.append(joseph_update(*predicted, rows[k], R, zs[k]))

    batch_rows = [rows[k] @ rotation_matrix(params.J, params.w0, (k + 1) * h) for k in range(n)]
    m0, P0 = batch_gaussian_posterior(*prior, batch_rows, zs, [R] * n)
    A_end = rotation_matrix(params.J, params.w0, n * h)
    return {
        "beliefs": beliefs,
        "ref_mean": A_end @ m0,
        "ref_cov": A_end @ P0 @ A_end.T,
    }


@pytest.fixture(scope="module")
def cosine_training():
    traj = synthetic_taylor_trajectory(math.cos, lambda t: -math.sin(t), 0.1, 125)
    M, P = _train(*_fourier_prior(FOURIER_51), traj, FOURIER_51, TrainPolicy(), TrainNoise())
    return {"traj": traj, "trained": (M[0], P)}


@pytest.fixture(scope="module")
def cosine_hybrid():
    h = 4 * math.pi / 252
    t_p = 4 * math.pi
    config = HybridConfig(taylor=TAYLOR_51, fourier=FOURIER_51, T_p=t_p, h=h, R=0.0)
    traj = hybrid_solve(config, problems.by_name("cosine", T=6 * math.pi))
    return {"traj": traj, "T_p": t_p}


def _benchmark_run(name: str):
    ivp = problems.by_name(name)
    counting = CountingField(ivp.field)
    config = HybridConfig(taylor=TAYLOR_51, fourier=FOURIER_51, T_p=37.5, h=0.01, R=0.0)
    traj = hybrid_solve(config, replace(ivp, field=counting))
    reference = problems.rk4_reference(replace(ivp, T=37.5), 1e-4, h_out=0.01)
    return {"traj": traj, "counter": counting, "reference": reference, "csv": trajectory_csv(traj)}


@pytest.fixture(scope="module")
def vdp_run():
    return _benchmark_run("vdp")


@pytest.fixture(scope="module")
def fhn_run():
    return _benchmark_run("fhn")


def test_criterion_1_global_convergence_order(request):
    start = perf_counter()
    solves = request.getfixturevalue("linear_solves")
    errors = []
    for h, traj in solves.items():
        exact = np.exp(-traj.times())
        errors.append(float(np.max(np.abs(traj.value_means()[:, 0] - exact))))
    hs = list(solves)
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    elapsed = perf_counter() - start
    _report(
        1,
        order >= 0.8 and elapsed < 1.0,
        f"(fitted order {order:.3f} >= 0.8, runtime {elapsed:.3f}s < 1s)",
    )


def test_criterion_2_ibm_transition_correctness():
    trans = ibm_transition(1.0, TaylorParams(1, 1.0))
    exact = np.array_equal(trans.A, [[1.0, 1.0], [0.0, 1.0]]) and np.array_equal(
        trans.Q, [[1 / 3, 1 / 2], [1 / 2, 1.0]]
    )

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        h1, h2 = rng.uniform(0.05, 1.5, size=2)
        params = TaylorParams(int(rng.integers(1, 4)), 1.0)
        gap = np.max(
            np.abs(
                ibm_transition(h1, params).A @ ibm_transition(h2, params).A
                - ibm_transition(h1 + h2, params).A
            )
        )
        worst = max(worst, float(gap))
    _report(
        2,
        exact and worst <= 1e-12,
        f"(unit matrices exact: {exact}, worst semigroup gap {worst:.2e} <= 1e-12)",
    )


def test_criterion_3_fourier_transition_correctness():
    rng = np.random.default_rng(3)
    worst_semigroup = 0.0
    worst_orth = 0.0
    for _ in range(100):
        h1, h2 = rng.uniform(0.01, 5.0, size=2)
        params = FourierParams(int(rng.integers(0, 5)), float(rng.uniform(0.1, 3.0)), 3.0, 1.0)
        a1 = fourier_transition(h1, params).A
        a2 = fourier_transition(h2, params).A
        a12 = fourier_transition(h1 + h2, params).A
        worst_semigroup = max(worst_semigroup, float(np.max(np.abs(a1 @ a2 - a12))))
        worst_orth = max(
            worst_orth, float(np.max(np.abs(a1.T @ a1 - np.eye(a1.shape[0]))))
        )

    worst_period = 0.0
    for J in range(4):
        for w0 in (0.5, 1.0, 2.7):
            A = fourier_transition(2 * math.pi / w0, FourierParams(J, w0, 3.0, 1.0)).A
            worst_period = max(worst_period, float(np.max(np.abs(A - np.eye(A.shape[0])))))

    _report(
        3,
        worst_semigroup <= 1e-12 and worst_orth <= 1e-12 and worst_period <= 1e-12,
        f"(semigroup {worst_semigroup:.2e}, orthogonality {worst_orth:.2e}, "
        f"full period {worst_period:.2e}, all <= 1e-12)",
    )


def test_criterion_4_bessel_weights():
    worst = 0.0
    for j in range(9):
        for z in np.linspace(0.0, 2.0, 81):
            ref = float(scipy.special.iv(j, z))
            worst = max(worst, abs(bessel_i(j, float(z)) - ref) / max(1.0, abs(ref)))

    q1 = float(fourier_weights(FourierParams(3, 1.0, 3.0, 1.0))[1])
    q1_oracle = 2.0 * float(scipy.special.iv(1, 1.0 / 9.0)) / math.exp(1.0 / 9.0)
    q1_gap = abs(q1 - q1_oracle)
    _report(
        4,
        worst <= 1e-12 and q1_gap <= 1e-3,
        f"(bessel vs scipy {worst:.2e} <= 1e-12, q1^2={q1:.6f} vs oracle "
        f"{q1_oracle:.6f}, gap {q1_gap:.1e} <= 1e-3)",
    )


def test_criterion_5_filtering_equals_batch_regression(request):
    start = perf_counter()
    data = request.getfixturevalue("batch_filter_run")
    final_mean, final_cov = data["beliefs"][-1]
    mean_gap = float(
        np.linalg.norm(final_mean - data["ref_mean"]) / np.linalg.norm(data["ref_mean"])
    )
    cov_gap = float(
        np.linalg.norm(final_cov - data["ref_cov"]) / np.linalg.norm(data["ref_cov"])
    )
    elapsed = perf_counter() - start
    _report(
        5,
        mean_gap <= 1e-8 and cov_gap <= 1e-8 and elapsed < 1.0,
        f"(mean gap {mean_gap:.2e}, cov gap {cov_gap:.2e}, both <= 1e-8; "
        f"runtime {elapsed:.3f}s < 1s)",
    )


def test_criterion_6_fourier_coefficient_recovery(request):
    data = request.getfixturevalue("cosine_training")
    t_p = data["traj"].times()[-1]
    coeffs = rotation_matrix(FOURIER_51.J, FOURIER_51.w0, t_p).T @ data["trained"][0]
    gap_a1 = abs(coeffs[2] - 1.0)
    gap_b1 = abs(coeffs[3])
    gap_rest = float(np.max(np.abs(np.concatenate([coeffs[:2], coeffs[4:]]))))
    _report(
        6,
        gap_a1 <= 5e-2 and gap_b1 <= 5e-2 and gap_rest <= 5e-2,
        f"(|a1-1|={gap_a1:.2e}, |b1|={gap_b1:.2e}, other blocks {gap_rest:.2e}, "
        f"all <= 5e-2)",
    )


def test_criterion_7_hybrid_extrapolation(request):
    data = request.getfixturevalue("cosine_hybrid")
    traj = data["traj"]
    ts = traj.times()
    values = traj.value_means()[:, 0]
    mask = ts > data["T_p"]
    rmse = float(np.sqrt(np.mean((values[mask] - np.cos(ts[mask])) ** 2)))
    _report(7, rmse <= 1e-2, f"(extrapolation RMSE {rmse:.2e} <= 1e-2)")


def test_criterion_8_end_to_end_benchmark_runs(request, tmp_path):
    start = perf_counter()
    runs = {
        "vdp": (request.getfixturevalue("vdp_run"), VDP_RMSE_BOUNDS),
        "fhn": (request.getfixturevalue("fhn_run"), FHN_RMSE_BOUNDS),
    }
    failures = []
    details = []
    for name, (run, bounds) in runs.items():
        traj = run["traj"]
        csv_lines = run["csv"].split("\n")[:-1]
        (tmp_path / f"{name}.csv").write_text(run["csv"])
        if len(csv_lines) - 1 != 5001:
            failures.append(f"{name}: {len(csv_lines) - 1} CSV rows != 5001")
        phases = traj.phases()
        if phases[3750] != "taylor" or phases[3751] != "fourier":
            failures.append(f"{name}: phase does not flip at t=37.5")
        if traj.times()[3750] != 37.5:
            failures.append(f"{name}: taylor phase does not end at 37.5")
        counter = run["counter"]
        if counter.calls != 3751:
            failures.append(f"{name}: {counter.calls} field evaluations != 3751")
        if counter.max_t > 37.5:
            failures.append(f"{name}: field evaluated after T_p (t={counter.max_t})")
        values = traj.value_means()[:3751]
        if not np.all(np.isfinite(values)):
            failures.append(f"{name}: non-finite trajectory values")
        ref = run["reference"].value_means()
        rmse = np.sqrt(np.mean((values - ref) ** 2, axis=0))
        details.append(f"{name} RMSE {rmse[0]:.2e}/{rmse[1]:.2e}")
        for i, bound in enumerate(bounds):
            if rmse[i] > bound:
                failures.append(f"{name}: coordinate {i} RMSE {rmse[i]:.2e} > {bound:.1e}")
    elapsed = perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(
        8,
        not failures,
        f"({'; '.join(details)} within {VDP_RMSE_BOUNDS}/{FHN_RMSE_BOUNDS}; "
        f"runtime {elapsed:.1f}s < 30s)"
        + (f" failures: {failures}" if failures else ""),
    )


def test_criterion_9_covariance_hygiene(
    linear_solves, batch_filter_run, cosine_training, cosine_hybrid, vdp_run, fhn_run
):
    checked = 0
    for traj in linear_solves.values():
        checked += assert_trajectory_hygiene(traj)
    for _, cov in batch_filter_run["beliefs"]:
        assert_covariance_hygiene(cov)
        checked += 1
    assert_covariance_hygiene(cosine_training["trained"][1])
    checked += 1
    for traj in (cosine_hybrid["traj"], vdp_run["traj"], fhn_run["traj"]):
        checked += assert_trajectory_hygiene(traj)
    _report(9, True, f"({checked} covariances symmetric and PSD within 1e-10 relative)")
