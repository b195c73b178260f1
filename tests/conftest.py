"""Shared fixtures and independent oracles for the test suite.

The batch Gaussian conditioning and rotation helpers here are deliberately
written from scratch (information form, explicit trig) so they share no code
path with the filtering implementation they judge.
"""

import math

import numpy as np

from odefilter import GaussianBelief, ProjectionPair, Trajectory
from odefilter.solver import PhaseSegment

PSD_RELATIVE_TOL = 1e-10


def assert_covariance_hygiene(cov: np.ndarray):
    """Exact covariance symmetry plus eigenvalues >= -1e-10 * largest magnitude."""
    assert np.array_equal(cov, cov.T), "covariance not exactly symmetric"
    eig = np.linalg.eigvalsh(cov)
    largest = float(np.max(np.abs(eig)))
    assert eig.min() >= -PSD_RELATIVE_TOL * largest, f"covariance not PSD: {eig}"


def assert_belief_hygiene(belief: GaussianBelief):
    assert_covariance_hygiene(belief.cov)


def assert_trajectory_hygiene(traj: Trajectory) -> int:
    """Checks every stored covariance (one per grid point, shared by all
    coordinates); returns how many were checked."""
    checked = 0
    for seg in traj.segments:
        for cov in seg.covs:
            assert_covariance_hygiene(cov)
        checked += len(seg.covs)
    return checked


def batch_gaussian_posterior(m0, P0, rows, zs, rvars):
    """Information-form posterior of N(m0, P0) given z_k = rows[k] @ x + N(0, rvars[k])."""
    m0 = np.asarray(m0, float)
    P0 = np.asarray(P0, float)
    lam = np.linalg.inv(P0)
    eta = lam @ m0
    for row, z, rv in zip(rows, zs, rvars):
        row = np.asarray(row, float)
        lam = lam + np.outer(row, row) / rv
        eta = eta + row * (z / rv)
    cov = np.linalg.inv(lam)
    return cov @ eta, cov


def extended_precision_ibm_filter(q: int, h: float, R: float, field, x0, n: int, jitter: float):
    """State means (n+1, d, q+1) of the IBM (sigma2 = 1) filter on derivative
    measurements, run in np.longdouble from the closed-form A and Q.

    Measures how far float64 rounding alone moves a filter's means; the
    initial covariance is jitter * I, as in taylor_init.
    """
    ld = np.longdouble
    D = q + 1
    A = np.zeros((D, D), ld)
    Q = np.zeros((D, D), ld)
    for i in range(D):
        for j in range(i, D):
            A[i, j] = ld(h) ** (j - i) / math.factorial(j - i)
            p = 2 * q + 1 - i - j
            Q[i, j] = Q[j, i] = ld(h) ** p / (p * math.factorial(q - i) * math.factorial(q - j))
    x0 = np.asarray(x0, ld)
    M = np.zeros((x0.size, D), ld)
    M[:, 0], M[:, 1] = x0, field(x0, 0.0)
    P = ld(jitter) * np.eye(D, dtype=ld)
    means = [M]
    for k in range(1, n + 1):
        M, P = M @ A.T, A @ P @ A.T + Q
        K = P[:, 1] / (P[1, 1] + ld(R))
        M = M + np.outer(field(M[:, 0], k * h) - M[:, 1], K)
        IKH = np.eye(D, dtype=ld)
        IKH[:, 1] -= K
        P = IKH @ P @ IKH.T + ld(R) * np.outer(K, K)
        means.append(M)
    return np.array(means)


def rotation_matrix(J: int, w0: float, t: float) -> np.ndarray:
    """Block-diagonal oscillator rotation at time t, built with plain trig."""
    D = 2 * (J + 1)
    A = np.zeros((D, D))
    for j in range(J + 1):
        c, s = math.cos(w0 * j * t), math.sin(w0 * j * t)
        A[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    return A


def random_spd(rng, d: int, boost: float = 0.5) -> np.ndarray:
    raw = rng.normal(size=(d, d))
    m = raw @ raw.T + boost * np.eye(d)
    return 0.5 * (m + m.T)


def synthetic_taylor_trajectory(fun, dfun, h: float, n: int, var: float = 0.0) -> Trajectory:
    """One-coordinate trajectory whose means are [fun(t), dfun(t)], for training tests."""
    ts = [k * h for k in range(n + 1)]
    means = np.array([[[fun(t), dfun(t)]] for t in ts])
    covs = np.repeat(var * np.eye(2)[None], n + 1, axis=0)
    projections = ProjectionPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    segment = PhaseSegment("taylor", projections, np.array(ts), means, covs)
    return Trajectory((segment,), h, "synthetic")
