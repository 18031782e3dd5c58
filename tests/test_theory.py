import math

import numpy as np
import pytest

from mlx import theory


def test_augmented_kernel_single_point():
    k = theory.augmented_kernel(np.array([[0.3, -0.7]]), 1.0, 2.0)
    assert k == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.25]]))


def test_augmented_kernel_symmetry():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(5, 2))
    k = theory.augmented_kernel(pts, 0.8, 1.3)
    assert k == pytest.approx(k.T)


def test_augmented_kernel_positive_semidefinite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-2, 2, size=(n, 2))
        theta1, theta2 = rng.uniform(0.5, 2.0, size=2)
        eig = np.linalg.eigvalsh(theory.augmented_kernel(pts, theta1, theta2))
        assert eig.min() >= -1e-10


def test_augmented_kernel_rejects_duplicates():
    with pytest.raises(ValueError):
        theory.augmented_kernel(np.array([[0.0, 0.0], [0.0, 0.0]]), 1.0, 1.0)


def test_posterior_mean_single_point_values():
    setup = theory.GpSetup(points=[[0.2, -0.5]], y=[1.0], alpha=1.4, beta=0.8)
    assert setup.ytilde == pytest.approx([1.0, 0.0], abs=1e-6)
    # at the training point the posterior reproduces the observation
    assert theory.gp_posterior_mean_marginalized(setup, [0.2, -0.5]) == pytest.approx(1.0, abs=1e-6)
    # x2-only shift decays by the closed-form factor
    delta = 0.9
    got = theory.gp_posterior_mean_marginalized(setup, [0.2, -0.5 + delta])
    assert got == pytest.approx((1 + delta**2 / (2 * 0.8)) ** (-1.4), rel=1e-6)


def test_posterior_mean_single_point_maximised_at_data():
    setup = theory.GpSetup(points=[[0.0, 0.0]], y=[2.0], alpha=1.0, beta=1.0)
    rng = np.random.default_rng(2)
    at_point = theory.gp_posterior_mean_marginalized(setup, [0.0, 0.0])
    for _ in range(100):
        q = rng.uniform(-2, 2, size=2)
        assert theory.gp_posterior_mean_marginalized(setup, q) <= at_point + 1e-12


def test_posterior_mean_symmetric_under_relabeling():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(4, 2))
    y = rng.normal(size=4)
    setup = theory.GpSetup(points=pts, y=y, alpha=1.2, beta=0.9)
    perm = np.array([2, 0, 3, 1])
    setup_p = theory.GpSetup(points=pts[perm], y=y[perm], alpha=1.2, beta=0.9)
    q = np.array([[0.3, 0.4], [-0.7, 0.9]])
    assert theory.gp_posterior_mean_marginalized(setup, q) == pytest.approx(
        theory.gp_posterior_mean_marginalized(setup_p, q)
    )


def test_thm1_zero_delta_is_zero():
    setup = theory.GpSetup(points=[[0.0, 0.0]], y=[1.0], alpha=1.0, beta=1.0)
    lhs, rhs = theory.thm1_gap_and_bound(setup, [0.5, 1.0], 0.0)
    assert lhs == 0.0
    assert rhs == 0.0


def test_thm1_regime_enforced():
    setup = theory.GpSetup(points=[[0.0, 0.0]], y=[1.0], alpha=1.0, beta=1.0)
    with pytest.raises(theory.RegimeError):
        theory.thm1_gap_and_bound(setup, [0.5, 1.0], 0.5)


def test_thm1_bound_linear_in_delta():
    setup = theory.GpSetup(points=[[0.1, -0.4]], y=[0.8], alpha=1.3, beta=1.1)
    x = [0.0, 0.6]
    _, r1 = theory.thm1_gap_and_bound(setup, x, 0.002)
    _, r2 = theory.thm1_gap_and_bound(setup, x, 0.004)
    assert r2 == pytest.approx(2 * r1, rel=1e-2)


def test_thm1_trial_pass_rate():
    result = theory.run_thm1_trials(300, seed=0)
    assert result["pass_rate"] >= 0.95
    assert result["passed"]


def test_coverage_full_grid_gives_zero():
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 11), np.linspace(-1, 1, 11), indexing="ij"), axis=-1).reshape(-1, 2)
    losses = np.zeros(len(grid))
    q = theory.coverage_estimate(grid, losses, np.ones(len(grid)), [0.0], phi=0.1)
    assert q.c == 0.0


def test_coverage_line_geometry():
    # covered set is the line x2 = 0; domain spans x2 in [-1, 1]
    grid = np.stack(np.meshgrid(np.linspace(-1, 1, 11), np.linspace(-1, 1, 21), indexing="ij"), axis=-1).reshape(-1, 2)
    losses = np.where(np.abs(grid[:, 1]) < 1e-9, 0.0, 1.0)
    q = theory.coverage_estimate(grid, losses, np.ones(len(grid)), [0.0], phi=0.5)
    assert q.c == pytest.approx(1.0)


def test_coverage_monotone_in_phi():
    rng = np.random.default_rng(4)
    grid = rng.uniform(-1, 1, size=(200, 2))
    losses = rng.random(200)
    prev = math.inf
    for phi in (0.1, 0.3, 0.6, 0.9):
        q = theory.coverage_estimate(grid, losses, np.ones(200), [0.0], phi)
        c = q.c if not math.isnan(q.c) else math.inf
        assert c <= prev + 1e-12
        prev = c


def test_coverage_empty_set_is_nan():
    grid = np.zeros((4, 2))
    grid[:, 1] = [0.0, 0.3, 0.6, 1.0]
    q = theory.coverage_estimate(grid, np.ones(4), np.ones(4), [0.0], phi=0.5)
    assert math.isnan(q.c)


def test_thm2_trials_all_pass():
    result = theory.run_thm2_trials(40, seed=0)
    assert result["n_checked"] > 0
    assert result["pass_rate"] == 1.0


@pytest.mark.parametrize("seed", [4, 19, 21, 27, 38])
def test_thm2_trials_pass_on_seeds_with_an_uncovered_column(seed):
    # each seed draws a trial whose low-loss set meets every x2 row but not every x1 column
    result = theory.run_thm2_trials(100, seed)
    assert result["n_checked"] == 100
    assert result["passed"]


def test_thm2_bound_linear_in_coverage():
    # rhs = 2 C delta_max f_max / theta^2: doubling C doubles the bound
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(-2, 2, 8), rng.uniform(-2, -0.5, 8)], axis=1)
    y = 1.0 + 0.3 * np.sin(pts[:, 0])
    g1, g2 = np.meshgrid(np.linspace(-2, 2, 15), np.linspace(-2, 2, 15), indexing="ij")
    grid = np.stack([g1.ravel(), g2.ravel()], axis=1)
    target = 1.0 + 0.3 * np.sin(grid[:, 0])
    lhs, rhs, q = theory.thm2_check(pts, y, 1.0, grid, target, delta=0.05, phi=5e-3)
    assert rhs == pytest.approx(2 * q.c * q.delta_max * q.f_max, rel=1e-12)


def test_prop1_analytic_values():
    assert theory.prop1_weights(1, 1.0) == pytest.approx([0.5, 0.5])
    assert theory.prop1_weights(3, 1.0) == pytest.approx([0.25, 0.25, 0.25, 0.25])
    assert theory.prop1_weights(4, 2.0)[-1] == pytest.approx(2.0 / 6.0)


def test_prop1_matches_moment_oracle():
    for d in (1, 2, 5, 10):
        for k in (1.0, 4.0):
            gap = np.abs(theory.prop1_weights(d, k) - theory.prop1_weights_from_moments(d, k)).max()
            assert gap < 1e-10


def test_prop1_matches_sampling_oracle():
    rng = np.random.default_rng(6)
    w = theory.prop1_weights_empirical(3, 1.0, 200000, rng)
    assert np.abs(w - theory.prop1_weights(3, 1.0)).max() < 1e-2


def test_prop1_relevant_weight_decreases_with_dimension():
    values = [theory.prop1_weights(d, 2.0)[-1] for d in range(1, 15)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # irrelevant mass approaches 1
    assert sum(theory.prop1_weights(200, 1.0)[:-1]) > 0.99


def test_prop1_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theory.prop1_weights(0, 1.0)
    with pytest.raises(ValueError):
        theory.prop1_weights(3, 0.0)
