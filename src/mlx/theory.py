"""Numerical checks of the nonparametric and linear analyses.

Setting: 2-D regression under a squared-exponential GP prior with
per-dimension length scales theta_1, theta_2 and a Gamma(alpha, beta)
prior on each theta_i^{-2}. Observations are function values y_n plus
a zero derivative observation df/dx2 = 0 at every training point (the
second coordinate is the irrelevant feature).

Closed forms implemented here, with d(a, b) = (a - b)^2 / 2 and
ytilde = Khat^{-1} [y; 0] evaluated at unit reference length scales
theta_1 = theta_2 = 1:

* marginalised posterior mean
    f(x) = sum_n (1 + d(x1, x1n)/beta)^-alpha (1 + d(x2, x2n)/beta)^-alpha
           [ ytilde_n + (alpha/beta)(x2 - x2n) / (1 + d(x2, x2n)/beta) ytilde_{n+N} ]

* gap lower bound (derivative-supervised fit, small-delta regime)
    f(x + [0, delta]) - f(x) >=
    (2 delta alpha / beta) sum_n (1 + d1/beta)^-alpha (1 + d2/beta)^-(alpha+1)
        [ (alpha+1) ytilde_{n+N} (2 (x2-x2n)(x2+delta-x2n) / (beta+d2) - 1) - ytilde_n ]

* coverage-controlled deviation bound (fixed theta, plain-value GP)
    |f(x + [0, delta]) - f(x)| <= 2 C delta_max f_max / theta^2
  where C is the worst Euclidean distance from a domain point to the
  low-loss set (so C is 0 only when the whole domain is low-loss),
  delta_max the worst x2-distance from a domain point to the
  training points, and f_max the largest posterior value on the domain.

* mean-estimator weights for the noise-augmented linear problem:
  with D irrelevant copies of the target and one relevant feature of
  noise precision K, the fitted weights are 1/(D+K) on each irrelevant
  feature and K/(D+K) on the relevant one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class RegimeError(ValueError):
    """Query configuration violates the small-perturbation regime."""


# ---------------------------------------------------------------------------
# augmented kernel with derivative observations


def se_kernel(a: np.ndarray, b: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    """Squared-exponential Gram matrix between (n,2) and (m,2) point sets."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d1 = a[:, None, 0] - b[None, :, 0]
    d2 = a[:, None, 1] - b[None, :, 1]
    return np.exp(-0.5 * (d1 / theta1) ** 2 - 0.5 * (d2 / theta2) ** 2)


def augmented_kernel(points: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    """2N x 2N covariance of (values, x2-derivatives) at the training points.

    Blocks follow cov(f, df/dx2) = dk/dx2' and cov(df/dx2, df/dx2') =
    d2k/dx2 dx2' for the squared-exponential kernel:

        [ k              (x2i - x2j)/t2^2 k ]
        [ -(x2i-x2j)/t2^2 k   (1/t2^2 - (x2i-x2j)^2/t2^4) k ]
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if np.count_nonzero(np.all(points[:, None, :] == points[None, :, :], axis=2)) != n:  # more than the diagonal
        raise ValueError("training points must be distinct")
    k = se_kernel(points, points, theta1, theta2)
    d2 = points[:, None, 1] - points[None, :, 1]
    t2sq = theta2 * theta2
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = k
    np.multiply(d2 / t2sq, k, out=out[:n, n:])
    np.negative(out[:n, n:], out=out[n:, :n])
    np.multiply(1.0 / t2sq - (d2 * d2) / (t2sq * t2sq), k, out=out[n:, n:])
    return out


@dataclass
class GpSetup:
    """Training data and Gamma hyperparameters for the marginalised posterior."""

    points: np.ndarray  # (N, 2)
    y: np.ndarray  # (N,) value observations
    alpha: float  # Gamma shape
    beta: float  # Gamma rate
    ytilde: np.ndarray = field(init=False, repr=False)  # Khat^{-1} [y; 0] at unit scales

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if min(self.alpha, self.beta) <= 0:
            raise ValueError("Gamma hyperparameters must be positive")
        n = self.points.shape[0]
        if self.y.shape != (n,):
            raise ValueError("y must match the number of training points")
        khat = augmented_kernel(self.points, 1.0, 1.0) + 1e-8 * np.eye(2 * n)
        self.ytilde = np.linalg.solve(khat, np.concatenate([self.y, np.zeros(n)]))


def gp_posterior_mean_marginalized(setup: GpSetup, query) -> np.ndarray | float:
    """Posterior mean with the Gamma prior integrated out of both length scales."""
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    yt = setup.ytilde
    n = setup.points.shape[0]
    a, b = setup.alpha, setup.beta
    d1 = 0.5 * (q[:, None, 0] - setup.points[None, :, 0]) ** 2
    d2 = 0.5 * (q[:, None, 1] - setup.points[None, :, 1]) ** 2
    fac1 = (1.0 + d1 / b) ** (-a)
    fac2 = (1.0 + d2 / b) ** (-a)
    grad_term = (a / b) * (q[:, None, 1] - setup.points[None, :, 1]) / (1.0 + d2 / b)
    vals = np.sum(fac1 * fac2 * (yt[None, :n] + grad_term * yt[None, n:]), axis=1)
    return vals if np.asarray(query).ndim == 2 else float(vals[0])


def thm1_gap_and_bound(setup: GpSetup, x, delta: float) -> tuple[float, float]:
    """Function-value gap under an x2 perturbation and its closed-form
    lower bound; valid when delta is far below every x2 distance to the
    training points (enforced at 1%)."""
    x = np.asarray(x, dtype=np.float64).reshape(2)
    gaps = np.abs(x[1] - setup.points[:, 1])
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta > 0.01 * gaps.min():
        raise RegimeError(f"delta {delta} exceeds 1% of the smallest x2 gap {gaps.min()}")
    lhs = float(
        gp_posterior_mean_marginalized(setup, x + np.array([0.0, delta]))
        - gp_posterior_mean_marginalized(setup, x)
    )
    yt = setup.ytilde
    n = setup.points.shape[0]
    a, b = setup.alpha, setup.beta
    d1 = 0.5 * (x[0] - setup.points[:, 0]) ** 2
    d2 = 0.5 * (x[1] - setup.points[:, 1]) ** 2
    fac1 = (1.0 + d1 / b) ** (-a)
    fac2 = (1.0 + d2 / b) ** (-(a + 1.0))
    inner = (a + 1.0) * yt[n:] * (
        2.0 * (x[1] - setup.points[:, 1]) * (x[1] + delta - setup.points[:, 1]) / (b + d2) - 1.0
    ) - yt[:n]
    rhs = float(2.0 * delta * a / b * np.sum(fac1 * fac2 * inner))
    return lhs, rhs


# ---------------------------------------------------------------------------
# coverage and the fixed-theta deviation bound


@dataclass
class CoverageQuery:
    c: float  # worst Euclidean distance to the covered set (nan if empty)
    delta_max: float  # worst x2 distance to the training points
    f_max: float  # largest function value on the grid


def coverage_estimate(grid: np.ndarray, losses: np.ndarray, f_values: np.ndarray, train_x2, phi: float) -> CoverageQuery:
    """Coverage statistics of a low-loss set on a finite domain grid."""
    grid = np.atleast_2d(grid)
    losses = np.asarray(losses).reshape(-1)
    f_values = np.asarray(f_values).reshape(-1)
    train_x2 = np.asarray(train_x2, dtype=np.float64).reshape(-1)
    covered = losses < phi
    x2 = grid[:, 1]
    if covered.any():
        # covered points are at distance 0; square coordinate by coordinate
        # (a norm over a stacked difference array costs five times more)
        free, hit = grid[~covered], grid[covered]
        sq = (free[:, None, 0] - hit[None, :, 0]) ** 2 + (free[:, None, 1] - hit[None, :, 1]) ** 2
        c = math.sqrt(float(sq.min(axis=1).max(initial=0.0)))
    else:
        c = math.nan  # undefined: nothing satisfies the loss threshold
    delta_max = float(np.max(np.min(np.abs(x2[:, None] - train_x2[None, :]), axis=1)))
    return CoverageQuery(c, delta_max, float(np.max(f_values)))


def thm2_check(
    points: np.ndarray,
    y: np.ndarray,
    theta: float,
    grid: np.ndarray,
    target_values: np.ndarray,
    delta: float,
    phi: float,
) -> tuple[float, float, CoverageQuery]:
    """Worst observed deviation under an x2 shift of delta versus the
    coverage bound 2 C delta_max f_max / theta^2, on a noise-free
    plain-value GP fit at one shared length scale theta.

    The low-loss set is defined by squared error against
    ``target_values`` on the grid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = se_kernel(points, points, theta, theta) + 1e-8 * np.eye(points.shape[0])
    weights = np.linalg.solve(k, np.asarray(y, dtype=np.float64).reshape(-1))
    grid = np.atleast_2d(grid)
    f = se_kernel(grid, points, theta, theta) @ weights
    losses = (f - np.asarray(target_values).reshape(-1)) ** 2
    query = coverage_estimate(grid, losses, f, points[:, 1], phi)
    if math.isnan(query.c):
        return math.nan, math.nan, query
    shifted = se_kernel(grid + np.array([0.0, delta]), points, theta, theta) @ weights
    lhs = float(np.max(np.abs(shifted - f)))
    rhs = float(2.0 * query.c * query.delta_max * query.f_max / theta**2)
    return lhs, rhs, query


# ---------------------------------------------------------------------------
# mean-estimator weights for the noise-augmented linear problem


def prop1_weights(d_irrelevant: int, k_precision: float) -> np.ndarray:
    """Analytic weights: 1/(D+K) on the D duplicated features, K/(D+K) last."""
    if d_irrelevant < 1 or k_precision <= 0:
        raise ValueError("need D >= 1 and K > 0")
    w = np.full(d_irrelevant + 1, 1.0 / (d_irrelevant + k_precision))
    w[-1] = k_precision / (k_precision + d_irrelevant)
    return w


def prop1_weights_from_moments(d_irrelevant: int, k_precision: float) -> np.ndarray:
    """Independent oracle: minimum-variance unbiased linear combination.

    After masked unit noise is averaged in, feature i carries the target
    plus independent noise of variance sigma_i^2 (1 for the duplicated
    features, 1/K for the relevant one). With a flat prior on the
    target, the estimator solves
        min_w w' diag(sigma^2) w   s.t.  sum_i w_i = 1
    via its KKT system; no use of the analytic formula.
    """
    d = d_irrelevant + 1
    sigma2 = np.ones(d)
    sigma2[-1] = 1.0 / k_precision
    kkt = np.zeros((d + 1, d + 1))
    kkt[:d, :d] = 2.0 * np.diag(sigma2)
    kkt[:d, d] = 1.0
    kkt[d, :d] = 1.0
    rhs = np.zeros(d + 1)
    rhs[d] = 1.0
    return np.linalg.solve(kkt, rhs)[:d]


def prop1_weights_empirical(
    d_irrelevant: int,
    k_precision: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampling oracle: least squares on synthetic noise-augmented data.

    Targets are drawn at scale 30, far wider than the unit noise, to
    emulate the flat prior.
    """
    y = rng.normal(0.0, 30.0, size=n_samples)
    x = np.empty((n_samples, d_irrelevant + 1))
    x[:, :d_irrelevant] = y[:, None] + rng.normal(size=(n_samples, d_irrelevant))
    x[:, d_irrelevant] = y + rng.normal(0.0, 1.0 / math.sqrt(k_precision), size=n_samples)
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    return w


# ---------------------------------------------------------------------------
# randomized trial runners (frozen distributions; used by the CLI report)


def run_kernel_psd_trials(n_trials: int, seed: int) -> dict:
    """Smallest eigenvalue of the augmented kernel over random point sets."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x6B65]))
    worst = math.inf
    for _ in range(n_trials):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-2.0, 2.0, size=(n, 2))
        theta1, theta2 = rng.uniform(0.5, 2.0, size=2)
        eig = np.linalg.eigvalsh(augmented_kernel(pts, theta1, theta2))
        worst = min(worst, float(eig.min()))
    return {"n_trials": n_trials, "min_eigenvalue": worst, "passed": worst >= -1e-10}


def _random_thm1_setup(rng: np.random.Generator) -> tuple[GpSetup, np.ndarray, float]:
    """One admissible configuration for the gap-bound check.

    Admissible means the regime the derivation's inequality steps
    assume: the perturbation is far below every x2 distance to the
    training data (delta <= 1% of the smallest gap), queries stay
    inside the data domain, training points are well separated (the
    derivative blocks of the augmented kernel degenerate for close
    points), and the value-interpolation weights ytilde_1..N are
    nonnegative (the linearisation of the per-point brackets assumes
    their sign). Within this regime a few-percent failure rate
    remains, from the dropped higher-order terms.
    """
    while True:
        n = int(rng.integers(1, 5))
        while True:
            pts = rng.uniform(-1.0, 1.0, size=(n, 2))
            dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=2) + 10 * np.eye(n)
            if n == 1 or dists.min() >= 0.5:
                break
        setup = GpSetup(
            points=pts,
            y=rng.uniform(0.2, 1.0, size=n),
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.5, 2.0)),
        )
        if np.min(setup.ytilde[:n]) >= 0:
            break
    while True:
        x = rng.uniform(-1.0, 1.0, size=2)
        gap = np.min(np.abs(x[1] - pts[:, 1]))
        if gap >= 0.2:
            break
    delta = float(rng.uniform(0.1, 1.0)) * 0.01 * gap
    return setup, x, delta


def run_thm1_trials(n_trials: int, seed: int) -> dict:
    """Pass rate of lhs >= rhs over random admissible configurations."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7431]))
    passed = 0
    worst_margin = math.inf
    for _ in range(n_trials):
        setup, x, delta = _random_thm1_setup(rng)
        lhs, rhs = thm1_gap_and_bound(setup, x, delta)
        margin = lhs - rhs
        worst_margin = min(worst_margin, margin)
        passed += margin >= 0
    return {
        "n_trials": n_trials,
        "pass_rate": passed / n_trials,
        "worst_margin": worst_margin,
        "passed": passed / n_trials >= 0.95,
    }


def _thm2_trial(rng: np.random.Generator) -> tuple[float, float]:
    # Ground truth depends on x1 only; training points cover the lower
    # band of x2, so the fit degrades (and coverage ends) higher up.
    a0, a1 = rng.uniform(0.8, 1.5), rng.uniform(0.2, 0.6)
    freq = rng.uniform(0.8, 1.6)

    def target(p):
        return a0 + a1 * np.sin(freq * p[:, 0])

    n = int(rng.integers(6, 12))
    pts = np.stack([rng.uniform(-2.0, 2.0, size=n), rng.uniform(-2.0, -0.5, size=n)], axis=1)
    y = target(pts)
    theta = float(rng.uniform(0.8, 1.5))
    g1, g2 = np.meshgrid(np.linspace(-2, 2, 25), np.linspace(-2, 2, 25), indexing="ij")
    grid = np.stack([g1.ravel(), g2.ravel()], axis=1)
    delta = float(rng.uniform(0.02, 0.2))
    phi = float(rng.uniform(0.5, 2.0)) * 1e-2
    lhs, rhs, _ = thm2_check(pts, y, theta, grid, target(grid), delta, phi)
    return lhs, rhs


def run_thm2_trials(n_trials: int, seed: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7432]))
    passed = 0
    worst_margin = math.inf
    skipped = 0
    for _ in range(n_trials):
        lhs, rhs = _thm2_trial(rng)
        if math.isnan(lhs):
            skipped += 1
            continue
        margin = rhs - lhs
        worst_margin = min(worst_margin, margin)
        passed += margin >= 0
    checked = n_trials - skipped
    return {
        "n_trials": n_trials,
        "n_checked": checked,
        "pass_rate": passed / checked if checked else math.nan,
        "worst_margin": worst_margin,
        "passed": checked > 0 and passed == checked,
    }


def run_prop1_checks() -> dict:
    worst = 0.0
    for d in (1, 2, 5, 10):
        for k in (1.0, 4.0):
            gap = np.max(np.abs(prop1_weights(d, k) - prop1_weights_from_moments(d, k)))
            worst = max(worst, float(gap))
    relevant = [prop1_weights(d, 1.0)[-1] for d in range(1, 12)]
    monotone = all(a > b for a, b in zip(relevant, relevant[1:]))
    return {"worst_abs_gap": worst, "relevant_weight_decreasing": monotone, "passed": worst < 1e-10 and monotone}
