"""Masked perturbations: Gaussian sampling and projected gradient ascent.

Both methods confine perturbations to the coordinates flagged by the
irrelevance mask. The sampling route averages the task loss over K
masked Gaussian draws; the PGD route runs sign-gradient ascent inside
the masked l-inf ball and keeps the best iterate seen (the zero
perturbation is always a candidate, so the attack never reports a loss
below the clean one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import logits_graph, param_tensors


@dataclass
class PerturbConfig:
    method: str = "pgd"  # 'avg' or 'pgd'; training follows TrainingConfig.method
    sigma: float = 0.3  # noise scale (avg)
    k_samples: int = 4  # draws per example (avg)
    kappa: float = 0.3  # l-inf radius (pgd)
    steps: int = 7
    alpha: float = 1.0

    def __post_init__(self):
        if self.method not in ("avg", "pgd"):
            raise ValueError(f"unknown perturbation method {self.method!r}")
        if min(self.sigma, self.kappa, self.alpha) < 0:
            raise ValueError("sigma, kappa and alpha must be >= 0")
        if self.k_samples < 1 or self.steps < 1:
            raise ValueError("k_samples and steps must be >= 1")


def masked_noise_loss_graph(ptensors, x, y, m, cfg: PerturbConfig, rng: np.random.Generator) -> ad.Tensor:
    """(alpha/K) sum_j summed-CE at x + eps_j * m, eps_j ~ N(0, sigma^2 I); unclipped."""
    dt = ptensors[0].data.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dt))
    m = np.atleast_2d(np.asarray(m, dtype=dt))
    total = None
    for _ in range(cfg.k_samples):
        eps = rng.normal(0.0, cfg.sigma, size=x.shape)
        xj = ad.tensor(x + eps * m, dt)
        term = ad.cross_entropy(logits_graph(ptensors, xj), y, reduction="sum")
        total = term if total is None else ad.add(total, term)
    return ad.mul(ad.tensor(cfg.alpha / cfg.k_samples, dt), total)


def pgd_attack(
    params,
    x,
    y,
    m,
    kappa: float,
    steps: int,
    step_size: float | None = None,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """Best masked l-inf perturbation found by sign-gradient ascent.

    ``params`` is a ModelParams or the graph leaves of one; the attack
    runs at their dtype. Returns delta with |delta|_inf <= kappa and
    delta == 0 off-mask. The ascent starts from the zero perturbation
    and takes steps of ``step_size`` (kappa / 4 when None). Per example,
    the iterate with the highest loss seen is returned.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    pt = params if isinstance(params, list) else param_tensors(params)
    dt = pt[0].data.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dt))
    m = np.atleast_2d(np.asarray(m, dtype=dt))
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    step = kappa / 4.0 if step_size is None else step_size
    on_mask = (m != 0).astype(dt)

    def project(delta):
        delta = np.clip(delta, -kappa, kappa)
        if clamp is not None:
            delta = np.clip(x + delta, clamp[0], clamp[1]) - x
        return delta * on_mask

    def example_losses(delta):
        xt = ad.tensor(x + delta, dt)
        return xt, ad.cross_entropy(logits_graph(pt, xt), y, reduction="none")

    delta = np.zeros_like(x)
    # each iterate's forward pass serves both its loss and its gradient
    best_delta = delta.copy()
    xt, losses = example_losses(delta)
    best_loss = losses.data.copy()
    for _ in range(steps):
        # examples are independent, so the gradient of the summed loss
        # gives every per-example input gradient in one backward pass
        (gx,) = ad.grad(ad.tsum(losses), [xt])
        delta = project(delta + step * np.sign(m * gx.data))
        xt, losses = example_losses(delta)
        cur = losses.data
        better = cur > best_loss
        best_loss = np.where(better, cur, best_loss)
        best_delta[better] = delta[better]
    return best_delta


def adversarial_loss_graph(ptensors, x, y, delta, alpha: float) -> ad.Tensor:
    """alpha * summed-CE at the (fixed) adversarial points x + delta."""
    dt = ptensors[0].data.dtype
    x_adv = ad.tensor(np.atleast_2d(x) + delta, dt)
    return ad.mul(ad.tensor(alpha, dt), ad.cross_entropy(logits_graph(ptensors, x_adv), y, reduction="sum"))


def masked_corner_optimum(params, x, y, m, kappa: float) -> tuple[np.ndarray, float]:
    """Exhaustive search over the +-kappa corners of the masked coordinates.

    Exponential in the mask support; intended for small verification
    problems, not training.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    idx = np.flatnonzero(m != 0)
    if idx.size > 20:
        raise ValueError(f"corner search over {idx.size} masked coords is intractable")
    pt = param_tensors(params)
    best_delta, best_loss = np.zeros_like(x), -np.inf
    for bits in range(2 ** idx.size):
        delta = np.zeros_like(x)
        for j, coord in enumerate(idx):
            delta[coord] = kappa if (bits >> j) & 1 else -kappa
        z = logits_graph(pt, ad.tensor((x + delta)[None, :]))
        loss = ad.cross_entropy(z, [int(y)]).item()
        if loss > best_loss:
            best_loss, best_delta = loss, delta
    return best_delta, best_loss
