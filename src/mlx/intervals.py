"""Interval bound propagation through relu MLPs.

Boxes are elementwise [lower, upper] bounds. Affine layers use the
center/radius form (c' = cW + b, r' = r|W|), relu clamps both bounds;
the resulting output box is sound for every input in the input box and
exact for a single affine layer.

The worst-case logit vector for a labelled example takes the lower
bound at the true class and the upper bound elsewhere; feeding it to
the task loss gives the certified-robustness training term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import ModelParams


@dataclass
class BoxInterval:
    """Elementwise bounds, lower <= upper, equal shapes; float32 when both
    bounds are float32, float64 otherwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower, upper = np.asarray(self.lower), np.asarray(self.upper)
        dt = np.float32 if lower.dtype == upper.dtype == np.float32 else np.float64
        self.lower = lower.astype(dt, copy=False)
        self.upper = upper.astype(dt, copy=False)
        if self.lower.shape != self.upper.shape:
            raise ad.ShapeError("box bounds must share a shape")
        if np.any(self.upper - self.lower < 0):
            raise ValueError("box has upper < lower")


def input_box(x, m, kappa: float, clamp: tuple[float, float] | None = None, dtype=np.float64) -> BoxInterval:
    """Per-example box [x - kappa*m, x + kappa*m], optionally clamped to a
    data range, computed at ``dtype`` (float32 or float64)."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    x = np.asarray(x, dtype=dtype)
    m = np.asarray(m, dtype=dtype)
    lower = x - kappa * m
    upper = x + kappa * m
    if clamp is not None:
        lo, hi = clamp
        lower = np.clip(lower, lo, hi)
        upper = np.clip(upper, lo, hi)
    return BoxInterval(lower, upper)


def propagate(params: ModelParams, box: BoxInterval) -> BoxInterval:
    """Logit bounds for every input in the box; plain numpy."""
    if box.lower.ndim == 1:
        box = BoxInterval(box.lower[None, :], box.upper[None, :])
    if box.lower.shape[1] != params.input_dim:
        raise ad.ShapeError(f"box dim {box.lower.shape[1]} != input dim {params.input_dim}")
    c = (box.lower + box.upper) / 2.0
    r = (box.upper - box.lower) / 2.0
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        c = c @ w + b
        r = r @ np.abs(w)
        if i < n_layers - 1:
            lo = np.maximum(c - r, 0.0)
            hi = np.maximum(c + r, 0.0)
            c = (lo + hi) / 2.0
            r = (hi - lo) / 2.0
    out = BoxInterval(c - r, c + r)
    if np.any(out.upper < out.lower):  # r >= 0 by construction; guards numerical surprises
        raise AssertionError("bound inversion during propagation")
    return out


def propagate_graph(ptensors: list[ad.Tensor], box: BoxInterval) -> tuple[ad.Tensor, ad.Tensor]:
    """Same propagation as graph ops, differentiable in the parameters,
    at the dtype of the parameter leaves."""
    dt = ptensors[0].data.dtype
    half = ad.tensor(0.5, dt)
    c = ad.mul(ad.tensor(box.lower + box.upper, dt), half)
    r = ad.mul(ad.tensor(box.upper - box.lower, dt), half)
    n_layers = len(ptensors) // 2
    for i in range(n_layers):
        w, b = ptensors[2 * i], ptensors[2 * i + 1]
        c = ad.affine(c, w, b)
        r = ad.matmul(r, ad.absval(w))
        if i < n_layers - 1:
            lo = ad.relu(ad.sub(c, r))
            hi = ad.relu(ad.add(c, r))
            c = ad.mul(ad.add(lo, hi), half)
            r = ad.mul(ad.sub(hi, lo), half)
    return ad.sub(c, r), ad.add(c, r)


def worst_case_logits(box: BoxInterval, y) -> np.ndarray:
    """Lower bound at the true class, upper bound at every other class."""
    lower = np.atleast_2d(box.lower)
    upper = np.atleast_2d(box.upper)
    onehot = ad.one_hot(y, lower.shape[1])
    return lower * onehot + upper * (1.0 - onehot)


def worst_case_logits_graph(lower: ad.Tensor, upper: ad.Tensor, y) -> ad.Tensor:
    onehot = ad.one_hot(y, lower.shape[1], lower.data.dtype)
    oh = ad.tensor(onehot)
    return ad.add(ad.mul(lower, oh), ad.mul(upper, ad.tensor(1.0 - onehot)))


def worst_case_loss_graph(
    ptensors: list[ad.Tensor], x, y, m, kappa: float, clamp: tuple[float, float] | None = None
) -> ad.Tensor:
    """Summed task loss of the worst-case logits over a masked batch box
    built at the dtype of the parameter leaves."""
    box = input_box(x, m, kappa, clamp=clamp, dtype=ptensors[0].data.dtype)
    lower, upper = propagate_graph(ptensors, box)
    z_wc = worst_case_logits_graph(lower, upper, y)
    return ad.cross_entropy(z_wc, y, reduction="sum")

