"""Evaluation: macro/worst-group accuracy, noise-sensitivity score,
saliency diagnostics and 2-D decision-boundary grids.

The noise-sensitivity score (``rcs``) compares accuracy under Gaussian
noise confined to the irrelevant (masked) region against accuracy under
noise on the complementary region, normalised to [-100, 100]; the same
noise draw is shared between the two passes. 100 means predictions
survive arbitrary noise on irrelevant features but break under noise on
relevant ones, 0 means no differential reliance.

s1/s2 summarise residual shortcut reliance: the median masked saliency
norm and the median ratio of masked to unmasked saliency norms.

``rcs`` and ``saliency_stats`` score a split in blocks of SCORE_BLOCK
rows, so their temporaries stay the size of one block whatever the
split's size. Per-example values depend on the blocks only through how
BLAS rounds each block's matrix products: at 250 rows, float64 reports
of the 2352-512-512-10 decoy models on 1000 and 2000 rows are
byte-identical to scoring the split at once, while smaller blocks can
move s1 and s2 in the last bit. rcs's noise is drawn block by block from
its one stream, which gives the same numbers as one draw for the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import RELEASE_BYTES, ModelParams, logits, predict, release_freed_memory


def macro_avg_accuracy(preds, labels) -> float:
    """Mean over classes (present in labels) of within-class accuracy."""
    per_class = per_group_accuracy(preds, labels, labels)
    return float(np.mean(list(per_class.values())))


def per_group_accuracy(preds, labels, groups) -> dict[int, float]:
    preds = np.asarray(preds).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    groups = np.asarray(groups).reshape(-1)
    if not (preds.shape == labels.shape == groups.shape):
        raise ValueError("preds, labels and groups must have equal length")
    return {
        int(g): float(np.mean(preds[groups == g] == labels[groups == g]))
        for g in np.unique(groups)
    }


def worst_group_accuracy(preds, labels, groups) -> float:
    """Minimum within-group accuracy; empty groups are excluded."""
    return float(min(per_group_accuracy(preds, labels, groups).values()))


SCORE_BLOCK = 250  # rows scored together by rcs and saliency_stats


def _blocks(n: int):
    return (slice(start, start + SCORE_BLOCK) for start in range(0, n, SCORE_BLOCK))


def rcs(params: ModelParams, x, y, m, sigma: float = 0.25, rng: np.random.Generator | None = None) -> float:
    """Noise-sensitivity score in [-100, 100]; NaN when both accuracies
    degenerate to the same 0/1 value (undefined normalisation)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    y = np.asarray(y).reshape(-1)
    core = spur = 0
    for rows in _blocks(x.shape[0]):
        xb, mb, yb = x[rows], m[rows], y[rows]
        z = rng.normal(0.0, 1.0, size=xb.shape)  # one draw, shared by both passes
        core += int(np.sum(predict(params, xb + sigma * (z * mb)) == yb))
        spur += int(np.sum(predict(params, xb + sigma * (z * (1.0 - mb))) == yb))
    acc_core = core / x.shape[0]
    acc_spur = spur / x.shape[0]
    a_bar = (acc_core + acc_spur) / 2.0
    if a_bar in (0.0, 1.0):
        return math.nan
    return 100.0 * (acc_core - acc_spur) / (2.0 * min(a_bar, 1.0 - a_bar))


@dataclass
class SaliencyStats:
    s1: float  # median |mask * saliency|_2
    s2: float  # median of per-example masked/unmasked norm ratio
    n_excluded: int  # examples dropped for a zero unmasked norm
    logits: np.ndarray  # of the forward passes the saliency came from, equal to model.logits block by block


def saliency_stats(params: ModelParams, x, m) -> SaliencyStats:
    from .train import logits_and_saliency  # deferred: train imports metrics

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    n = x.shape[0]
    z, masked, unmasked = np.empty((n, params.classes)), np.empty(n), np.empty(n)
    for rows in _blocks(n):
        z[rows], scores = logits_and_saliency(params, x[rows])
        masked[rows] = np.linalg.norm(scores * m[rows], axis=1)
        unmasked[rows] = np.linalg.norm(scores * (1.0 - m[rows]), axis=1)
    ok = unmasked > 0
    ratios = masked[ok] / unmasked[ok]
    s2 = float(np.median(ratios)) if ratios.size else math.nan
    return SaliencyStats(float(np.median(masked)), s2, int(np.sum(~ok)), z)


@dataclass
class BoundaryGrid:
    x1: np.ndarray  # grid axis values
    x2: np.ndarray
    pred: np.ndarray  # (len(x1), len(x2)) predicted labels
    logit: np.ndarray  # (len(x1), len(x2), classes)
    flip_fraction: float  # share of x1-columns whose label varies along x2


def boundary_grid(params: ModelParams, x1_range, x2_range, resolution: int) -> BoundaryGrid:
    """Dense label/logit grid for a 2-D model plus the column flip fraction."""
    if params.input_dim != 2:
        raise ValueError(f"boundary_grid needs a 2-input model, not {params.input_dim}")
    x1 = np.linspace(x1_range[0], x1_range[1], resolution)
    x2 = np.linspace(x2_range[0], x2_range[1], resolution)
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    pts = np.stack([g1.ravel(), g2.ravel()], axis=1)
    z = logits(params, pts).reshape(resolution, resolution, -1)
    pred = np.argmax(z, axis=2)
    flips = np.mean([len(np.unique(pred[i])) > 1 for i in range(resolution)])
    return BoundaryGrid(x1, x2, pred, z, float(flips))


@dataclass
class MetricsReport:
    avg_acc: float
    per_group_acc: dict[int, float]
    wg_acc: float
    rcs: float = math.nan
    s1: float = math.nan
    s2: float = math.nan
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        def clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        return {
            "avg_acc": self.avg_acc,
            "per_group_acc": {str(k): v for k, v in sorted(self.per_group_acc.items())},
            "wg_acc": self.wg_acc,
            "rcs": clean(self.rcs),
            "s1": clean(self.s1),
            "s2": clean(self.s2),
            **self.extras,
        }


def build_report(
    params: ModelParams,
    split,
    with_rcs: bool = True,
    rcs_sigma: float = 0.25,
    rng: np.random.Generator | None = None,
    with_saliency: bool = True,
) -> MetricsReport:
    """Accuracies and, when asked, rcs and saliency statistics on split;
    with saliency, the predictions come from the saliency pass's logits.
    After a split of at least RELEASE_BYTES of inputs, the heap pages it
    freed go back to the operating system before it returns."""
    if with_saliency:
        stats = saliency_stats(params, split.x, split.m)
        preds = np.argmax(stats.logits, axis=1)
    else:
        preds = predict(params, split.x)
    groups = per_group_accuracy(preds, split.y, split.group)
    report = MetricsReport(
        avg_acc=macro_avg_accuracy(preds, split.y),
        per_group_acc=groups,
        wg_acc=float(min(groups.values())),
    )
    if with_rcs:
        report.rcs = rcs(params, split.x, split.y, split.m, sigma=rcs_sigma, rng=rng)
    if with_saliency:
        report.s1, report.s2 = stats.s1, stats.s2
        report.extras["saliency_excluded"] = stats.n_excluded
    if split.x.nbytes >= RELEASE_BYTES:
        release_freed_memory()
    return report
