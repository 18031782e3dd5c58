"""Loss assembly and the training loop.

Methods:
    erm        task loss only
    grad-reg   + lam * sum-of-squared masked input saliency
    avg-ex     + (alpha/K) * masked-Gaussian-noise losses
    pgd-ex     + alpha * loss at the masked PGD point
    ibp-ex     + alpha(t) * worst-case-logit loss over the masked box
    pgd+grad   pgd-ex plus the saliency penalty
    ibp+grad   ibp-ex plus the saliency penalty
Weight decay 0.5 * beta * |theta|^2 is added for every method when
beta > 0. Loss terms sum over the batch (not mean), so lam and beta
weigh the penalty against the summed task loss; history rows report
per-example averages of the task, robust and saliency terms for
readability (weight decay is not reported). Each term is a scalar
tensor of the loss graph, and the task loss and the saliency penalty
hang off one forward pass of the clean batch.

The box radius ramps linearly 0 -> eps_max over the first
``ramp_fraction`` of training and the robust weight alpha ramps
1 -> 0.5 over the same window (ibp methods only); both schedules are
functions of the global step fraction.

Input saliency is the gradient of the summed log class probabilities,
so the penalty needs a second differentiation through the backward
pass, which the autodiff engine supports directly.

Numeric policy: :func:`train` is the one place that picks float32. It
casts the initial parameters once, keeps Adam's state in float32 and
builds every loss on float32 leaves, so the graph builders cast each
batch, mask, box and perturbation to float32 with them (exact for
inputs read from a dataset cache, which stores them as float32). The
parameters it returns are upcast to float64, which is exact. Every
graph builder works at the dtype of the parameter leaves it is given,
so callers that pass float64 leaves (gradient checks, saliency
scoring) get float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import intervals, metrics, perturb, rng
from .model import (
    RELEASE_BYTES,
    MlpSpec,
    ModelParams,
    init_params,
    logits_graph,
    param_tensors,
    predict,
    release_freed_memory,
)

METHODS = ("erm", "grad-reg", "avg-ex", "pgd-ex", "ibp-ex", "pgd+grad", "ibp+grad")


class TrainingDiverged(RuntimeError):
    """Loss or parameters became non-finite; names the step where it happened."""


@dataclass
class TrainingConfig:
    method: str = "erm"
    lam: float = 0.0  # saliency-penalty weight
    beta: float = 0.0  # weight-decay coefficient
    eps_max: float = 0.0  # final box radius (ibp methods)
    ramp_fraction: float = 0.5
    perturb: perturb.PerturbConfig = field(default_factory=perturb.PerturbConfig)
    clamp: tuple[float, float] | None = None  # data range for boxes/attacks
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("lam", "beta", "lr", "eps_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.ramp_fraction <= 1:
            raise ValueError("ramp_fraction must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.clamp is not None and not (
            len(self.clamp) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in self.clamp)
            and self.clamp[0] < self.clamp[1]
        ):
            raise ValueError(f"clamp must be None or two numbers lo < hi, got {self.clamp!r}")


def eps_schedule(cfg: TrainingConfig, step_fraction: float) -> float:
    return cfg.eps_max * min(1.0, step_fraction / cfg.ramp_fraction)


def alpha_schedule(cfg: TrainingConfig, step_fraction: float) -> float:
    """Robust-loss weight for the box methods: the configured alpha damped
    linearly to half its value over the ramp window."""
    return cfg.perturb.alpha * (1.0 - 0.5 * min(1.0, step_fraction / cfg.ramp_fraction))


def _saliency_graph(xt: ad.Tensor, z: ad.Tensor) -> ad.Tensor:
    """Input gradient of the summed log class probabilities, for the
    logits z that the caller built from the input leaf xt.

    A single-output model has no class distribution; its saliency is
    the gradient of the raw output.
    """
    score = ad.tsum(z if z.shape[1] == 1 else ad.log_softmax(z, axis=-1))
    (g,) = ad.grad(score, [xt])
    return g


def _masked_penalty_graph(xt: ad.Tensor, z: ad.Tensor, m: np.ndarray) -> ad.Tensor:
    """Sum over the batch of |saliency * mask|^2 for the logits z of xt."""
    return ad.tsum(ad.square(ad.mul(_saliency_graph(xt, z), ad.tensor(m))))


def logits_and_saliency(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and per-coordinate saliency of each example in x, from one
    forward pass; the logits equal ``model.logits`` bit for bit."""
    xt = ad.tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    z = logits_graph(param_tensors(params), xt)
    return z.data, _saliency_graph(xt, z).data


def importance_scores(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Per-coordinate saliency of each example in x."""
    return logits_and_saliency(params, x)[1]


def saliency_penalty_graph(ptensors, x, m) -> ad.Tensor:
    """Sum over the batch of |saliency * mask|^2, differentiable in theta."""
    dt = ptensors[0].data.dtype
    xt = ad.tensor(np.atleast_2d(np.asarray(x, dtype=dt)))
    m = np.atleast_2d(np.asarray(m, dtype=dt))
    return _masked_penalty_graph(xt, logits_graph(ptensors, xt), m)


def grad_reg_term(params: ModelParams, x, m) -> float:
    return saliency_penalty_graph(param_tensors(params), x, m).item()


def _weight_decay_graph(ptensors, beta: float) -> ad.Tensor:
    total = reduce(ad.add, (ad.tsum(ad.square(p)) for p in ptensors))
    return ad.mul(ad.tensor(0.5 * beta, ptensors[0].data.dtype), total)


def total_loss_graph(
    ptensors,
    x,
    y,
    m,
    cfg: TrainingConfig,
    step_fraction: float,
    noise_rng: np.random.Generator | None = None,
) -> tuple[ad.Tensor, dict[str, ad.Tensor]]:
    """Scalar training loss plus its batch-summed terms as scalar tensors
    of the same graph: ``task`` always, ``robust`` and ``reg`` when the
    method has them. Weight decay is in the loss but not in the terms.
    The task loss and the saliency penalty share one forward pass of the
    clean batch."""
    if not 0 <= step_fraction <= 1:
        raise ValueError("step_fraction must be in [0, 1]")
    dt = ptensors[0].data.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dt))
    m = np.atleast_2d(np.asarray(m, dtype=dt))
    xt = ad.tensor(x)
    z = logits_graph(ptensors, xt)
    terms = {"task": ad.cross_entropy(z, y, reduction="sum")}

    method = cfg.method
    if method == "avg-ex":
        terms["robust"] = perturb.masked_noise_loss_graph(ptensors, x, y, m, cfg.perturb, noise_rng)
    elif method in ("pgd-ex", "pgd+grad"):
        pcfg = cfg.perturb
        delta = perturb.pgd_attack(ptensors, x, y, m, pcfg.kappa, pcfg.steps, clamp=cfg.clamp)
        terms["robust"] = perturb.adversarial_loss_graph(ptensors, x, y, delta, pcfg.alpha)
    elif method in ("ibp-ex", "ibp+grad"):
        eps = eps_schedule(cfg, step_fraction)
        alpha = alpha_schedule(cfg, step_fraction)
        wc = intervals.worst_case_loss_graph(ptensors, x, y, m, eps, clamp=cfg.clamp)
        terms["robust"] = ad.mul(ad.tensor(alpha, dt), wc)
    if method in ("grad-reg", "pgd+grad", "ibp+grad") and cfg.lam > 0:
        terms["reg"] = ad.mul(ad.tensor(cfg.lam, dt), _masked_penalty_graph(xt, z, m))

    total = reduce(ad.add, terms.values())
    if cfg.beta > 0:
        total = ad.add(total, _weight_decay_graph(ptensors, cfg.beta))
    return total, terms


class Adam:
    """Standard Adam with bias correction; operates on a list of arrays."""

    def __init__(self, arrays: list[np.ndarray], lr: float):
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        c1 = 1 - self.b1**self.t
        c2 = 1 - self.b2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            a -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _val_metrics(params: ModelParams, split) -> tuple[float, float]:
    preds = predict(params, split.x)
    return (
        metrics.macro_avg_accuracy(preds, split.y),
        metrics.worst_group_accuracy(preds, split.y, split.group),
    )


@dataclass
class TrainResult:
    """Selected checkpoint plus the raw end-of-training state.

    ``params`` is the epoch with the best validation worst-group
    accuracy (ties broken by the best validation average accuracy, then
    by the earliest epoch); ``final_params`` is the last epoch, for
    analyses where the clean-validation metric saturates early and
    cannot distinguish checkpoints. Both hold float64 arrays of float32
    values.
    """

    params: ModelParams
    final_params: ModelParams
    history: list[dict]
    best_epoch: int


def train(splits, cfg: TrainingConfig, spec: MlpSpec) -> TrainResult:
    """Adam training in float32 with per-epoch validation; the selected
    checkpoint maximises validation worst-group accuracy (ties broken by
    validation average accuracy, then by the earliest epoch). The
    returned parameters are float64. After training on at least
    RELEASE_BYTES of inputs, the heap pages the run freed go back to the
    operating system before it returns."""
    result = _train(splits, cfg, spec)
    if splits.train.x.nbytes >= RELEASE_BYTES:
        release_freed_memory()  # here, once the last step's graph and Adam's state are freed with _train's frame
    return result


def _train(splits, cfg: TrainingConfig, spec: MlpSpec) -> TrainResult:
    tr, va = splits.train, splits.val
    if tr.x.shape[0] == 0 or va.x.shape[0] == 0:
        raise ValueError("train and val splits must be non-empty")
    params = init_params(spec, rng.stream(cfg.seed, "init")).astype(np.float32)
    shuffle_rng = rng.stream(cfg.seed, "shuffle")
    noise_rng = rng.stream(cfg.seed, "noise")
    opt = Adam(params.flat(), cfg.lr)

    n = tr.x.shape[0]
    steps_per_epoch = max(1, -(-n // cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    history: list[dict] = []
    best = ((-1.0, -1.0), 0, params.astype(np.float64))  # ((val wg acc, val avg acc), epoch, params)

    step_idx = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        sums = {"task": 0.0, "robust": 0.0, "reg": 0.0}
        seen = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            frac = step_idx / max(1, total_steps)
            try:
                pt = param_tensors(params)
            except ad.NonFiniteError as err:
                raise TrainingDiverged(
                    f"the Adam update of step {step_idx - 1} made the parameters non-finite"
                    f" (caught at epoch {epoch}, step {step_idx}): {err}"
                ) from err
            try:
                loss, terms = total_loss_graph(pt, tr.x[idx], tr.y[idx], tr.m[idx], cfg, frac, noise_rng)
                grads = ad.grad(loss, pt)
            except ad.NonFiniteError as err:
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {step_idx}: {err}") from err
            opt.step(params.flat(), [g.data for g in grads])
            for key, term in terms.items():
                sums[key] += term.item()
            seen += idx.size
            step_idx += 1
        val_avg, val_wg = _val_metrics(params, va)
        row = {
            "epoch": epoch,
            "train_loss": sums["task"] / seen,
            "robust_loss": sums["robust"] / seen,
            "reg_loss": sums["reg"] / seen,
            "val_avg_acc": val_avg,
            "val_wg_acc": val_wg,
        }
        history.append(row)
        if (val_wg, val_avg) > best[0]:
            best = ((val_wg, val_avg), epoch, params.astype(np.float64))
    return TrainResult(best[2], params.astype(np.float64), history, best[1])
