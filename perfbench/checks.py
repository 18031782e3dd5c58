"""Output checks computed apart from the program.

Everything the checks compare against is recomputed here in plain
numpy: the relu-MLP forward pass, softmax cross-entropy, the closed-form
input gradient of the summed log class probabilities, accuracy by class
and group, points sampled in the masked input box, and central finite
differences along a random direction. Each check raises
:class:`CheckFailed` naming what differed.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- independent numerics --------------------------------------------------


def forward(weights, biases, x, with_pre: bool = False):
    """Logits of a relu MLP; optionally the hidden pre-activations too."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    pre = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            pre.append(h)
            h = np.maximum(h, 0.0)
    return (h, pre) if with_pre else h


def cross_entropy(z, y) -> np.ndarray:
    """Per-example -log softmax_y(z)."""
    z = np.atleast_2d(z)
    shift = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - shift).sum(axis=1)) + shift[:, 0]
    return lse - z[np.arange(z.shape[0]), np.asarray(y, dtype=np.int64)]


def saliency(weights, biases, x) -> np.ndarray:
    """Closed-form d/dx of sum_c log softmax_c(f(x)) for a relu MLP.

    With C classes, d/dz sum_c log p_c = 1 - C * p; the backward pass
    multiplies by each W^T and by the relu pattern (relu'(0) = 0).
    """
    z, pre = forward(weights, biases, x, with_pre=True)
    classes = z.shape[1]
    if classes == 1:
        g = np.ones_like(z)
    else:
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = 1.0 - classes * p
    for i in range(len(weights) - 1, -1, -1):
        g = g @ weights[i].T
        if i > 0:
            g = g * (pre[i - 1] > 0)
    return g


def accuracies(z, y, groups) -> tuple[float, dict, float]:
    """Macro-average accuracy over classes, accuracy per group, worst group."""
    pred = np.argmax(z, axis=1)
    y = np.asarray(y)
    groups = np.asarray(groups)
    per_class = [np.mean(pred[y == c] == c) for c in np.unique(y)]
    per_group = {int(g): float(np.mean(pred[groups == g] == y[groups == g])) for g in np.unique(groups)}
    return float(np.mean(per_class)), per_group, min(per_group.values())


def named_stream(root_seed: int, name: str) -> np.random.Generator:
    """The documented derivation of a named random stream from a root seed."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), zlib.crc32(name.encode("utf-8"))]))


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None or (isinstance(a, float) and math.isnan(a)):
        return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- checks ------------------------------------------------------------------


def check_finite(name: str, *arrays) -> None:
    for a in arrays:
        require(np.all(np.isfinite(np.asarray(a, dtype=np.float64))), f"{name}: non-finite value")


def check_report(report: dict, weights, biases, split, seed: int, rcs_sigma: float = 0.25) -> None:
    """Scored accuracies, rcs and s1/s2 against recomputation from the parameters.

    ``split`` has x, y, m and group; ``report`` is MetricsReport.as_dict().
    The rcs noise is drawn from the named stream 'rcs' of ``seed``.
    """
    z = forward(weights, biases, split.x)
    avg, per_group, wg = accuracies(z, split.y, split.group)
    require(close(report["avg_acc"], avg, 0, 1e-12), f"avg_acc {report['avg_acc']} != recomputed {avg}")
    require(close(report["wg_acc"], wg, 0, 1e-12), f"wg_acc {report['wg_acc']} != recomputed {wg}")
    got_groups = {int(k): v for k, v in report["per_group_acc"].items()}
    require(got_groups.keys() == per_group.keys(), "per_group_acc groups differ")
    for g, acc in per_group.items():
        require(close(got_groups[g], acc, 0, 1e-12), f"group {g} accuracy {got_groups[g]} != recomputed {acc}")

    noise = named_stream(seed, "rcs").normal(0.0, 1.0, size=split.x.shape)
    pred = lambda xs: np.argmax(forward(weights, biases, xs), axis=1)  # noqa: E731
    acc_core = float(np.mean(pred(split.x + rcs_sigma * (noise * split.m)) == split.y))
    acc_spur = float(np.mean(pred(split.x + rcs_sigma * (noise * (1.0 - split.m))) == split.y))
    a_bar = (acc_core + acc_spur) / 2.0
    rcs = math.nan if a_bar in (0.0, 1.0) else 100.0 * (acc_core - acc_spur) / (2.0 * min(a_bar, 1.0 - a_bar))
    require(close(report["rcs"], rcs, 1e-9, 1e-9), f"rcs {report['rcs']} != recomputed {rcs}")

    s = saliency(weights, biases, split.x)
    masked = np.linalg.norm(s * split.m, axis=1)
    unmasked = np.linalg.norm(s * (1.0 - split.m), axis=1)
    ok = unmasked > 0
    s1 = float(np.median(masked))
    s2 = float(np.median(masked[ok] / unmasked[ok])) if ok.any() else math.nan
    require(close(report["s1"], s1, 1e-6, 1e-12), f"s1 {report['s1']} != recomputed {s1}")
    require(close(report["s2"], s2, 1e-6, 1e-12), f"s2 {report['s2']} != recomputed {s2}")


def check_pgd(delta, weights, biases, x, y, m, kappa: float, clamp) -> None:
    """Masked l-inf PGD output: in the ball, zero off the mask, inside the
    data range, and never below the clean loss."""
    delta = np.asarray(delta, dtype=np.float64)
    require(delta.shape == x.shape, f"delta shape {delta.shape} != input shape {x.shape}")
    check_finite("pgd delta", delta)
    require(np.max(np.abs(delta)) <= kappa * (1 + 1e-12), f"|delta|_inf {np.max(np.abs(delta))} > kappa {kappa}")
    require(np.all(delta[m == 0] == 0), "delta is non-zero off the mask")
    lo, hi = clamp
    x_adv = x + delta
    require(x_adv.min() >= lo - 1e-12 and x_adv.max() <= hi + 1e-12, "x + delta leaves the data range")
    clean = cross_entropy(forward(weights, biases, x), y)
    adv = cross_entropy(forward(weights, biases, x_adv), y)
    require(np.all(adv >= clean - 1e-9 * (1 + np.abs(clean))), "PGD loss is below the clean loss")


def check_ibp(lower, upper, worst_logits, weights, biases, x, y, m, kappa: float, clamp, rng, samples: int) -> None:
    """Logit bounds contain the logits at x and at points sampled in the
    clamped masked box (uniform and corners); the worst-case loss is at
    least the clean loss."""
    lo = np.clip(x - kappa * m, *clamp)
    hi = np.clip(x + kappa * m, *clamp)
    z_clean = forward(weights, biases, x)
    points = [x]
    for _ in range(samples):
        points.append(lo + rng.random(x.shape) * (hi - lo))
        points.append(np.where(rng.random(x.shape) < 0.5, lo, hi))
    for p in points:
        z = forward(weights, biases, p)
        tol = 1e-9 * (1 + np.abs(z))
        require(np.all(lower <= z + tol) and np.all(z <= upper + tol), "logits at a box point escape the IBP bounds")
    onehot = np.zeros_like(z_clean, dtype=bool)
    onehot[np.arange(len(y)), y] = True
    require(np.array_equal(worst_logits, np.where(onehot, lower, upper)), "worst-case logits do not pick the bounds")
    clean = cross_entropy(z_clean, y)
    worst = cross_entropy(worst_logits, y)
    require(np.all(worst >= clean - 1e-9 * (1 + np.abs(clean))), "worst-case loss is below the clean loss")


def summed_loss(weights, biases, x, y, m, lam: float) -> float:
    """Summed cross-entropy plus lam * sum of squared masked saliency."""
    loss = float(np.sum(cross_entropy(forward(weights, biases, x), y)))
    if lam:
        loss += lam * float(np.sum((saliency(weights, biases, x) * m) ** 2))
    return loss


def check_directional_grad(grads, program_loss: float, weights, biases, x, y, m, lam: float, rng) -> None:
    """The program's parameter gradient, projected on a random unit
    direction, against a central finite difference of ``summed_loss``.

    The step shrinks until the relu pattern is the same at both ends,
    where the loss is smooth and the difference is exact to O(h^2).
    """
    params = [a for pair in zip(weights, biases) for a in pair]
    require(len(grads) == len(params), f"{len(grads)} gradients for {len(params)} parameter arrays")
    check_finite("parameter gradient", *grads)
    base = summed_loss(weights, biases, x, y, m, lam)
    require(close(program_loss, base, 1e-9, 1e-9), f"program loss {program_loss} != recomputed {base}")
    direction = [rng.normal(size=p.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))

    def moved(h):
        arrays = [p + h * d for p, d in zip(params, direction)]
        return arrays[0::2], arrays[1::2]

    def pattern(w, b):
        return [p > 0 for p in forward(w, b, x, with_pre=True)[1]]

    here = pattern(weights, biases)
    for h in (1e-5, 1e-6, 1e-7, 1e-8):
        plus, minus = moved(h), moved(-h)
        if all(np.array_equal(a, b) and np.array_equal(a, c) for a, b, c in zip(here, pattern(*plus), pattern(*minus))):
            fd = (summed_loss(*plus, x, y, m, lam) - summed_loss(*minus, x, y, m, lam)) / (2 * h)
            require(
                close(analytic, fd, 1e-5, 1e-7 * (1 + abs(base))),
                f"directional derivative {analytic} != finite difference {fd} (h={h})",
            )
            return
    raise CheckFailed("no finite-difference step keeps the relu pattern fixed")


def read_checkpoint(path) -> tuple[list, list]:
    """Weights and biases from the documented checkpoint layout."""
    raw = open(path, "rb").read()
    require(raw[:4] == b"MLXW", f"{path}: bad magic")
    (hash_len,) = struct.unpack_from("<I", raw, 16)
    pos = 20 + hash_len
    (n_sizes,) = struct.unpack_from("<I", raw, pos)
    sizes = struct.unpack_from(f"<{n_sizes}I", raw, pos + 4)
    pos += 4 + 4 * n_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(np.frombuffer(raw, "<f8", fan_in * fan_out, pos).reshape(fan_in, fan_out))
        pos += 8 * fan_in * fan_out
        biases.append(np.frombuffer(raw, "<f8", fan_out, pos))
        pos += 8 * fan_out
    require(pos == len(raw), f"{path}: {len(raw) - pos} bytes after the parameters")
    return weights, biases


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Header meta (the leading '# k=v ...' line), column names, rows."""
    lines = open(path).read().splitlines()
    require(lines and lines[0].startswith("# "), f"{path}: no meta line")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split())
    return meta, lines[1].split(","), [line.split(",") for line in lines[2:]]


def check_boundary(path, weights, biases) -> None:
    """boundary.csv: logits equal the forward pass at each grid point,
    pred is their argmax, and the header flip fraction equals the share
    of x1 columns whose label varies along x2."""
    meta, columns, rows = read_csv(path)
    require(columns == ["x1", "x2", "pred", "logit0", "logit1"], f"{path}: columns {columns}")
    grid = np.array([[float(v) for v in row] for row in rows])
    z = forward(weights, biases, grid[:, :2])
    require(np.allclose(grid[:, 3:5], z, rtol=1e-12, atol=1e-12), f"{path}: logits differ from the forward pass")
    require(np.array_equal(grid[:, 2], np.argmax(grid[:, 3:5], axis=1)), f"{path}: pred is not the logit argmax")
    labels_by_x1: dict[float, set] = {}
    for x1, pred in zip(grid[:, 0], grid[:, 2]):
        labels_by_x1.setdefault(x1, set()).add(pred)
    flips = float(np.mean([len(labels) > 1 for labels in labels_by_x1.values()]))
    require(close(float(meta["flip_fraction"]), flips, 0, 1e-12), f"flip fraction {meta['flip_fraction']} != {flips}")
