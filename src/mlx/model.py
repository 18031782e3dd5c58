"""Feedforward relu classifiers: spec, init, forward pass, checkpoints.

Default architectures:
* image task: 2352-512-512-10 (3x28x28 flattened input, two hidden
  layers of width 512),
* 2-D toy task: 2-32-32-2.

Checkpoint file layout (all little-endian):
    header   magic b'MLXW', version 1, seed, config hash (may be
             empty; ``mlx train`` writes the hash of the dataset, model
             and training blocks), as in ``binfile``
    n_sizes  u32, then n_sizes u32 layer sizes (input, hidden..., classes)
    per layer: weight matrix (fan_in*fan_out f64, row-major), bias (fan_out f64)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .binfile import Reader, replacing, write_header

MAGIC = b"MLXW"
VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of a relu MLP: input dim, hidden widths, class count."""

    input_dim: int
    hidden: tuple[int, ...]
    classes: int

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("need at least one hidden layer")
        for w in self.sizes():
            if w <= 0:
                raise ValueError(f"zero-width layer in {self.sizes()}")

    def sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.classes)


@dataclass
class ModelParams:
    """Weight matrices (fan_in, fan_out) and bias vectors per layer.

    A single-layer instance is a plain affine (linear) model; relu sits
    between layers only.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def classes(self) -> int:
        return self.weights[-1].shape[1]

    def sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *(w.shape[1] for w in self.weights))

    def flat(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def linear_model(w: np.ndarray, b: np.ndarray | None = None) -> ModelParams:
    """Single affine layer f(x) = x @ w + b; handy for oracles and tests."""
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[1])
    return ModelParams([w], [np.asarray(b, dtype=np.float64)])


def init_params(spec: MlpSpec, seed) -> ModelParams:
    """He-scaled Gaussian weights, zero biases, deterministic in seed.

    ``seed`` may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = spec.sizes()
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def param_tensors(params: ModelParams) -> list[ad.Tensor]:
    """Wrap current parameter arrays as graph leaves (one list, W/b interleaved)."""
    return [ad.tensor(a) for a in params.flat()]


def logits_graph(ptensors: list[ad.Tensor], x: ad.Tensor) -> ad.Tensor:
    """Forward pass through the relu MLP; x is a (n, input_dim) tensor node."""
    h = x
    n_layers = len(ptensors) // 2
    for i in range(n_layers):
        h = ad.affine(h, ptensors[2 * i], ptensors[2 * i + 1])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


def logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class logits for a (n, input_dim) batch; plain numpy inference."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != params.input_dim:
        raise ad.ShapeError(f"input dim {x.shape[1]} != model {params.input_dim}")
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < len(params.weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return np.argmax(logits(params, x), axis=1)


def save_checkpoint(path, params: ModelParams, seed: int = 0, config_hash: str = "") -> None:
    sizes = params.sizes()
    with replacing(path) as f:
        write_header(f, MAGIC, VERSION, seed, config_hash)
        f.write(struct.pack("<I", len(sizes)))
        f.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for w, b in zip(params.weights, params.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Parameters plus ``{seed, config_hash}``; a damaged or stale file
    raises FileFormatError naming the path."""
    with open(path, "rb") as f:
        r = Reader(f, path)
        seed, config_hash = r.header(MAGIC, VERSION, "checkpoint")
        (n_sizes,) = r.unpack("<I")
        sizes = r.unpack(f"<{n_sizes}I")
        if n_sizes < 2 or 0 in sizes:
            raise r.error(f"bad layer sizes {sizes}")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(r.array("<f8", fan_in * fan_out).reshape(fan_in, fan_out).astype(np.float64))
            biases.append(r.array("<f8", fan_out).astype(np.float64))
        r.end()
    return ModelParams(weights, biases), {"seed": seed, "config_hash": config_hash}
