"""Experiment configuration: JSON schema, validation, canonical hashing.

Top-level keys (all optional unless a subcommand needs them):

    seed     int            root seed; --seed overrides
    out_dir  str            output directory; --out overrides
    dataset  {name: 'toy2d'|'decoy', seed, n | n_train/n_val/n_test, data_dir}
    model    {hidden: [..]}
    training {method, lam, beta, eps_max, ramp_fraction, lr, batch_size,
              epochs, clamp: [lo, hi] | null,
              perturb: {sigma, k_samples, kappa, steps, alpha}}
    eval     {rcs, rcs_sigma, grid_range: [[x1lo,x1hi],[x2lo,x2hi]],
              grid_resolution}
    gp_verify{thm1_trials, thm2_trials, psd_trials}   trials draw from the root seed
    sweep    [{name, training: {overrides}}, ...]

Unknown keys anywhere are rejected with the offending path, so typos
fail loudly instead of silently running a default. Out-of-range values
are rejected the same way: every number must be finite (JSON readers
accept NaN and Infinity), seed and dataset.seed must be >= 0,
eval.rcs_sigma must be > 0, each grid_range pair must have lo < hi, and
grid_resolution and every *_trials count must be >= 1 (training values
are checked by TrainingConfig).
"""

from __future__ import annotations

import hashlib
import json
import math

from .perturb import PerturbConfig
from .train import TrainingConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the bad field."""


_SCHEMA = {
    "seed": int,
    "out_dir": str,
    "dataset": {
        "name": str,
        "seed": int,
        "n": int,
        "n_train": int,
        "n_val": int,
        "n_test": int,
        "data_dir": str,
    },
    "model": {"hidden": list},
    "training": {
        "method": str,
        "lam": float,
        "beta": float,
        "eps_max": float,
        "ramp_fraction": float,
        "lr": float,
        "batch_size": int,
        "epochs": int,
        "clamp": (list, type(None)),
        "perturb": {
            "sigma": float,
            "k_samples": int,
            "kappa": float,
            "steps": int,
            "alpha": float,
        },
    },
    "eval": {
        "rcs": bool,
        "rcs_sigma": float,
        "grid_range": list,
        "grid_resolution": int,
    },
    "gp_verify": {"thm1_trials": int, "thm2_trials": int, "psd_trials": int},
    "sweep": list,
}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, list) or all(_finite(v) for v in value)


def _check_keys(block: dict, schema: dict, path: str) -> None:
    for key, value in block.items():
        if key not in schema:
            raise ConfigError(f"{path}{key}: unknown key")
        if not _finite(value):
            raise ConfigError(f"{path}{key}: must be finite, got {value!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{key}: expected an object")
            _check_keys(value, expected, f"{path}{key}.")
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{path}{key}: expected a number, got {value!r}")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{path}{key}: expected an integer, got {value!r}")
        elif isinstance(expected, tuple):
            if not isinstance(value, expected):
                raise ConfigError(f"{path}{key}: wrong type {type(value).__name__}")
        elif not isinstance(value, expected):
            raise ConfigError(f"{path}{key}: expected {expected.__name__}, got {type(value).__name__}")


def validate(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_keys(raw, _SCHEMA, "")
    for i, entry in enumerate(raw.get("sweep", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"sweep[{i}]: expected an object")
        for key in entry:
            if key not in ("name", "training"):
                raise ConfigError(f"sweep[{i}].{key}: unknown key")
        if "training" in entry:
            _check_keys(entry["training"], _SCHEMA["training"], f"sweep[{i}].training.")
    ds = raw.get("dataset", {})
    if "name" in ds and ds["name"] not in ("toy2d", "decoy"):
        raise ConfigError(f"dataset.name: unknown dataset {ds['name']!r}")
    hidden = raw.get("model", {}).get("hidden")
    if hidden is not None and (not hidden or any(type(h) is not int or h < 1 for h in hidden)):
        raise ConfigError(f"model.hidden: expected a non-empty list of positive integers, got {hidden!r}")
    ev = raw.get("eval", {})
    if ev.get("rcs_sigma", 1) <= 0:
        raise ConfigError(f"eval.rcs_sigma: must be > 0, got {ev['rcs_sigma']!r}")
    grid = ev.get("grid_range", [[0, 1], [0, 1]])
    if len(grid) != 2 or not all(
        isinstance(r, list) and len(r) == 2 and all(type(v) in (int, float) for v in r) and r[0] < r[1] for r in grid
    ):
        raise ConfigError(f"eval.grid_range: expected two [lo, hi] number pairs with lo < hi, got {grid!r}")
    counts = {"eval.grid_resolution": ev.get("grid_resolution", 1)}
    counts.update((f"gp_verify.{k}", v) for k, v in raw.get("gp_verify", {}).items())
    for field, value in counts.items():
        if value < 1:
            raise ConfigError(f"{field}: must be >= 1, got {value}")
    for field, value in (("seed", raw.get("seed", 0)), ("dataset.seed", ds.get("seed", 0))):
        if value < 0:
            raise ConfigError(f"{field}: must be >= 0, got {value}")
    return raw


def load(path) -> dict:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
    return validate(raw)


def config_hash(cfg: dict) -> str:
    """Stable short hash of the canonical JSON form."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def training_config(cfg: dict, seed: int) -> TrainingConfig:
    """The ``training`` block as a TrainingConfig; out-of-range values
    raise ConfigError naming the block."""
    block = dict(cfg.get("training", {}))
    pblock = dict(block.pop("perturb", {}))
    clamp = block.pop("clamp", None)
    try:
        return TrainingConfig(
            perturb=PerturbConfig(**pblock),
            clamp=tuple(clamp) if clamp is not None else None,
            seed=seed,
            **block,
        )
    except ValueError as err:
        raise ConfigError(f"training: {err}") from err
