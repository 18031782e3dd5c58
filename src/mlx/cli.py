"""Command-line entry point.

    mlx gen-data      --config c.json [--out DIR] [--seed N]
    mlx train         --config c.json [--out DIR] [--seed N]
    mlx eval          --config c.json [--out DIR] [--seed N]
    mlx boundary-dump --config c.json [--out DIR] [--seed N]
    mlx gp-verify     --config c.json [--out DIR] [--seed N]
    mlx sweep         --config c.json [--out DIR] [--seed N]

Dataset caches live under $MLX_DATA_DIR when set, otherwise under the
output directory; their file names embed the hash of the dataset block
and seed, so train/eval locate them without extra bookkeeping, and
their headers carry the same seed and hash, which train/eval check.
Every output file records the config hash and root seed (JSON ``meta``
object, or a leading ``#`` line in CSVs); reruns with identical config
and seed produce byte-identical files. The checkpoint instead records the hash
of the dataset, model and training blocks, and eval and boundary-dump
refuse a checkpoint whose seed or hash differs from theirs; edits to
the eval block leave it valid.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import config as cfgmod
from . import data, metrics, rng, theory
from .binfile import FileFormatError, replacing
from .model import MlpSpec, load_checkpoint, save_checkpoint
from .train import train as run_training


def _meta(cfg: dict, seed: int) -> dict:
    return {"config_hash": cfgmod.config_hash(cfg), "seed": seed}


def _checkpoint_meta(cfg: dict, seed: int) -> dict:
    """Seed and hash of the blocks that decide a checkpoint's weights."""
    blocks = {k: cfg.get(k, {}) for k in ("dataset", "model", "training")}
    return {"config_hash": cfgmod.config_hash(blocks), "seed": seed}


def _write_csv(path, header_meta: dict, columns: list[str], rows: list[dict]) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in header_meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    with replacing(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _write_json(path, meta: dict, payload: dict) -> None:
    doc = {"meta": meta, **payload}
    with replacing(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cache_dir(out: Path) -> Path:
    env = os.environ.get("MLX_DATA_DIR")
    cache = Path(env) if env else out
    cache.mkdir(parents=True, exist_ok=True)
    return cache


def _dataset_cache(cfg: dict, out: Path, seed: int) -> tuple[Path, dict]:
    """The cache's path and the header ``{seed, config_hash}`` it must carry."""
    block = cfg.get("dataset", {})
    tag = cfgmod.config_hash({"dataset": block, "seed": seed})
    name = block.get("name", "toy2d")
    return _cache_dir(out) / f"dataset-{name}-{tag}.bin", {"seed": seed, "config_hash": tag}


def _build_dataset(cfg: dict, out: Path, seed: int) -> data.DatasetSplits:
    """The configured splits; sizes the builder rejects raise ConfigError
    naming the dataset block."""
    block = cfg.get("dataset", {})
    name = block.get("name", "toy2d")
    ds_seed = int(block.get("seed", seed))
    if name == "decoy":
        digits_dir = block.get("data_dir") or str(_cache_dir(out) / "digits")
        paths = data.ensure_digit_corpus(digits_dir, seed=ds_seed)
        corpus = (
            *data.load_idx(paths["train_images"], paths["train_labels"]),
            *data.load_idx(paths["test_images"], paths["test_labels"]),
        )
    try:
        if name == "toy2d":
            return data.gen_toy2d(int(block.get("n", 600)), ds_seed)
        sizes = {k: block[k] for k in ("n_train", "n_val", "n_test") if k in block}
        return data.build_decoy_mnist(*corpus, seed=ds_seed, **sizes)
    except ValueError as err:
        raise cfgmod.ConfigError(f"dataset: {err}") from err


def _load_dataset(cfg: dict, out: Path, seed: int) -> data.DatasetSplits:
    """The cached splits; a cache whose header names another dataset
    block or seed raises FileFormatError naming it."""
    path, expected = _dataset_cache(cfg, out, seed)
    if not path.exists():
        raise cfgmod.ConfigError(
            f"dataset cache {path} not found; run `mlx gen-data --config <same config>` first"
        )
    splits, meta = data.load_cache(path)
    if meta != expected:
        raise FileFormatError(
            f"{path}: written for seed {meta['seed']} and hash {meta['config_hash']}, not seed {seed} and hash "
            f"{expected['config_hash']} of this config's dataset block; rerun `mlx gen-data`"
        )
    return splits


def _model_spec(cfg: dict, splits: data.DatasetSplits) -> MlpSpec:
    hidden = tuple(cfg.get("model", {}).get("hidden", (32, 32)))
    return MlpSpec(splits.train.x.shape[1], hidden, int(splits.train.y.max()) + 1)


def cmd_gen_data(cfg: dict, seed: int, out: Path) -> int:
    splits = _build_dataset(cfg, out, seed)
    path, meta = _dataset_cache(cfg, out, seed)
    data.save_cache(path, splits, **meta)
    print(f"wrote {path} ({len(splits.train)}/{len(splits.val)}/{len(splits.test)} examples)")
    return 0


def cmd_train(cfg: dict, seed: int, out: Path) -> int:
    splits = _load_dataset(cfg, out, seed)
    result = run_training(splits, cfgmod.training_config(cfg, seed), spec=_model_spec(cfg, splits))
    save_checkpoint(out / "checkpoint.bin", result.params, **_checkpoint_meta(cfg, seed))
    _write_csv(
        out / "history.csv",
        _meta(cfg, seed),
        ["epoch", "train_loss", "robust_loss", "reg_loss", "val_avg_acc", "val_wg_acc"],
        result.history,
    )
    best = result.history[result.best_epoch]
    print(f"wrote {out / 'checkpoint.bin'} (best val wg acc {best['val_wg_acc']:.4f} at epoch {result.best_epoch})")
    return 0


def _load_checkpoint(cfg: dict, seed: int, out: Path):
    """The trained parameters; a checkpoint trained under another seed or
    dataset, model or training block raises FileFormatError naming it."""
    path = out / "checkpoint.bin"
    params, meta = load_checkpoint(path)
    expected = _checkpoint_meta(cfg, seed)
    if meta != expected:
        raise FileFormatError(
            f"{path}: trained under seed {meta['seed']} and hash {meta['config_hash']}, not seed {seed} and hash "
            f"{expected['config_hash']} of this config's dataset, model and training blocks; rerun `mlx train`"
        )
    return params


def _eval_report(cfg: dict, splits: data.DatasetSplits, params, seed: int) -> metrics.MetricsReport:
    eval_cfg = cfg.get("eval", {})
    return metrics.build_report(
        params,
        splits.test,
        with_rcs=bool(eval_cfg.get("rcs", True)),
        rcs_sigma=float(eval_cfg.get("rcs_sigma", 0.25)),
        rng=rng.stream(seed, "rcs"),
    )


def cmd_eval(cfg: dict, seed: int, out: Path) -> int:
    splits = _load_dataset(cfg, out, seed)
    params = _load_checkpoint(cfg, seed, out)
    report = _eval_report(cfg, splits, params, seed)
    _write_json(out / "metrics.json", _meta(cfg, seed), report.as_dict())
    print(f"wrote {out / 'metrics.json'} (avg {report.avg_acc:.4f}, wg {report.wg_acc:.4f})")
    return 0


def cmd_boundary_dump(cfg: dict, seed: int, out: Path) -> int:
    params = _load_checkpoint(cfg, seed, out)
    eval_cfg = cfg.get("eval", {})
    (x1r, x2r) = eval_cfg.get("grid_range", [[-4.0, 4.0], [-3.0, 3.0]])
    res = int(eval_cfg.get("grid_resolution", 81))
    try:
        grid = metrics.boundary_grid(params, x1r, x2r, res)
    except ValueError as err:  # the config is valid, so the model's input dim is at fault
        raise FileFormatError(f"{out / 'checkpoint.bin'}: {err}") from err
    rows = []
    for i, a in enumerate(grid.x1):
        for j, b in enumerate(grid.x2):
            rows.append(
                {
                    "x1": float(a),
                    "x2": float(b),
                    "pred": int(grid.pred[i, j]),
                    "logit0": float(grid.logit[i, j, 0]),
                    "logit1": float(grid.logit[i, j, 1]),
                }
            )
    _write_csv(
        out / "boundary.csv",
        {**_meta(cfg, seed), "flip_fraction": grid.flip_fraction},
        ["x1", "x2", "pred", "logit0", "logit1"],
        rows,
    )
    print(f"wrote {out / 'boundary.csv'} (flip fraction {grid.flip_fraction:.4f})")
    return 0


def cmd_gp_verify(cfg: dict, seed: int, out: Path) -> int:
    block = cfg.get("gp_verify", {})
    payload = {
        "gap_lower_bound": theory.run_thm1_trials(int(block.get("thm1_trials", 1000)), seed),
        "coverage_upper_bound": theory.run_thm2_trials(int(block.get("thm2_trials", 100)), seed),
        "kernel_psd": theory.run_kernel_psd_trials(int(block.get("psd_trials", 200)), seed),
        "mean_estimator_weights": theory.run_prop1_checks(),
    }
    payload["all_passed"] = all(v["passed"] for v in payload.values())
    _write_json(out / "gp_verify.json", _meta(cfg, seed), payload)
    print(f"wrote {out / 'gp_verify.json'} (all passed: {payload['all_passed']})")
    return 0 if payload["all_passed"] else 1


_SWEEP_COLUMNS = [
    "name", "method", "lam", "beta", "alpha", "sigma", "kappa", "eps_max",
    "avg_acc", "wg_acc", "rcs", "s1", "s2",
]


def cmd_sweep(cfg: dict, seed: int, out: Path) -> int:
    entries = cfg.get("sweep", [])
    if not entries:
        raise cfgmod.ConfigError("sweep: no entries")
    base = cfg.get("training", {})
    runs = []
    for i, entry in enumerate(entries):
        override = entry.get("training", {})
        training = {**base, **override, "perturb": {**base.get("perturb", {}), **override.get("perturb", {})}}
        # every entry is checked before the first one trains
        try:
            tcfg = cfgmod.training_config({"training": training}, seed)
        except cfgmod.ConfigError as err:
            raise cfgmod.ConfigError(f"sweep[{i}].{err}") from err
        runs.append((entry.get("name", f"run{i}"), tcfg))
    splits = _load_dataset(cfg, out, seed)
    spec = _model_spec(cfg, splits)
    rows = []
    for name, tcfg in runs:
        t0 = time.time()
        result = run_training(splits, tcfg, spec=spec)
        report = _eval_report(cfg, splits, result.params, seed)
        rows.append(
            {
                "name": name,
                "method": tcfg.method,
                "lam": tcfg.lam,
                "beta": tcfg.beta,
                "alpha": tcfg.perturb.alpha,
                "sigma": tcfg.perturb.sigma,
                "kappa": tcfg.perturb.kappa,
                "eps_max": tcfg.eps_max,
                "avg_acc": report.avg_acc,
                "wg_acc": report.wg_acc,
                "rcs": report.rcs,
                "s1": report.s1,
                "s2": report.s2,
            }
        )
        print(f"[{name}] method={tcfg.method} wg={report.wg_acc:.4f} ({time.time() - t0:.1f}s)")
    _write_csv(out / "sweep.csv", _meta(cfg, seed), _SWEEP_COLUMNS, rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "boundary-dump": cmd_boundary_dump,
    "gp-verify": cmd_gp_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mlx", description=__doc__.strip().splitlines()[0])
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    parser.add_argument("--seed", type=int, default=None, help="root seed (overrides config seed)")
    args = parser.parse_args(argv)
    try:
        cfg = cfgmod.load(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out = Path(args.out or cfg.get("out_dir", "mlx-runs"))
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.subcommand](cfg, seed, out)
    except cfgmod.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
