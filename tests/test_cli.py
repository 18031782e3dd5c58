import json
import struct
from pathlib import Path

import numpy as np
import pytest

from mlx import cli, data
from mlx.config import ConfigError, config_hash, load, validate


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TOY = {
    "seed": 3,
    "dataset": {"name": "toy2d", "n": 200, "seed": 1},
    "model": {"hidden": [8, 8]},
    "training": {"method": "erm", "epochs": 3, "batch_size": 64, "lr": 0.005},
    "eval": {"rcs": True, "grid_range": [[-4, 4], [-2, 2]], "grid_resolution": 21},
}


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="telemetry: unknown key"):
        validate({"telemetry": True})
    with pytest.raises(ConfigError, match="training.lamda: unknown key"):
        validate({"training": {"lamda": 1.0}})
    with pytest.raises(ConfigError, match="training.perturb.skmples"):
        validate({"training": {"perturb": {"skmples": 2}}})


def test_validate_rejects_wrong_types():
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        validate({"seed": "five"})
    with pytest.raises(ConfigError, match="training.lr: expected a number"):
        validate({"training": {"lr": "fast"}})
    with pytest.raises(ConfigError, match="dataset.name: unknown dataset"):
        validate({"dataset": {"name": "cifar"}})


def test_config_hash_is_stable_and_order_free():
    a = {"x": 1, "y": {"b": 2.0, "a": [1, 2]}}
    b = {"y": {"a": [1, 2], "b": 2.0}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": a["y"]})


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load(path)


def run_cli(*argv):
    return cli.main(list(argv))


def tiny_decoy_block(folder):
    """A decoy dataset block over a 20-image corpus saved under the real-corpus file names."""
    folder.mkdir()
    images, labels = np.zeros((20, 28, 28)), np.arange(20) % 10
    for prefix in ("train", "t10k"):
        data.write_idx(folder / f"{prefix}-images-idx3-ubyte", folder / f"{prefix}-labels-idx1-ubyte", images, labels)
    return {"name": "decoy", "data_dir": str(folder), "n_train": 10, "n_val": 5, "n_test": 5}


@pytest.mark.parametrize(
    "block, key, value, field",
    [
        ("training", "method", "bogus", "training"),
        ("training", "epochs", 0, "training"),
        ("training", "batch_size", 0, "training"),
        ("model", "hidden", ["x"], "model.hidden"),
        ("training", "clamp", [1, 0], "training: clamp"),
        ("training", "clamp", [0], "training: clamp"),
        ("training", "clamp", [0, 1, 2], "training: clamp"),
        ("training", "clamp", ["a", "b"], "training: clamp"),
        ("dataset", "n", 50, "dataset: n must be >= 100"),
        ("dataset", "n_train", -1, "dataset: split sizes must be >= 1"),
        ("dataset", "n_test", -3, "dataset: split sizes must be >= 1"),
        ("training", "lr", -1, "training: lr must be >= 0"),
        ("training", "eps_max", -1, "training: eps_max must be >= 0"),
        ("training", "perturb", {"alpha": -1}, "training: sigma, kappa and alpha must be >= 0"),
        ("eval", "rcs_sigma", 0, "eval.rcs_sigma"),
        ("eval", "grid_range", [[-4, 4]], "eval.grid_range"),
        ("eval", "grid_range", [[4, -4], [-2, 2]], "eval.grid_range"),
        ("eval", "grid_range", [[-4, 4], ["a", 2]], "eval.grid_range"),
        ("eval", "grid_resolution", 0, "eval.grid_resolution"),
        ("gp_verify", "thm1_trials", 0, "gp_verify.thm1_trials"),
        ("gp_verify", "thm2_trials", 0, "gp_verify.thm2_trials"),
        ("gp_verify", "psd_trials", -1, "gp_verify.psd_trials"),
    ],
    ids=[
        "method", "epochs", "batch_size", "hidden", "clamp-reversed", "clamp-short", "clamp-long", "clamp-text",
        "toy-n", "decoy-n_train", "decoy-n_test", "lr", "eps_max", "alpha", "rcs_sigma", "grid-short", "grid-reversed",
        "grid-text", "grid-resolution", "thm1-trials", "thm2-trials", "psd-trials",
    ],
)
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, block, key, value, field):
    out = str(tmp_path / "run")
    assert run_cli("gen-data", "--config", write_config(tmp_path, TOY), "--out", out) == 0
    doc = json.loads(json.dumps(TOY))
    if key in ("n_train", "n_test"):
        doc["dataset"] = tiny_decoy_block(tmp_path / "digits")
    doc.setdefault(block, {})[key] = value
    # dataset sizes are checked when the cache is built, the rest when training
    command = "gen-data" if block == "dataset" else "train"
    assert run_cli(command, "--config", write_config(tmp_path, doc, "bad.json"), "--out", out) == 2
    assert f"config error: {field}" in capsys.readouterr().err


def test_bad_sweep_entry_is_named_before_training(tmp_path, capsys):
    out = tmp_path / "sweep"
    doc = dict(TOY, sweep=[{"name": "ok", "training": {}}, {"name": "bad", "training": {"epochs": 0}}])
    cfg_path = write_config(tmp_path, doc)
    assert run_cli("gen-data", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("sweep", "--config", cfg_path, "--out", str(out)) == 2
    assert "config error: sweep[1].training" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_full_pipeline_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, TOY)
    out = tmp_path / "run"
    assert run_cli("gen-data", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("train", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("eval", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("boundary-dump", "--config", cfg_path, "--out", str(out)) == 0

    history = (out / "history.csv").read_text()
    metrics_doc = (out / "metrics.json").read_text()
    boundary = (out / "boundary.csv").read_text()
    assert history.splitlines()[0].startswith("# config_hash=")
    assert json.loads(metrics_doc)["meta"]["seed"] == 3

    # byte-identical rerun
    assert run_cli("train", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("eval", "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("boundary-dump", "--config", cfg_path, "--out", str(out)) == 0
    assert (out / "history.csv").read_text() == history
    assert (out / "metrics.json").read_text() == metrics_doc
    assert (out / "boundary.csv").read_text() == boundary


def test_missing_dataset_cache_is_instructive(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TOY)
    assert run_cli("train", "--config", cfg_path, "--out", str(tmp_path / "empty")) == 2
    err = capsys.readouterr().err
    assert "gen-data" in err


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = write_config(tmp_path, TOY)
    out = tmp_path / "run"
    run_cli("gen-data", "--config", cfg_path, "--out", str(out))
    run_cli("train", "--config", cfg_path, "--out", str(out))
    first = (out / "history.csv").read_text()
    out2 = tmp_path / "run2"
    run_cli("gen-data", "--config", cfg_path, "--out", str(out2), "--seed", "4")
    run_cli("train", "--config", cfg_path, "--out", str(out2), "--seed", "4")
    assert (out2 / "history.csv").read_text() != first


def test_data_dir_env_override(tmp_path, monkeypatch):
    cache_dir = tmp_path / "shared-cache"
    monkeypatch.setenv("MLX_DATA_DIR", str(cache_dir))
    cfg_path = write_config(tmp_path, TOY)
    out = tmp_path / "out"
    run_cli("gen-data", "--config", cfg_path, "--out", str(out))
    assert list(cache_dir.glob("dataset-toy2d-*.bin"))
    assert not list(Path(out).glob("dataset-*.bin"))
    assert run_cli("train", "--config", cfg_path, "--out", str(out)) == 0


def test_eval_on_truncated_checkpoint_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TOY)
    out = tmp_path / "run"
    run_cli("gen-data", "--config", cfg_path, "--out", str(out))
    run_cli("train", "--config", cfg_path, "--out", str(out))
    checkpoint = out / "checkpoint.bin"
    checkpoint.write_bytes(checkpoint.read_bytes()[:-8])  # the final bias loses one class
    assert run_cli("eval", "--config", cfg_path, "--out", str(out)) == 2
    assert f"error: {checkpoint}: truncated" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_short_label_file_exits_2_naming_it(tmp_path, capsys):
    block = tiny_decoy_block(tmp_path / "digits")
    labels = tmp_path / "digits" / "train-labels-idx1-ubyte"
    labels.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 19) + bytes(19))
    cfg_path = write_config(tmp_path, dict(TOY, dataset=block))
    assert run_cli("gen-data", "--config", cfg_path, "--out", str(tmp_path / "run")) == 2
    assert f"error: {labels}: count mismatch: 19 labels for the 20 images" in capsys.readouterr().err


def test_boundary_dump_on_an_image_model_exits_2_naming_the_checkpoint(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(TOY, dataset=tiny_decoy_block(tmp_path / "digits")))
    out = tmp_path / "run"
    for command in ("gen-data", "train"):
        assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 0
    assert run_cli("boundary-dump", "--config", cfg_path, "--out", str(out)) == 2
    assert f"error: {out / 'checkpoint.bin'}: boundary_grid needs a 2-input model, not 2352" in capsys.readouterr().err
    assert not (out / "boundary.csv").exists()


def test_eval_refuses_a_checkpoint_trained_under_another_config(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TOY)
    for command in ("gen-data", "train"):
        assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 0
    checkpoint = out / "checkpoint.bin"
    other_lr = write_config(tmp_path, dict(TOY, training={**TOY["training"], "lr": 0.01}), "lr.json")
    for command in ("eval", "boundary-dump"):
        assert run_cli(command, "--config", other_lr, "--out", str(out)) == 2
        assert f"error: {checkpoint}: trained under seed 3 and hash" in capsys.readouterr().err
    # another root seed: its own cache exists, the checkpoint is still from seed 3
    assert run_cli("gen-data", "--config", cfg_path, "--out", str(out), "--seed", "4") == 0
    assert run_cli("eval", "--config", cfg_path, "--out", str(out), "--seed", "4") == 2
    assert f"error: {checkpoint}: trained under seed 3 and hash" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()
    # the eval block does not decide the weights
    other_eval = write_config(tmp_path, dict(TOY, eval={**TOY["eval"], "rcs_sigma": 0.5}), "eval.json")
    assert run_cli("eval", "--config", other_eval, "--out", str(out)) == 0


def test_eval_edit_rewrites_a_byte_identical_dataset_cache(tmp_path):
    out = tmp_path / "run"
    assert run_cli("gen-data", "--config", write_config(tmp_path, TOY), "--out", str(out)) == 0
    (cache,) = out.glob("dataset-*.bin")
    first = cache.read_bytes()
    other_eval = write_config(tmp_path, dict(TOY, eval={**TOY["eval"], "rcs_sigma": 0.5}), "eval.json")
    assert run_cli("gen-data", "--config", other_eval, "--out", str(out)) == 0
    assert list(out.glob("dataset-*.bin")) == [cache]
    assert cache.read_bytes() == first


def test_dataset_cache_with_another_header_hash_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, TOY)
    assert run_cli("gen-data", "--config", cfg_path, "--out", str(out)) == 0
    (cache,) = out.glob("dataset-*.bin")
    splits, meta = data.load_cache(cache)
    data.save_cache(cache, splits, seed=meta["seed"], config_hash="0" * len(meta["config_hash"]))
    for command in ("train", "eval"):
        assert run_cli(command, "--config", cfg_path, "--out", str(out)) == 2
        assert f"error: {cache}: written for seed 3 and hash 000" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_gp_verify_writes_report(tmp_path):
    cfg_path = write_config(
        tmp_path, {"seed": 0, "gp_verify": {"thm1_trials": 50, "thm2_trials": 10, "psd_trials": 20}}
    )
    out = tmp_path / "gp"
    assert run_cli("gp-verify", "--config", cfg_path, "--out", str(out)) == 0
    doc = json.loads((out / "gp_verify.json").read_text())
    assert doc["all_passed"] is True
    assert doc["gap_lower_bound"]["n_trials"] == 50


def test_sweep_emits_one_row_per_entry(tmp_path):
    doc = dict(TOY)
    doc["sweep"] = [
        {"name": "erm", "training": {"method": "erm"}},
        {"name": "gr", "training": {"method": "grad-reg", "lam": 1.0}},
        {"name": "pgd", "training": {"method": "pgd-ex", "perturb": {"kappa": 0.2, "steps": 2}}},
        {"name": "ibp", "training": {"method": "ibp-ex", "eps_max": 0.3}},
        {"name": "p+g", "training": {"method": "pgd+grad", "lam": 1.0, "perturb": {"kappa": 0.2, "steps": 2}}},
    ]
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    run_cli("gen-data", "--config", cfg_path, "--out", str(out))
    assert run_cli("sweep", "--config", cfg_path, "--out", str(out)) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "name"
    assert len(lines) == 2 + 5  # meta line + header + 5 rows
    assert [row.split(",")[1] for row in lines[2:]] == ["erm", "grad-reg", "pgd-ex", "ibp-ex", "pgd+grad"]


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        cli.main(["fit", "--config", "x.json"])
