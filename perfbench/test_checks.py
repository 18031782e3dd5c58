"""Each output check accepts the program's output and rejects a
deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from mlx import autodiff, cli, data, intervals, metrics, model, perturb, rng, train  # noqa: E402
from mlx import config as cfgmod  # noqa: E402

SEED = 7


@pytest.fixture
def net():
    return model.init_params(model.MlpSpec(12, (16, 16), 4), SEED)


@pytest.fixture
def split():
    g = np.random.default_rng(SEED)
    n = 60
    m = np.zeros((n, 12))
    m[:, :6] = 1.0
    y = g.integers(0, 4, size=n)
    return data.Split(g.random((n, 12)), y, m, y.copy())


def program_report(params, split):
    report = metrics.build_report(params, split, rng=rng.stream(SEED, "rcs"))
    return json.loads(json.dumps(report.as_dict()))


def test_saliency_matches_program(net, split):
    expected = train.importance_scores(net, split.x)
    np.testing.assert_allclose(checks.saliency(net.weights, net.biases, split.x), expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "field, change",
    [
        ("avg_acc", lambda v: v + 1 / 60),
        ("wg_acc", lambda v: v - 1 / 60),
        ("rcs", lambda v: v + 1.0),
        ("s1", lambda v: v * 1.001),
        ("s2", lambda v: v * 0.999),
    ],
)
def test_check_report(net, split, field, change):
    report = program_report(net, split)
    checks.check_report(report, net.weights, net.biases, split, SEED)
    report[field] = change(report[field])
    with pytest.raises(CheckFailed, match=field):
        checks.check_report(report, net.weights, net.biases, split, SEED)


def test_check_report_per_group(net, split):
    report = program_report(net, split)
    group = next(iter(report["per_group_acc"]))
    report["per_group_acc"][group] += 0.01
    with pytest.raises(CheckFailed, match="group"):
        checks.check_report(report, net.weights, net.biases, split, SEED)


def pgd_args(net, split):
    x, y, m = split.x[:20], split.y[:20], split.m[:20]
    delta = perturb.pgd_attack(net, x, y, m, 0.2, 7, clamp=(0.0, 1.0))
    return delta, (net.weights, net.biases, x, y, m, 0.2, (0.0, 1.0))


def test_check_pgd_accepts_program(net, split):
    delta, args = pgd_args(net, split)
    checks.check_pgd(delta, *args)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d, x, m: d * 2.0 + 0.2 * m, "kappa"),
        (lambda d, x, m: d + 0.01 * (1 - m), "off the mask"),
        (lambda d, x, m: np.where(m > 0, 0.2 * (x > 0.9), 0.0), "data range"),
    ],
)
def test_check_pgd_rejects(net, split, corrupt, message):
    delta, args = pgd_args(net, split)
    x, m = args[2], args[4]
    with pytest.raises(CheckFailed, match=message):
        checks.check_pgd(corrupt(delta, x, m), *args)


def test_check_pgd_rejects_loss_below_clean(net, split):
    _, args = pgd_args(net, split)
    weights, biases, x, y, m = args[:5]
    # step against the input gradient: the loss drops
    g = np.random.default_rng(SEED)
    clean = checks.cross_entropy(checks.forward(weights, biases, x), y)
    for _ in range(200):
        delta = np.clip(x + 0.2 * np.sign(g.normal(size=x.shape)) * m, 0, 1) - x
        if np.any(checks.cross_entropy(checks.forward(weights, biases, x + delta), y) < clean - 1e-6):
            break
    with pytest.raises(CheckFailed, match="below the clean loss"):
        checks.check_pgd(delta, *args)


def ibp_case(net, split):
    x, y, m = split.x[:20], split.y[:20], split.m[:20]
    bounds = intervals.propagate(net, intervals.input_box(x, m, 0.3, clamp=(0.0, 1.0)))
    worst = intervals.worst_case_logits(bounds, y)
    return bounds.lower, bounds.upper, worst, (net.weights, net.biases, x, y, m, 0.3, (0.0, 1.0))


def test_check_ibp(net, split):
    lower, upper, worst, args = ibp_case(net, split)
    checks.check_ibp(lower, upper, worst, *args, np.random.default_rng(1), samples=8)
    width = upper - lower
    with pytest.raises(CheckFailed, match="escape"):
        checks.check_ibp(lower + 0.6 * width, upper, worst, *args, np.random.default_rng(1), samples=8)
    with pytest.raises(CheckFailed, match="pick the bounds"):
        checks.check_ibp(lower, upper, upper, *args, np.random.default_rng(1), samples=8)


@pytest.mark.parametrize("method, lam", [("erm", 0.0), ("grad-reg", 10.0)])
def test_check_directional_grad(net, split, method, lam):
    cfg = cfgmod.training_config({"training": {"method": method, "lam": lam}}, SEED)
    x, y, m = split.x[:8], split.y[:8], split.m[:8]
    pt = model.param_tensors(net)
    loss, _ = train.total_loss_graph(pt, x, y, m, cfg, 0.0)
    grads = [g.data for g in autodiff.grad(loss, pt)]
    args = (net.weights, net.biases, x, y, m, lam)
    checks.check_directional_grad(grads, loss.item(), *args, np.random.default_rng(2))
    with pytest.raises(CheckFailed, match="finite difference"):
        checks.check_directional_grad([g * 1.001 for g in grads], loss.item(), *args, np.random.default_rng(2))
    with pytest.raises(CheckFailed, match="program loss"):
        checks.check_directional_grad(grads, loss.item() * 1.001, *args, np.random.default_rng(2))


def test_check_finite():
    checks.check_finite("ok", [1.0, 2.0])
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_finite("bad", [1.0, np.nan])


def test_read_checkpoint(net, tmp_path):
    path = tmp_path / "checkpoint.bin"
    model.save_checkpoint(path, net, seed=3, config_hash="abc")
    weights, biases = checks.read_checkpoint(path)
    for a, b in zip(weights + biases, net.weights + net.biases):
        np.testing.assert_array_equal(a, b)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckFailed, match="bytes after"):
        checks.read_checkpoint(path)


@pytest.fixture
def boundary(tmp_path):
    cfg = {
        "seed": 1,
        "dataset": {"name": "toy2d", "n": 200, "seed": 1},
        "training": {"method": "erm", "epochs": 2, "batch_size": 64, "lr": 0.005},
        "eval": {"grid_range": [[-4, 4], [-2, 2]], "grid_resolution": 21},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for sub in ("gen-data", "train", "boundary-dump"):
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path)]) == 0
    return tmp_path


def edit_csv(path, row, column, change):
    """Apply ``change`` to one cell; row 0 is the meta line, split on spaces."""
    lines = path.read_text().splitlines()
    sep = " " if row == 0 else ","
    cells = lines[row].split(sep)
    cells[column] = change(cells[column])
    lines[row] = sep.join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row, column, change, message",
    [
        (0, -1, lambda cell: "flip_fraction=0.5", "flip fraction"),
        (2, 3, lambda cell: repr(float(cell) + 1e-6), "logits differ"),
        (2, 2, lambda cell: str(1 - int(cell)), "argmax"),
    ],
)
def test_check_boundary(boundary, row, column, change, message):
    weights, biases = checks.read_checkpoint(boundary / "checkpoint.bin")
    csv = boundary / "boundary.csv"
    checks.check_boundary(csv, weights, biases)
    edit_csv(csv, row, column, change)
    with pytest.raises(CheckFailed, match=message):
        checks.check_boundary(csv, weights, biases)
