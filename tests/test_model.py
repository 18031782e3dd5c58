import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlx import autodiff as ad
from mlx.binfile import FileFormatError
from mlx.model import (
    MlpSpec,
    ModelParams,
    init_params,
    linear_model,
    load_checkpoint,
    logits,
    predict,
    save_checkpoint,
)


def test_spec_rejects_bad_layers():
    with pytest.raises(ValueError):
        MlpSpec(4, (), 2)
    with pytest.raises(ValueError):
        MlpSpec(4, (0,), 2)


def test_init_deterministic_and_zero_biases():
    spec = MlpSpec(5, (7,), 3)
    a = init_params(spec, 123)
    b = init_params(spec, 123)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert all((bias == 0).all() for bias in a.biases)
    c = init_params(spec, 124)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_he_variance():
    params = init_params(MlpSpec(200, (500,), 2), 0)
    w = params.weights[0]
    assert w.size == 100000
    assert np.var(w) == pytest.approx(2.0 / 200, rel=0.1)


def test_zero_weights_give_zero_logits():
    params = init_params(MlpSpec(3, (4,), 2), 0)
    for w in params.weights:
        w[:] = 0.0
    assert np.all(logits(params, np.ones((2, 3))) == 0.0)


def test_logits_match_hand_rolled_forward():
    # fixed 2-2-2 net, worked by hand
    params = linear_model(np.eye(2))
    params.weights = [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0, 0.0], [1.0, 1.0]])]
    params.biases = [np.array([0.5, -0.5]), np.array([0.0, 1.0])]
    x = np.array([[1.0, 2.0]])
    h = np.maximum(x @ params.weights[0] + params.biases[0], 0.0)
    expected = h @ params.weights[1] + params.biases[1]
    assert logits(params, x) == pytest.approx(expected)
    # h = relu([1*1+2*0.5+0.5, -1+4-0.5]) = [2.5, 2.5]; out = [2.5*2+2.5, 2.5+1] = [7.5, 3.5]
    assert logits(params, x).ravel() == pytest.approx([7.5, 3.5])


def test_task_loss_values():
    assert ad.cross_entropy(np.array([[0.0, 0.0]]), [1]).item() == pytest.approx(np.log(2))
    # logits [10, -10]: loss = log(1 + exp(-20))
    assert ad.cross_entropy(np.array([[10.0, -10.0]]), [0]).item() == pytest.approx(np.log1p(np.exp(-20)), rel=1e-6)
    assert ad.cross_entropy(np.array([[10.0, -10.0]]), [0]).item() == pytest.approx(2.061e-9, rel=1e-3)


def test_task_loss_shift_invariant():
    z = np.array([[1.0, -2.0, 0.3]])
    base = ad.cross_entropy(z, [2]).item()
    assert ad.cross_entropy(z + 7.5, [2]).item() == pytest.approx(base)


def test_task_loss_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=(1, 4))
        assert ad.cross_entropy(z, [int(rng.integers(0, 4))]).item() >= 0.0


def test_task_loss_label_range():
    with pytest.raises(IndexError):
        ad.cross_entropy(np.zeros((1, 3)), [3])


def test_one_hidden_layer_homogeneity():
    # zero-bias relu nets: scaling all parameters of a 1-hidden-layer net
    # by t scales logits by t^2
    rng = np.random.default_rng(5)
    params = init_params(MlpSpec(4, (6,), 3), 9)
    x = rng.normal(size=(5, 4))
    base = logits(params, x)
    t = 1.7
    scaled = params.copy()
    scaled.weights = [w * t for w in scaled.weights]
    scaled.biases = [b * t for b in scaled.biases]
    assert logits(scaled, x) == pytest.approx(t**2 * base)


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(MlpSpec(6, (4, 3), 2), 11)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, seed=99, config_hash="abc123")
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 99, "config_hash": "abc123"}
    for a, b in zip(params.flat(), loaded.flat()):
        assert np.array_equal(a, b)
    assert loaded.sizes() == params.sizes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_at_every_offset_names_the_file(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_params(MlpSpec(3, (4,), 2), 0), seed=1, config_hash="abc")
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            load_checkpoint(path)


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "model.bin"
    params = init_params(MlpSpec(3, (4,), 2), 0)
    save_checkpoint(path, params, seed=1, config_hash="abc")
    bad = ModelParams([np.full(w.shape, "x") for w in params.weights], params.biases)
    with pytest.raises(ValueError):  # the weights fail to cast after the header is written
        save_checkpoint(path, bad, seed=2, config_hash="def")
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 1, "config_hash": "abc"}
    assert all(np.array_equal(a, b) for a, b in zip(params.flat(), loaded.flat()))
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_predict_shape_mismatch():
    params = init_params(MlpSpec(3, (4,), 2), 0)
    with pytest.raises(ad.ShapeError):
        predict(params, np.ones((2, 5)))


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(1, 12), min_size=3, max_size=5),
    seed=st.integers(0, 2**64 - 1),
    config_hash=st.text(max_size=16),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_roundtrip_random_sizes(tmp_path, sizes, seed, config_hash, draw_seed):
    rng = np.random.default_rng(draw_seed)
    params = init_params(MlpSpec(sizes[0], tuple(sizes[1:-1]), sizes[-1]), rng)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, seed=seed, config_hash=config_hash)
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": seed, "config_hash": config_hash}
    assert loaded.sizes() == params.sizes()
    assert all(np.array_equal(a, b) for a, b in zip(params.flat(), loaded.flat()))
