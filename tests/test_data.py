import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlx import data
from mlx.binfile import FileFormatError


def test_toy2d_masks_and_groups():
    splits = data.gen_toy2d(300, seed=0)
    for split in (splits.train, splits.val, splits.test):
        assert np.all(split.m == np.array([0.0, 1.0]))
        assert np.array_equal(split.group, split.y)


def test_toy2d_split_sizes_and_determinism():
    a = data.gen_toy2d(400, seed=9)
    b = data.gen_toy2d(400, seed=9)
    assert len(a.train) == 280 and len(a.val) == 60 and len(a.test) == 60
    assert np.array_equal(a.train.x, b.train.x)
    assert np.array_equal(a.test.y, b.test.y)
    c = data.gen_toy2d(400, seed=10)
    assert not np.array_equal(a.train.x, c.train.x)


def test_toy2d_rejects_tiny_n():
    with pytest.raises(ValueError):
        data.gen_toy2d(50, seed=0)


def test_toy2d_x1_threshold_error_rate():
    # oracle: exact Gaussian tails for the |x1| >= 1 rule
    splits = data.gen_toy2d(4000, seed=1)
    x = np.concatenate([splits.train.x, splits.val.x, splits.test.x])
    y = np.concatenate([splits.train.y, splits.val.y, splits.test.y])
    rule = (np.abs(x[:, 0]) >= 1.0).astype(int)  # class 0 lives at |x1| ~ 2
    observed = np.mean(rule != (1 - y))
    # class 0 at +-2 errs when |x1| < 1; class 1 at 0 errs when |x1| >= 1
    phi = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
    err0 = phi((1 - 2) / data.TOY_STD) - phi((-1 - 2) / data.TOY_STD)
    err1 = 2 * (1 - phi(1 / data.TOY_STD))
    expected = 0.5 * err0 + 0.5 * err1
    assert expected < 0.02
    assert observed == pytest.approx(expected, abs=0.01)


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.random((7, 28, 28))
    labels = rng.integers(0, 10, size=7)
    data.write_idx(tmp_path / "img", tmp_path / "lab", images, labels)
    got_images, got_labels = data.load_idx(tmp_path / "img", tmp_path / "lab")
    assert got_images.shape == (7, 28, 28)
    assert np.abs(got_images - images).max() <= 0.5 / 255 + 1e-12
    assert np.array_equal(got_labels, labels)
    # write/read of already-quantized pixels is exact
    data.write_idx(tmp_path / "img2", tmp_path / "lab2", got_images, got_labels)
    again, _ = data.load_idx(tmp_path / "img2", tmp_path / "lab2")
    assert np.array_equal(again, got_images)


def test_idx_bad_magic(tmp_path):
    (tmp_path / "img").write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
    (tmp_path / "lab").write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 4)
    with pytest.raises(ValueError, match="magic"):
        data.load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_truncated(tmp_path):
    (tmp_path / "img").write_bytes(struct.pack(">IIII", 0x803, 5, 28, 28) + b"\x00" * 100)
    (tmp_path / "lab").write_bytes(struct.pack(">II", 0x801, 5) + b"\x00" * 5)
    with pytest.raises(ValueError, match="truncated"):
        data.load_idx(tmp_path / "img", tmp_path / "lab")


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    data.write_idx(tmp_path / "img", tmp_path / "labX", rng.random((3, 28, 28)), np.zeros(3, dtype=int))
    data.write_idx(tmp_path / "img2", tmp_path / "lab", rng.random((4, 28, 28)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="mismatch"):
        data.load_idx(tmp_path / "img", tmp_path / "lab")


def test_decoy_colors_are_separated():
    colors = data.DECOY_COLORS
    assert colors.shape == (10, 3)
    for i in range(10):
        for j in range(i + 1, 10):
            assert np.abs(colors[i] - colors[j]).max() >= 0.3


@pytest.fixture(scope="module")
def decoy_splits():
    images, labels = data.synth_digits(600, seed=0)
    test_images, test_labels = data.synth_digits(300, seed=1)
    return data.build_decoy_mnist(images, labels, test_images, test_labels, seed=2, n_train=400, n_val=100, n_test=200)


def test_decoy_mask_support(decoy_splits):
    counts = decoy_splits.train.m.sum(axis=1)
    assert np.all(counts == 3 * 28 * 14)


def test_decoy_train_color_matches_label(decoy_splits):
    x = decoy_splits.train.x.reshape(-1, 3, 28, 28)
    m = decoy_splits.train.m.reshape(-1, 3, 28, 28)
    for i in range(40):
        decoy_pixels = x[i][m[i] == 1].reshape(3, -1)
        color = decoy_pixels.mean(axis=1)
        assert color == pytest.approx(data.DECOY_COLORS[decoy_splits.train.y[i]], abs=1e-9)
        assert decoy_pixels.std(axis=1).max() < 1e-12  # constant color


def test_decoy_test_color_never_matches_label(decoy_splits):
    x = decoy_splits.test.x.reshape(-1, 3, 28, 28)
    m = decoy_splits.test.m.reshape(-1, 3, 28, 28)
    for i in range(len(decoy_splits.test)):
        color = x[i][m[i] == 1].reshape(3, -1).mean(axis=1)
        assert np.abs(color - data.DECOY_COLORS[decoy_splits.test.y[i]]).max() > 1e-9


def test_decoy_color_probe_reaches_high_train_accuracy(decoy_splits):
    # softmax-regression probe on decoy-half coordinates only; the colors
    # are linearly separable, so gradient training drives it to ~100%
    tr = decoy_splits.train
    feats = np.where(tr.m == 1.0, tr.x, 0.0)
    # class-channel means summarise the constant color; keep it linear
    rng = np.random.default_rng(0)
    w = np.zeros((feats.shape[1], 10))
    b = np.zeros(10)
    lr = 2.0
    for _ in range(300):
        z = feats @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - np.eye(10)[tr.y]) / len(tr)
        w -= lr * feats.T @ g
        b -= lr * g.sum(axis=0)
    preds = np.argmax(feats @ w + b, axis=1)
    assert (preds == tr.y).mean() > 0.99


def test_decoy_deterministic(decoy_splits):
    images, labels = data.synth_digits(600, seed=0)
    test_images, test_labels = data.synth_digits(300, seed=1)
    again = data.build_decoy_mnist(images, labels, test_images, test_labels, seed=2, n_train=400, n_val=100, n_test=200)
    assert np.array_equal(again.train.x, decoy_splits.train.x)
    assert np.array_equal(again.test.m, decoy_splits.test.m)


def test_decoy_subset_too_large():
    images, labels = data.synth_digits(100, seed=0)
    with pytest.raises(ValueError, match="pool"):
        data.build_decoy_mnist(images, labels, images, labels, seed=0, n_train=90, n_val=20, n_test=10)


def test_synth_corpus_idx_files(tmp_path):
    paths = data.ensure_digit_corpus(tmp_path, seed=3, n_train=200, n_test=50)
    images, labels = data.load_idx(paths["train_images"], paths["train_labels"])
    assert images.shape == (200, 28, 28)
    assert 0.0 <= images.min() and images.max() <= 1.0
    assert set(np.unique(labels)) <= set(range(10))
    # second call reuses the files
    again = data.ensure_digit_corpus(tmp_path, seed=3, n_train=200, n_test=50)
    assert again == paths


def test_synth_corpus_bytes_are_pinned(tmp_path):
    # 600 glyphs cross a render-chunk seam; the hashes are those of the
    # glyph-at-a-time renderer that the chunked one replaced
    paths = data.ensure_digit_corpus(tmp_path, seed=3, n_train=600, n_test=50)
    digests = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}
    assert digests == {
        "train_images": "fc19f736375dfffe88551117b3ddc8f86d5f60d168658739845d4a41c5c7cc2b",
        "train_labels": "d46253f17a3d8f5def4a29545f034bfc8e95193e5165611465de5eb2cc87895b",
        "test_images": "319a1264b0bf3e83837c65cf60f2549181f21228b5637c1e29cf6ca3074e79d2",
        "test_labels": "971ee258d2b7796ed77ac3fa329dcfeaa290987b8760959d1cfa7233ae6f75a4",
    }


def test_synth_corpus_not_reused_at_another_size(tmp_path):
    data.ensure_digit_corpus(tmp_path, seed=3, n_train=100, n_test=20)
    paths = data.ensure_digit_corpus(tmp_path, seed=3, n_train=200, n_test=20)
    images, labels = data.load_idx(paths["train_images"], paths["train_labels"])
    assert images.shape == (200, 28, 28) and labels.shape == (200,)


def test_cache_roundtrip(tmp_path, decoy_splits):
    path = tmp_path / "cache.bin"
    data.save_cache(path, decoy_splits, seed=5, config_hash="deadbeef")
    loaded, meta = data.load_cache(path)
    assert meta["seed"] == 5
    assert meta["config_hash"] == "deadbeef"
    for a, b in ((loaded.train, decoy_splits.train), (loaded.test, decoy_splits.test)):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.group, b.group)
        assert np.array_equal(a.m, b.m)
        assert np.abs(a.x - b.x).max() < 1e-6  # stored as f32


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        data.load_cache(path)


def test_cache_truncated_at_every_offset_names_the_file(tmp_path):
    path = tmp_path / "cache.bin"
    data.save_cache(path, data.gen_toy2d(100, seed=0), seed=1, config_hash="abc")
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            data.load_cache(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FileFormatError, match="trailing"):
        data.load_cache(path)


def test_cache_version_1_is_rejected_with_its_path(tmp_path):
    path = tmp_path / "cache.bin"
    data.save_cache(path, data.gen_toy2d(100, seed=0))
    raw = bytearray(path.read_bytes())
    for version in (1, 2):  # every earlier layout
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=re.escape(str(path)) + f".*version {version}"):
            data.load_cache(path)


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dim=st.integers(1, 20),  # mostly not a multiple of 8, so the packed mask rows pad
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**64 - 1),
    config_hash=st.text(max_size=16),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_cache_roundtrip_random_splits(tmp_path, dim, counts, seed, config_hash, draw_seed):
    rng = np.random.default_rng(draw_seed)
    splits = data.DatasetSplits(
        *[
            data.Split(
                rng.normal(size=(n, dim)).astype(np.float32).astype(np.float64),  # exact in the f32 store
                rng.integers(0, 2**32, size=n),
                (rng.random((n, dim)) < 0.5).astype(np.float64),
                rng.integers(0, 2**32, size=n),
            )
            for n in counts
        ]
    )
    path = tmp_path / "cache.bin"
    data.save_cache(path, splits, seed=seed, config_hash=config_hash)
    loaded, meta = data.load_cache(path)
    assert meta == {"seed": seed, "config_hash": config_hash}
    for name in ("train", "val", "test"):
        a, b = getattr(loaded, name), getattr(splits, name)
        for field in ("x", "y", "m", "group"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
