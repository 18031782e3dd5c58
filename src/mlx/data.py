"""Dataset builders: the 2-D three-cluster toy task and the decoy-digit
image task, plus IDX ingestion and a binary cache format.

Toy task. Three Gaussian clusters (std 0.4): class 0 at x1 = -2 and
x1 = +2, class 1 at x1 = 0. The x2 centers are offset per cluster
(+0.8 for class 0, -0.8 for class 1), so boundaries that bend with x2
also separate the training data and x2 is the simpler, almost-clean
feature, while the intended solution is the pair of vertical lines
x1 = +-1. The mask is [0, 1] everywhere: x2 is the irrelevant feature.
Groups are the labels.

Decoy-digit task. 3x28x28 images: one lateral half (left or right,
uniform per example) is filled with a label-indexed constant RGB color;
the digit is squeezed to 14 columns of the other half in grayscale. The
mask is 1 on the decoy half in all channels. Training decoys match the
label; validation/test decoys take a uniformly random *other* label's
color, so a color shortcut scores near zero there. Groups are the
labels.

IDX files use the standard layout: big-endian magic (0x00000803 images
/ 0x00000801 labels), big-endian u32 dims, then unsigned bytes. When no
real digit corpus is available a deterministic synthetic stroke-glyph
corpus is rendered and written through the same IDX files.

Cache file layout (little-endian):
    header   magic b'MLXD', version 3, seed, config hash, as in ``binfile``
             (``mlx gen-data`` writes the root seed and the hash of the
             dataset block and seed that the file name carries)
    feature_dim u32
    3 splits (train, val, test), each:
        count u32
        x      count*dim  f32
        y      count      u32
        group  count      u32
        m      count*ceil(dim/8) bytes, bit-packed per example
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader, replacing, write_header

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CACHE_MAGIC = b"MLXD"
CACHE_VERSION = 3

# 10 decoy colors: a maximal-separation spherical code of radius 0.5 around
# mid-gray, so every color is linearly separable from the rest (a linear
# probe on the decoy half alone can recover the label) and pairwise
# max-channel distance stays >= 0.33.
DECOY_COLORS = np.array(
    [
        (0.7567, 0.6175, 0.9127),
        (0.4636, 0.0704, 0.7532),
        (0.8224, 0.8768, 0.4358),
        (0.0131, 0.4027, 0.4413),
        (0.2965, 0.7249, 0.1025),
        (0.4078, 0.1031, 0.2103),
        (0.3062, 0.9498, 0.6007),
        (0.9337, 0.2550, 0.5436),
        (0.7723, 0.4762, 0.0813),
        (0.2277, 0.5238, 0.9187),
    ]
)


@dataclass
class Split:
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64
    m: np.ndarray  # (n, d) float64, binary
    group: np.ndarray  # (n,) int64

    def __len__(self):
        return self.x.shape[0]


@dataclass
class DatasetSplits:
    train: Split
    val: Split
    test: Split


# ---------------------------------------------------------------------------
# toy 2-D task

TOY_CENTERS = ((-2.0, 0.8, 0), (0.0, -0.8, 1), (2.0, 0.8, 0))
TOY_STD = 0.4


def _toy_sample(n: int, rng: np.random.Generator) -> Split:
    per = [n // 4, n // 2, n - n // 4 - n // 2]
    xs, ys = [], []
    for (cx, cy, label), count in zip(TOY_CENTERS, (per[0], per[1], per[2])):
        pts = rng.normal(0.0, TOY_STD, size=(count, 2)) + np.array([cx, cy])
        xs.append(pts)
        ys.append(np.full(count, label, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    m = np.tile(np.array([0.0, 1.0]), (len(y), 1))
    return Split(x, y, m, y.copy())


def gen_toy2d(n: int, seed: int) -> DatasetSplits:
    """Three-cluster 2-D task; 70/15/15 split, deterministic in seed."""
    if n < 100:
        raise ValueError("n must be >= 100")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x70592D]))
    n_train = int(0.7 * n)
    n_val = int(0.15 * n)
    return DatasetSplits(
        train=_toy_sample(n_train, rng),
        val=_toy_sample(n_val, rng),
        test=_toy_sample(n - n_train - n_val, rng),
    )


# ---------------------------------------------------------------------------
# IDX ingestion

def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an IDX image/label file pair; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        r = Reader(f, images_path)
        magic, count, rows, cols = r.unpack(">IIII")
        if magic != IDX_IMAGES_MAGIC:
            raise r.error(f"bad IDX magic {magic:#010x}")
        images = r.array(np.uint8, count * rows * cols).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        r = Reader(f, labels_path)
        magic, n_labels = r.unpack(">II")
        if magic != IDX_LABELS_MAGIC:
            raise r.error(f"bad IDX magic {magic:#010x}")
        labels = r.array(np.uint8, n_labels)
    if n_labels != count:
        raise r.error(f"count mismatch: {n_labels} labels for the {count} images in {images_path}")
    return images.astype(np.float64) / 255.0, labels.astype(np.int64)


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write images in [0, 1] and integer labels as an IDX pair."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    count, rows, cols = images.shape
    if labels.shape != (count,):
        raise ValueError("labels must be (n,) matching images")
    with replacing(images_path) as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(np.round(images * 255.0).astype(np.uint8).tobytes())
    with replacing(labels_path) as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, count))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic digit corpus (fallback when no real corpus is on disk)

# Stroke endpoints per digit in a unit box, y growing downward.
_GLYPHS = {
    0: [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))],
    1: [((0.5, 0), (0.5, 1)), ((0.2, 0.25), (0.5, 0))],
    2: [((0, 0), (1, 0)), ((1, 0), (1, 0.5)), ((1, 0.5), (0, 0.5)), ((0, 0.5), (0, 1)), ((0, 1), (1, 1))],
    3: [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0.2, 0.5), (1, 0.5)), ((0, 1), (1, 1))],
    4: [((0, 0), (0, 0.5)), ((0, 0.5), (1, 0.5)), ((1, 0), (1, 1))],
    5: [((1, 0), (0, 0)), ((0, 0), (0, 0.5)), ((0, 0.5), (1, 0.5)), ((1, 0.5), (1, 1)), ((1, 1), (0, 1))],
    6: [((1, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0.5)), ((1, 0.5), (0, 0.5))],
    7: [((0, 0), (1, 0)), ((1, 0), (0.35, 1))],
    8: [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0)), ((0, 0.5), (1, 0.5))],
    9: [((1, 0.5), (0, 0.5)), ((0, 0.5), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 1))],
}

_GLYPH_BOX = (4.0, 23.0, 8.0, 19.0)  # row0, row1, col0, col1 inside 28x28


_SEGMENT_POINTS = 40


def _segment_points(digit: int) -> list[np.ndarray]:
    r0, r1, c0, c1 = _GLYPH_BOX
    segs = []
    for (x0, y0), (x1, y1) in _GLYPHS[digit]:
        t = np.linspace(0.0, 1.0, _SEGMENT_POINTS)
        rows = r0 + (y0 + (y1 - y0) * t) * (r1 - r0)
        cols = c0 + (x0 + (x1 - x0) * t) * (c1 - c0)
        segs.append(np.stack([rows, cols], axis=1))
    return segs


_SEGMENT_CACHE = {d: _segment_points(d) for d in range(10)}


def _render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One randomized 28x28 grayscale glyph.

    Randomization: global subpixel shift, per-segment endpoint offsets,
    random stroke width and intensity, additive pixel noise, and an
    occasional dropped stroke. The dropout makes a slice of renderings
    genuinely ambiguous, which keeps achievable accuracy below 100%.
    """
    shift = rng.uniform(-3.0, 3.0, size=2)
    segments = _SEGMENT_CACHE[digit]
    drop = int(rng.integers(0, len(segments))) if rng.random() < 0.15 else -1
    ramp = np.linspace(0, 1, _SEGMENT_POINTS)[:, None]
    parts = []
    for i, seg in enumerate(segments):
        offsets = rng.normal(0.0, 0.7, size=(2, 2))  # endpoint displacements
        if i == drop:
            continue
        parts.append(seg + shift + (1 - ramp) * offsets[0] + ramp * offsets[1])
    pts = np.concatenate(parts)
    sigma = rng.uniform(0.5, 1.1)
    intensity = rng.uniform(0.55, 1.0)
    img = np.zeros((28, 28))
    base = np.floor(pts).astype(int)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr = base[:, 0] + dr
            cc = base[:, 1] + dc
            d2 = (rr + 0.5 - pts[:, 0]) ** 2 + (cc + 0.5 - pts[:, 1]) ** 2
            w = np.exp(-d2 / (2 * sigma**2))
            ok = (rr >= 0) & (rr < 28) & (cc >= 0) & (cc < 28)
            np.maximum.at(img, (rr[ok], cc[ok]), w[ok])
    img *= intensity
    img += rng.normal(0.0, 0.1, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def synth_digits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n synthetic digit images (n, 28, 28) in [0, 1] with balanced labels."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD161]))
    labels = rng.integers(0, 10, size=n)
    images = np.stack([_render_digit(int(d), rng) for d in labels])
    return images, labels.astype(np.int64)


def ensure_digit_corpus(data_dir, seed: int = 0, n_train: int = 16000, n_test: int = 4000) -> dict:
    """Locate a digit corpus as IDX files under ``data_dir``.

    Real files (train-images-idx3-ubyte etc.) win if present; otherwise a
    synthetic corpus is rendered once per seed and size and written in the
    same format, under file names that carry all three. Returns the four
    paths.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    real = {
        "train_images": data_dir / "train-images-idx3-ubyte",
        "train_labels": data_dir / "train-labels-idx1-ubyte",
        "test_images": data_dir / "t10k-images-idx3-ubyte",
        "test_labels": data_dir / "t10k-labels-idx1-ubyte",
    }
    if all(p.exists() for p in real.values()):
        return {k: str(v) for k, v in real.items()}
    synth = {
        "train_images": data_dir / f"synth-train-images-idx3-ubyte-s{seed}-n{n_train}",
        "train_labels": data_dir / f"synth-train-labels-idx1-ubyte-s{seed}-n{n_train}",
        "test_images": data_dir / f"synth-test-images-idx3-ubyte-s{seed}-n{n_test}",
        "test_labels": data_dir / f"synth-test-labels-idx1-ubyte-s{seed}-n{n_test}",
    }
    if not all(p.exists() for p in synth.values()):
        tr_img, tr_lab = synth_digits(n_train, seed)
        te_img, te_lab = synth_digits(n_test, seed + 1)
        write_idx(synth["train_images"], synth["train_labels"], tr_img, tr_lab)
        write_idx(synth["test_images"], synth["test_labels"], te_img, te_lab)
    return {k: str(v) for k, v in synth.items()}


# ---------------------------------------------------------------------------
# decoy construction

def _compose_decoy(
    digits: np.ndarray, color_labels: np.ndarray, sides: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stack digit halves and constant color halves into flat (n, 2352)
    arrays plus masks over the decoy half."""
    n = digits.shape[0]
    half = digits[:, :, ::2]  # (n, 28, 14): every other column
    img = np.zeros((n, 3, 28, 28))
    mask = np.zeros((n, 3, 28, 28))
    colors = DECOY_COLORS[color_labels]  # (n, 3)
    left = sides == 0
    for c in range(3):
        img[left, c, :, :14] = colors[left, c][:, None, None]
        img[left, c, :, 14:] = half[left]
        img[~left, c, :, 14:] = colors[~left, c][:, None, None]
        img[~left, c, :, :14] = half[~left]
        mask[left, c, :, :14] = 1.0
        mask[~left, c, :, 14:] = 1.0
    return img.reshape(n, -1), mask.reshape(n, -1)


def _decoy_split(
    digits: np.ndarray, labels: np.ndarray, rng: np.random.Generator, randomize_decoy: bool
) -> Split:
    n = digits.shape[0]
    sides = rng.integers(0, 2, size=n)
    if randomize_decoy:
        # uniform over the 9 other labels
        shift = rng.integers(1, 10, size=n)
        color_labels = (labels + shift) % 10
    else:
        color_labels = labels.copy()
    x, m = _compose_decoy(digits, color_labels, sides)
    return Split(x, labels.astype(np.int64), m, labels.astype(np.int64).copy())


def build_decoy_mnist(
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    seed: int,
    n_train: int = 10000,
    n_val: int = 1000,
    n_test: int = 2000,
) -> DatasetSplits:
    """Decoy composition over a raw digit corpus.

    Validation is carved from the (shuffled) training pool; its decoys
    are randomized like the test split's. Every split size must be at
    least 1 and fit in its pool.
    """
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split sizes must be >= 1, got n_train={n_train}, n_val={n_val}, n_test={n_test}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDEC0]))
    pool = train_images.shape[0]
    if n_train + n_val > pool:
        raise ValueError(f"requested {n_train}+{n_val} examples from a pool of {pool}")
    if n_test > test_images.shape[0]:
        raise ValueError(f"requested {n_test} test examples from a pool of {test_images.shape[0]}")
    order = rng.permutation(pool)
    tr_idx = order[:n_train]
    va_idx = order[n_train : n_train + n_val]
    te_idx = rng.permutation(test_images.shape[0])[:n_test]
    return DatasetSplits(
        train=_decoy_split(train_images[tr_idx], train_labels[tr_idx], rng, randomize_decoy=False),
        val=_decoy_split(train_images[va_idx], train_labels[va_idx], rng, randomize_decoy=True),
        test=_decoy_split(test_images[te_idx], test_labels[te_idx], rng, randomize_decoy=True),
    )


# ---------------------------------------------------------------------------
# binary cache

def save_cache(path, splits: DatasetSplits, seed: int = 0, config_hash: str = "") -> None:
    d = splits.train.x.shape[1]
    with replacing(path) as f:
        write_header(f, CACHE_MAGIC, CACHE_VERSION, seed, config_hash)
        f.write(struct.pack("<I", d))
        for split in (splits.train, splits.val, splits.test):
            f.write(struct.pack("<I", len(split)))
            f.write(np.ascontiguousarray(split.x, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(split.y, dtype="<u4").tobytes())
            f.write(np.ascontiguousarray(split.group, dtype="<u4").tobytes())
            f.write(np.packbits(split.m.astype(bool), axis=1).tobytes())


def load_cache(path) -> tuple[DatasetSplits, dict]:
    """Splits plus ``{seed, config_hash}``; a damaged or stale file
    (including every version-1 or version-2 cache) raises FileFormatError naming the
    path; ``mlx gen-data`` rewrites it."""
    with open(path, "rb") as f:
        r = Reader(f, path)
        seed, config_hash = r.header(CACHE_MAGIC, CACHE_VERSION, "dataset cache")
        (d,) = r.unpack("<I")
        packed_w = (d + 7) // 8
        parts = []
        for _ in range(3):
            (count,) = r.unpack("<I")
            x = r.array("<f4", count * d).reshape(count, d).astype(np.float64)
            y = r.array("<u4", count).astype(np.int64)
            group = r.array("<u4", count).astype(np.int64)
            m_bits = r.array(np.uint8, count * packed_w).reshape(count, packed_w)
            m = np.unpackbits(m_bits, axis=1)[:, :d].astype(np.float64)
            parts.append(Split(x, y, m, group))
        r.end()
    return DatasetSplits(*parts), {"seed": seed, "config_hash": config_hash}
