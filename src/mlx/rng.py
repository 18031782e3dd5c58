"""Deterministic named random streams derived from one root seed.

Training (init, shuffling, noise draws) and the noise-sensitivity
score pull their own streams by name, so methods that share components
see identical draws and reruns are bit-identical. Data synthesis in
``data`` and the trial runners in ``theory`` seed their generators
directly from the seed plus a fixed per-builder tag, the same
``SeedSequence`` construction without the name lookup.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(root_seed: int, name: str) -> np.random.Generator:
    """Generator for a named substream of ``root_seed``; stable across runs."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), tag]))
