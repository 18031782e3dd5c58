"""Framing and length-checked reads shared by the binary file readers.

Checkpoints and dataset caches open with the same header
(little-endian):
    magic    4 bytes
    version  u32
    seed     u64
    hash_len u32, then hash_len bytes of utf-8 config hash

``Reader`` checks every read against the bytes left in the file, so a
truncated, padded, corrupt or stale file raises ``FileFormatError``
naming its path rather than a numpy or struct error. ``replacing``
writes every output file of the program, binary or text, so a write
that fails leaves the earlier file in place.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np


class FileFormatError(ValueError):
    """A damaged or stale binary file, or one the command cannot use; the
    message starts with its path."""


@contextmanager
def replacing(path, mode: str = "wb"):
    """Open ``<path>.tmp`` for writing and move it over ``path`` once the
    block completes; on any failure the temp file is removed and
    ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_header(f, magic: bytes, version: int, seed: int, config_hash: str) -> None:
    raw = config_hash.encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<IQI", version, seed, len(raw)))
    f.write(raw)


class Reader:
    """Length-checked reads from a binary file opened by the caller."""

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size

    def error(self, message: str) -> FileFormatError:
        return FileFormatError(f"{self.path}: {message}")

    def read(self, n: int) -> bytes:
        # checked before reading, so a corrupt length never sizes a buffer
        left = self.size - self.f.tell()
        if n > left:
            raise self.error(f"truncated: {n} bytes needed at offset {self.f.tell()}, {left} left")
        return self.f.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise self.error(f"text field is not utf-8 ({err})") from err

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.read(dtype.itemsize * count), dtype=dtype)

    def header(self, magic: bytes, version: int, kind: str) -> tuple[int, str]:
        """Check magic and version; return the seed and config hash."""
        if self.f.read(len(magic)) != magic:
            raise self.error(f"not a {kind} (bad magic)")
        found, seed = self.unpack("<IQ")
        if found != version:
            raise self.error(f"unsupported {kind} version {found}; this program reads version {version}")
        return seed, self.text()

    def end(self) -> None:
        if self.f.tell() != self.size:
            raise self.error(f"{self.size - self.f.tell()} trailing bytes after the last field")
