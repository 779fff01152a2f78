"""Versioned binary parameter container.

Layout: the magic string "SERANN", a little-endian u16 format version, a u32
blob count, then per blob: u16 name length + UTF-8 name, a u8 dtype code
(0 = float32, 1 = float64), a u8 rank, u32 dims, and the raw little-endian
float data in C order. Blobs are written in sorted name order so identical
parameters always serialize to identical bytes.

Arrays move between the file and memory without a staging copy. Saving
hands the header pieces and each array's own buffer to ``atomic_write``.
Loading reads the header fields one at a time and ``readinto``s each blob
straight into a fresh array; a blob's byte count, counted in Python ints,
is checked against the file's size before the array is allocated, so a
damaged header is a ``CheckpointError`` naming the file, never an
allocation of the size it claims.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict
from typing import Mapping

import numpy as np

from ..fileio import atomic_write, read_config, write_json
from .tensor import Tensor

MAGIC = b"SERANN"
FORMAT_VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointError(ValueError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


def save_checkpoint(path, blobs: Mapping[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<HI", FORMAT_VERSION, len(blobs))]
    for name in sorted(blobs):
        arr = np.asarray(blobs[name])
        if arr.dtype not in _CODE_FOR_KIND:
            raise CheckpointError(
                f"blob {name!r} has unsupported dtype {arr.dtype}; use float32 or float64"
            )
        encoded = name.encode("utf-8")
        parts.append(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                                 _CODE_FOR_KIND[arr.dtype], arr.ndim, *arr.shape))
        # A view unless the array is strided or big-endian.
        parts.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
    atomic_write(path, parts)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size

        def truncated(start: int, need: int) -> CheckpointError:
            return CheckpointError(
                f"{path}: truncated at byte {size} (a field needs bytes {start}..{start + need})"
            )

        def take(need: int) -> int:
            """Claim the next ``need`` bytes, which must all be in the file."""
            nonlocal off
            if off + need > size:
                raise truncated(off, need)
            off += need
            return off - need

        def read(need: int) -> bytes:
            start = take(need)
            data = handle.read(need)
            if len(data) != need:  # the file shrank while being read
                raise truncated(start, need)
            return data

        if handle.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a parameter container (bad magic)")
        off = len(MAGIC)
        (version,) = struct.unpack("<H", read(2))
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version} is not supported (expected {FORMAT_VERSION})"
            )
        (count,) = struct.unpack("<I", read(4))
        blobs: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            start = off
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: blob name at byte {start} is not UTF-8") from exc
            if name in blobs:
                raise CheckpointError(f"{path}: blob {name!r} appears twice")
            code, ndim = struct.unpack("<BB", read(2))
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"{path}: blob {name!r} has unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            dtype = _DTYPE_CODES[code]
            start = take(math.prod(shape) * dtype.itemsize)
            try:
                arr = np.empty(shape, dtype)
            except ValueError as exc:  # a rank numpy cannot hold
                raise CheckpointError(f"{path}: blob {name!r}: {exc}") from exc
            if handle.readinto(arr) != arr.nbytes:
                raise truncated(start, arr.nbytes)
            blobs[name] = arr
        if off != size:
            raise CheckpointError(f"{path}: {size - off} trailing bytes after last blob")
    return blobs


def _assign(params: Mapping[str, Tensor], blobs: Mapping[str, np.ndarray], copy: bool) -> None:
    missing = sorted(set(params) - set(blobs))
    extra = sorted(set(blobs) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match checkpoint (missing={missing[:3]}, unexpected={extra[:3]})"
        )
    for name, tensor in params.items():
        blob = blobs[name]
        if tuple(blob.shape) != tuple(tensor.shape):
            raise CheckpointError(
                f"blob {name!r} shape {tuple(blob.shape)} does not match model shape {tuple(tensor.shape)}"
            )
        tensor.data = blob.astype(tensor.dtype, copy=copy)


def load_into(params: Mapping[str, Tensor], blobs: Mapping[str, np.ndarray]) -> None:
    """Copy checkpoint blobs into model parameters, names and shapes checked."""
    _assign(params, blobs, copy=True)


class _NoDraws:
    """Stands in for ``Rng`` while ``Checkpointable.load`` builds a model
    whose every parameter the file replaces: it hands out uninitialised
    arrays and draws nothing."""

    def spawn(self, tag: str) -> "_NoDraws":
        return self

    def uniform(self, low: float, high: float, shape, dtype=np.float32) -> np.ndarray:
        return np.empty(shape, dtype)


class Checkpointable:
    """Model file support: the parameter blob at ``path`` plus the model's
    configuration in a ``<path>.config.json`` sidecar that sets every field.

    Subclasses name their config dataclass in ``config_type``, build from
    ``(config, rng)`` and expose ``params()``.
    ``load`` calls that constructor with ``_NoDraws`` for ``rng``, so a
    constructor draws through ``spawn`` and ``uniform`` only, and checks the
    values it drew only when ``rng`` is an ``Rng``.
    """

    config_type: type

    def save(self, path) -> None:
        save_checkpoint(path, {name: t.data for name, t in self.params().items()})
        write_json(f"{path}.config.json", asdict(self.config))

    @classmethod
    def load(cls, path):
        model = cls(read_config(cls.config_type, f"{path}.config.json"), _NoDraws())
        blobs = load_checkpoint(path)
        # The blobs were just read and nothing else holds them, so
        # parameters of the file's dtype take them without a copy. The
        # model was built from the sidecar, so a mismatch is between the two.
        try:
            _assign(model.params(), blobs, copy=False)
        except CheckpointError as exc:
            raise CheckpointError(
                f"{path}: {exc}: the container and its sidecar {path}.config.json disagree"
            ) from exc
        return model
