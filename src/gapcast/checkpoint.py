"""Flat, versioned binary checkpoints: JSON header + raw float64 array bytes.

A deliberate replacement for zip-based containers, whose embedded
timestamps break bit-exact reproducibility. Write/read round-trips are
byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .autodiff import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"GAPC"
# Version-1 files name each diffusion weight after the opposite direction,
# so they are refused rather than loaded with the directions swapped.
VERSION = 2


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


def save_checkpoint(path, params: dict[str, Tensor], meta: dict) -> None:
    """Dump named parameter arrays (with shapes) plus a JSON metadata blob."""
    arrays = []
    blobs = []
    offset = 0
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].values, dtype=np.float64)
        raw = arr.tobytes()
        arrays.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"version": VERSION, "arrays": arrays, "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict]:
    """Read back (params, meta); arrays come out as trainable tensors."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        version, header_len = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(header_len).decode())
        payload = fh.read()
    params: dict[str, Tensor] = {}
    for spec in header["arrays"]:
        start = spec["offset"]
        raw = payload[start : start + spec["nbytes"]]
        arr = np.frombuffer(raw, dtype=np.float64).reshape(spec["shape"]).copy()
        params[spec["name"]] = Tensor(arr, requires_grad=True)
    return params, header["meta"]
