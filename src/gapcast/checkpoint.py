"""Flat, versioned binary checkpoints: JSON header + raw float64 array bytes.

A deliberate replacement for zip-based containers, whose embedded
timestamps break bit-exact reproducibility. Write/read round-trips are
byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import math
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
    """Read back (params, meta); arrays come out as trainable tensors.

    A truncated file, a header that is not JSON or lacks a field, a shape
    that is not a list of whole numbers >= 0, an array whose bytes disagree
    with its shape, a parameter that is not finite, or a name given to two
    arrays raises CheckpointError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        preamble = fh.read(8)
        if len(preamble) != 8:
            raise CheckpointError(f"truncated checkpoint: {len(preamble)} of 8 preamble bytes")
        version, header_len = struct.unpack("<II", preamble)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise CheckpointError(f"checkpoint header is not JSON: {err}") from None
        payload = fh.read()
    params: dict[str, Tensor] = {}
    try:
        for spec in header["arrays"]:
            name, start, nbytes = spec["name"], spec["offset"], spec["nbytes"]
            if name in params:
                raise CheckpointError(f"array {name!r} appears twice in the header")
            shape = spec["shape"]
            if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
                raise CheckpointError(f"array {name!r} has a malformed shape {shape!r}")
            if nbytes != 8 * math.prod(shape):
                raise CheckpointError(
                    f"array {name!r}: {nbytes} bytes for shape {shape}"
                )
            if not 0 <= start <= len(payload) - nbytes:
                raise CheckpointError(
                    f"array {name!r} runs past the {len(payload)}-byte payload"
                )
            raw = payload[start : start + nbytes]
            arr = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"array {name!r} has non-finite values")
            params[name] = Tensor(arr, requires_grad=True)
        meta = header["meta"]
    except (KeyError, TypeError) as err:
        raise CheckpointError(f"malformed checkpoint header: {err!r}") from None
    return params, meta
