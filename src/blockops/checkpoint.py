"""Single-file checkpoint format.

Layout: an 8-byte magic, a uint64 little-endian header length, a UTF-8 JSON
header, then the raw little-endian tensor buffers back to back.  The header
records the run config echo plus name, shape, dtype, and byte offset of every
tensor, so a reader can locate buffers without parsing them all.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "MAGIC"]

MAGIC = b"BLKOPS01"


class CheckpointError(Exception):
    pass


def _le_dtype(dtype: np.dtype) -> str:
    dt = np.dtype(dtype).newbyteorder("<")
    return dt.str


def save_checkpoint(path: str, params: dict[str, Tensor], config: dict) -> None:
    """Atomically write params and a config echo to ``path``."""
    entries = []
    offset = 0
    buffers = []
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].data, dtype=np.dtype(params[name].data.dtype).newbyteorder("<"))
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": _le_dtype(arr.dtype),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        buffers.append(arr.tobytes())
        offset += arr.nbytes
    header = json.dumps({"config": config, "tensors": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for buf in buffers:
                fh.write(buf)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    """Return (tensors, config); tensors is a name -> np.ndarray dict."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        size = fh.read(8)
        if len(size) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<Q", size)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: unreadable header: {e}") from e
        if not isinstance(header, dict) or not {"tensors", "config"} <= header.keys():
            raise CheckpointError(f"{path}: header lacks 'tensors' or 'config'")
        base = fh.tell()
        tensors = {}
        for entry in header["tensors"]:
            dtype, shape = np.dtype(entry["dtype"]), entry["shape"]
            if dtype.itemsize * math.prod(shape) != entry["nbytes"]:
                raise CheckpointError(f"{path}: {entry['name']} has {entry['nbytes']} bytes, "
                                      f"not those of a {shape} {dtype} array")
            fh.seek(base + entry["offset"])
            raw = fh.read(entry["nbytes"])
            if len(raw) != entry["nbytes"]:
                raise CheckpointError(f"{path}: truncated buffer for {entry['name']}")
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
            tensors[entry["name"]] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    return tensors, header["config"]


def restore_parameters(params: dict[str, Tensor], tensors: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into an existing parameter dict, names must match."""
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise CheckpointError(f"parameter mismatch: missing {missing}, unexpected {extra}")
    for name, p in params.items():
        arr = tensors[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {arr.shape}, model {p.data.shape}")
        p.data[:] = arr
