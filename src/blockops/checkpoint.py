"""Checkpoints as numpy ``.npz`` archives.

One archive member per parameter, named after it, plus ``__config__``: the
run's config echo as a 0-d JSON string array.  Loading never unpickles, and
the zip CRCs reject a file whose bytes changed after it was written.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile

import numpy as np

from .tensor import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

CONFIG_MEMBER = "__config__"


class CheckpointError(Exception):
    pass


def save_checkpoint(path: str, params: dict[str, Tensor], config: dict) -> None:
    """Atomically write params and a config echo to ``path``."""
    arrays = {name: params[name].data for name in sorted(params)}
    arrays[CONFIG_MEMBER] = np.array(json.dumps(config, sort_keys=True))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    """Return (tensors, config); tensors is a name -> np.ndarray dict."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path}: a bare array, not a checkpoint archive")
        with archive:
            tensors = {name: archive[name] for name in archive.files}
        if CONFIG_MEMBER not in tensors:
            raise CheckpointError(f"{path}: archive has no {CONFIG_MEMBER} member")
        # NpzFile hands back a member that is not a .npy array as raw bytes
        foreign = sorted(n for n, a in tensors.items() if not isinstance(a, np.ndarray))
        if foreign:
            raise CheckpointError(f"{path}: members {foreign} are not arrays")
        config = json.loads(str(tensors.pop(CONFIG_MEMBER)))
    except (FileNotFoundError, CheckpointError):
        raise
    except (EOFError, ValueError, zipfile.BadZipFile, OSError) as e:
        raise CheckpointError(f"{path}: not a readable checkpoint archive: {e}") from e
    return tensors, config


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
