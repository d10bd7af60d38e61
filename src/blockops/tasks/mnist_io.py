"""MNIST ingestion: IDX parsing, checksum-verified cache, guarded download.

Files live in a cache directory (config flag wins over the BLOCKOPS_DATA_DIR
environment variable, default ~/.cache/blockops/mnist).  Downloads only run
when explicitly allowed; everything else works from the cached files.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct

import numpy as np

__all__ = [
    "IdxFormatError",
    "MnistUnavailableError",
    "read_idx_images",
    "read_idx_labels",
    "mnist_cache_dir",
    "ensure_mnist",
    "load_mnist",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

MIRRORS = [
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
]


class IdxFormatError(Exception):
    pass


class MnistUnavailableError(Exception):
    pass


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        fh.seek(0)
        if head == b"\x1f\x8b":
            with gzip.open(fh) as gz:
                return gz.read()
        return fh.read()


def read_idx_images(path: str) -> np.ndarray:
    """Images as [count, rows, cols] float32 scaled to [0, 1]."""
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise IdxFormatError(f"{path}: truncated header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"{path}: bad image magic 0x{magic:08x}")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise IdxFormatError(f"{path}: expected {need} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    return data.reshape(count, rows, cols).astype(np.float32) / 255.0


def read_idx_labels(path: str) -> np.ndarray:
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise IdxFormatError(f"{path}: truncated header")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(f"{path}: bad label magic 0x{magic:08x}")
    if len(raw) < 8 + count:
        raise IdxFormatError(f"{path}: expected {8 + count} bytes, got {len(raw)}")
    labels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{path}: label values exceed 9")
    return labels


def mnist_cache_dir(override: str | None = None) -> str:
    if override:
        return override
    env = os.environ.get("BLOCKOPS_DATA_DIR")
    if env:
        return os.path.join(env, "mnist")
    return os.path.join(os.path.expanduser("~"), ".cache", "blockops", "mnist")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "manifest.json")


def _write_manifest(cache_dir: str) -> None:
    manifest = {name: _sha256(os.path.join(cache_dir, fname))
                for name, fname in FILES.items()}
    with open(_manifest_path(cache_dir), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _download(cache_dir: str) -> None:
    # imported here: it loads http, ssl and email, which no other path needs
    import urllib.request

    os.makedirs(cache_dir, exist_ok=True)
    for fname in FILES.values():
        dest = os.path.join(cache_dir, fname)
        if os.path.exists(dest):
            continue
        last_err = None
        for base in MIRRORS:
            url = base + fname + ".gz"
            try:
                with urllib.request.urlopen(url, timeout=60) as resp:
                    payload = gzip.decompress(resp.read())
                tmp = dest + ".part"
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, dest)
                last_err = None
                break
            except OSError as e:
                last_err = e
        if last_err is not None:
            raise MnistUnavailableError(f"could not fetch {fname}: {last_err}")
    _write_manifest(cache_dir)


def ensure_mnist(cache_dir: str | None = None, allow_download: bool = False) -> str:
    """Return a cache directory with all four files present and verified."""
    cache_dir = mnist_cache_dir(cache_dir)
    have_all = all(os.path.exists(os.path.join(cache_dir, f)) for f in FILES.values())
    if not have_all:
        if not allow_download:
            raise MnistUnavailableError(
                f"MNIST files not found in {cache_dir}; pass allow_download "
                "(CLI: --allow-download) or place the IDX files there")
        _download(cache_dir)
    manifest_file = _manifest_path(cache_dir)
    if os.path.exists(manifest_file):
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        for name, fname in FILES.items():
            if name in manifest and _sha256(os.path.join(cache_dir, fname)) != manifest[name]:
                raise MnistUnavailableError(f"{fname} does not match its recorded checksum")
    else:
        _write_manifest(cache_dir)
    return cache_dir


def load_mnist(cache_dir: str | None = None, allow_download: bool = False) -> dict:
    """Full dataset dict: train/test images [N, 28, 28] in [0,1] and labels."""
    cache_dir = ensure_mnist(cache_dir, allow_download)
    out = {
        "train_images": read_idx_images(os.path.join(cache_dir, FILES["train_images"])),
        "train_labels": read_idx_labels(os.path.join(cache_dir, FILES["train_labels"])),
        "test_images": read_idx_images(os.path.join(cache_dir, FILES["test_images"])),
        "test_labels": read_idx_labels(os.path.join(cache_dir, FILES["test_labels"])),
    }
    for split in ("train", "test"):
        n_img = len(out[f"{split}_images"])
        n_lab = len(out[f"{split}_labels"])
        if n_img != n_lab:
            raise IdxFormatError(f"{split}: {n_img} images but {n_lab} labels")
    return out
