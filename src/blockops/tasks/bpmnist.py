"""Band-permuted MNIST: images cut into four 7-row bands, band order permuted.

Eight permutations of the four bands are built from two disjoint cyclic Latin
squares, so each band appears in each position exactly twice across the set.
Four permutations are designated validation and four test; each test
permutation has one digit held out of training entirely.

Orientation convention: a permutation p maps block position to source band,
``blocks[b] = band[p[b]]``, so indexing blocks by argsort(p) reconstructs the
image, and routing that sends input block p^-1(n) to output block n undoes
the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batches import BLOCK_DTYPE, EncodedRows, TaskBatch, indicator_block

__all__ = [
    "NUM_BANDS",
    "NUM_PERMS",
    "BLOCK_SIZE",
    "PermutationSet",
    "build_permutation_set",
    "balance_matrix",
    "image_to_bands",
    "permute_bands",
    "encode_bpmnist",
    "draw_train_rows",
    "bpmnist_rows",
    "gen_bpmnist_train_batch",
    "bpmnist_eval_sets",
]

NUM_BANDS = 4
NUM_PERMS = 8
BAND_ROWS = 7
BLOCK_SIZE = BAND_ROWS * 28  # 196


@dataclass
class PermutationSet:
    """8 band permutations; the first four are validation, last four test."""

    perms: np.ndarray                      # [8, 4] int, position -> source band
    holdout: dict = field(default_factory=dict)  # test perm index -> excluded digit

    def validate(self):
        if self.perms.shape != (NUM_PERMS, NUM_BANDS):
            raise ValueError(f"need {NUM_PERMS} permutations of {NUM_BANDS}, got {self.perms.shape}")
        for p in self.perms:
            if sorted(p.tolist()) != list(range(NUM_BANDS)):
                raise ValueError(f"{p} is not a permutation of {NUM_BANDS} elements")
        if len(np.unique(self.perms, axis=0)) != NUM_PERMS:
            raise ValueError("permutations must be distinct")
        if not np.all(balance_matrix(self.perms) == NUM_PERMS // NUM_BANDS):
            raise ValueError("permutation set is not position-balanced")
        if sorted(self.holdout) != list(self.test_ids):
            raise ValueError("exactly the test permutations need a holdout digit")
        if any(not 0 <= d < 10 for d in self.holdout.values()):
            raise ValueError("holdout digits must be in [0, 10)")
        return self

    @property
    def validation_ids(self):
        return range(0, NUM_PERMS // 2)

    @property
    def test_ids(self):
        return range(NUM_PERMS // 2, NUM_PERMS)


def balance_matrix(perms) -> np.ndarray:
    """counts[band, position] of band appearing at position across the set."""
    perms = np.asarray(perms)
    counts = np.zeros((NUM_BANDS, NUM_BANDS), dtype=np.int64)
    for p in perms:
        for pos, band in enumerate(p):
            counts[band, pos] += 1
    return counts


def build_permutation_set(rng: np.random.Generator) -> PermutationSet:
    """Two disjoint 4x4 cyclic Latin squares give the balanced set of eight."""
    forward = np.array([[(r + c) % NUM_BANDS for c in range(NUM_BANDS)]
                        for r in range(NUM_BANDS)])
    backward = np.array([[(r - c) % NUM_BANDS for c in range(NUM_BANDS)]
                         for r in range(1, NUM_BANDS + 1)])
    perms = np.concatenate([forward, backward], axis=0)
    perms = perms[rng.permutation(NUM_PERMS)]
    pset = PermutationSet(perms)
    digits = rng.choice(10, size=len(list(pset.test_ids)), replace=False)
    pset.holdout = {pid: int(d) for pid, d in zip(pset.test_ids, digits)}
    return pset.validate()


def image_to_bands(images: np.ndarray) -> np.ndarray:
    """[N, 28, 28] -> [N, 4, 196], band i holding rows 7i..7i+6."""
    n = images.shape[0]
    if images.shape[1:] != (28, 28):
        raise ValueError(f"expected 28x28 images, got {images.shape}")
    return images.reshape(n, NUM_BANDS, BLOCK_SIZE)


def permute_bands(bands: np.ndarray, perm) -> np.ndarray:
    perm = np.asarray(perm)
    return bands[:, perm]


def encode_bpmnist(images: np.ndarray, perm_ids: np.ndarray, pset: PermutationSet,
                   indicator: bool = True, dtype=BLOCK_DTYPE) -> np.ndarray:
    """Blocks [N, 5, 196] (4 permuted bands + indicator), or [N, 4, 196],
    written into one array."""
    bands = image_to_bands(np.asarray(images))
    perm_ids = np.asarray(perm_ids, dtype=np.int64)
    blocks = np.empty((len(perm_ids), NUM_BANDS + bool(indicator), BLOCK_SIZE), dtype=dtype)
    if indicator:
        blocks[:, NUM_BANDS] = indicator_block(perm_ids, NUM_PERMS, BLOCK_SIZE, dtype=dtype)
    rows, sources = np.arange(len(perm_ids)), pset.perms[perm_ids]
    for pos in range(NUM_BANDS):
        blocks[:, pos] = bands[rows, sources[:, pos]]
    return blocks


def _excluded(pset: PermutationSet, perm_ids, labels) -> np.ndarray:
    out = np.zeros(len(perm_ids), dtype=bool)
    for pid, digit in pset.holdout.items():
        out |= (perm_ids == pid) & (labels == digit)
    return out


def draw_train_rows(pset: PermutationSet, labels, batch_size: int,
                    rng: np.random.Generator):
    """Image indices and permutation ids drawn uniformly over (image,
    permutation) minus the held-out combinations."""
    labels = np.asarray(labels)
    idx = rng.integers(0, len(labels), size=batch_size)
    perm_ids = rng.integers(0, NUM_PERMS, size=batch_size)
    bad = _excluded(pset, perm_ids, labels[idx])
    while bad.any():
        n = int(bad.sum())
        idx[bad] = rng.integers(0, len(labels), size=n)
        perm_ids[bad] = rng.integers(0, NUM_PERMS, size=n)
        bad = _excluded(pset, perm_ids, labels[idx])
    return idx, perm_ids


def _batch(inputs, labels, idx, perm_ids) -> TaskBatch:
    return TaskBatch(inputs, np.asarray(labels)[idx][:, None].astype(np.int64),
                     metadata={"perm_id": perm_ids, "index": idx})


def bpmnist_rows(pset: PermutationSet, images, labels, idx, perm_ids,
                 indicator: bool = True) -> TaskBatch:
    """The rows (image ``idx``, permutation ``perm_ids``) as an evaluation
    set, kept as those integers and encoded per chunk."""
    def encode(rows, perms):
        return encode_bpmnist(images[rows], perms, pset, indicator)
    return _batch(EncodedRows(encode, idx, perm_ids), labels, idx, perm_ids)


def gen_bpmnist_train_batch(pset: PermutationSet, images, labels, batch_size: int,
                            rng: np.random.Generator, indicator: bool = True) -> TaskBatch:
    """A training batch of ``draw_train_rows``, encoded at once."""
    idx, perm_ids = draw_train_rows(pset, labels, batch_size, rng)
    return _batch(encode_bpmnist(images[idx], perm_ids, pset, indicator),
                  labels, idx, perm_ids)


def bpmnist_eval_sets(pset: PermutationSet, images, labels, role: str,
                      indicator: bool = True, limit: int | None = None,
                      rng: np.random.Generator | None = None):
    """Per-permutation eval batches for one role, each kept as image indices
    and a permutation id (``bpmnist_rows``).

    role: "validation" (first four perms, all digits), "test" (last four, all
    digits), or "holdout" (last four, each restricted to its held-out digit).
    A limit subsamples images per permutation with the given rng.
    """
    labels = np.asarray(labels)
    if role == "validation":
        pairs = [(pid, None) for pid in pset.validation_ids]
    elif role == "test":
        pairs = [(pid, None) for pid in pset.test_ids]
    elif role == "holdout":
        pairs = [(pid, pset.holdout[pid]) for pid in pset.test_ids]
    else:
        raise ValueError(f"unknown eval role {role!r}")
    batches = []
    for pid, digit in pairs:
        idx = np.arange(len(labels)) if digit is None else np.flatnonzero(labels == digit)
        if limit is not None and len(idx) > limit:
            if rng is None:
                raise ValueError("limit needs an rng for subsampling")
            idx = idx[rng.permutation(len(idx))[:limit]]
        perm_ids = np.full(len(idx), pid, dtype=np.int64)
        batches.append(bpmnist_rows(pset, images, labels, idx, perm_ids, indicator))
    return batches
