"""Shared batch containers and block encoders for the experiment tasks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BLOCK_DTYPE", "TaskBatch", "EncodedRows", "one_hot", "indicator_block"]

# the dtype of every encoded block, and so of every trial: the parameters,
# the optimizer state and the checkpoints follow it
BLOCK_DTYPE = np.float32


class EncodedRows:
    """Block inputs kept as the integer columns that define their rows.

    ``encode(*columns)`` turns row-aligned columns into blocks [rows, B, d].
    A slice encodes only the rows it selects, so an evaluation that reads
    one chunk at a time never holds the whole encoding; any other index, or
    ``np.asarray``, encodes every row.  An encoder that works row by row
    gives every chunk the same bits as those rows of the whole encoding.
    """

    def __init__(self, encode, *columns):
        self.encode = encode
        self.columns = columns
        self.shape = (len(columns[0]),) + encode(*(c[:1] for c in columns)).shape[1:]
        self.ndim = len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.encode(*(c[key] for c in self.columns))
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None):
        blocks = self.encode(*self.columns)
        return blocks if dtype is None else blocks.astype(dtype, copy=False)


@dataclass
class TaskBatch:
    """Inputs as a block tensor [batch, blocks, block_size] (an array, or
    ``EncodedRows`` for an evaluation set), integer targets [batch,
    target_blocks], and free-form metadata (pair values, permutation ids
    and the like) for oracles and inspection."""

    inputs: np.ndarray | EncodedRows
    targets: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be [batch, blocks, block_size], got {self.inputs.shape}")
        if self.targets.ndim != 2 or self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError(f"targets must be [batch, target_blocks], got {self.targets.shape}")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def _identity_rows(values, num_valid: int, size: int, dtype) -> np.ndarray:
    """Rows of the ``size`` identity picked by ``values``, each of which
    must lie in [0, ``num_valid``)."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >= num_valid):
        raise ValueError(f"values out of range [0, {num_valid})")
    return np.eye(size, dtype=dtype).take(values.astype(np.int64, copy=False), axis=0)


def one_hot(values, num_classes: int, dtype=BLOCK_DTYPE) -> np.ndarray:
    """One-hot encode an integer array along a trailing new axis."""
    return _identity_rows(values, num_classes, num_classes, dtype)


def indicator_block(ids, num_ids: int, block_size: int, dtype=BLOCK_DTYPE) -> np.ndarray:
    """One-hot over ``num_ids`` zero-padded (never truncated) to block size."""
    if num_ids > block_size:
        raise ValueError(f"cannot fit {num_ids} indicator states in a block of {block_size}")
    return _identity_rows(ids, num_ids, block_size, dtype)
