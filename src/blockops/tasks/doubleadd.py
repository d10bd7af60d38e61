"""Double-addition task: two digit pairs, a task bit selects which pair to sum.

The first pair is drawn uniformly over all 100 combinations; the second pair
only ever comes from the limited set during training.  OOD evaluation asks
for the second pair's sum on pairs outside the limited set.
"""

from __future__ import annotations

import numpy as np

from .batches import BLOCK_DTYPE, EncodedRows, TaskBatch, one_hot, indicator_block
from .addmul import full_pairs, limited_pairs

__all__ = [
    "encode_doubleadd",
    "gen_doubleadd_batch",
    "doubleadd_train_set",
    "doubleadd_ood_set",
]

BLOCK_SIZE = 10
NUM_TASKS = 2

_FULL_PAIRS = np.asarray(full_pairs(), dtype=np.int64)
# the limited second pairs of each split orientation
_LIMITED_PAIRS = {split: np.asarray(limited_pairs(split), dtype=np.int64)
                  for split in (False, True)}


def encode_doubleadd(p1, p2, task_ids) -> np.ndarray:
    """Blocks [batch, 5, 10] from digit pairs ``p1`` and ``p2`` ([batch, 2])
    and task ids: the four digits, then the task indicator."""
    inputs = np.empty((len(task_ids), 5, BLOCK_SIZE), dtype=BLOCK_DTYPE)
    inputs[:, 0:2] = one_hot(p1, BLOCK_SIZE)
    inputs[:, 2:4] = one_hot(p2, BLOCK_SIZE)
    inputs[:, 4] = indicator_block(task_ids, NUM_TASKS, BLOCK_SIZE)
    return inputs


def _batch(p1, p2, task, inputs) -> TaskBatch:
    sums = np.where(task == 0, p1.sum(axis=1) % 10, p2.sum(axis=1) % 10)
    return TaskBatch(inputs, sums[:, None], metadata={"task": task, "p2": p2})


def _eval_set(p2, task) -> TaskBatch:
    """Every first pair with each row of ``p2`` and ``task``, first pairs
    outermost, kept as integers and encoded per chunk."""
    n1, n2 = len(_FULL_PAIRS), len(p2)
    p1, p2, task = np.repeat(_FULL_PAIRS, n2, axis=0), np.tile(p2, (n1, 1)), np.tile(task, n1)
    return _batch(p1, p2, task, EncodedRows(encode_doubleadd, p1, p2, task))


def gen_doubleadd_batch(batch_size: int, rng: np.random.Generator,
                        alternate_split: bool = False) -> TaskBatch:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    lim = _LIMITED_PAIRS[alternate_split]
    p1 = rng.integers(0, 10, size=(batch_size, 2))
    p2 = lim[rng.integers(0, len(lim), size=batch_size)]
    task = rng.integers(0, NUM_TASKS, size=batch_size)
    return _batch(p1, p2, task, encode_doubleadd(p1, p2, task))


def doubleadd_train_set(alternate_split: bool = False) -> TaskBatch:
    """Exhaustive training distribution: 100 first pairs x 25 limited second
    pairs x 2 tasks = 5000 rows."""
    lim = _LIMITED_PAIRS[alternate_split]
    return _eval_set(np.repeat(lim, NUM_TASKS, axis=0), np.tile(np.arange(NUM_TASKS), len(lim)))


def doubleadd_ood_set(alternate_split: bool = False) -> TaskBatch:
    """Task 1 with the second pair outside the limited set: 100 x 75 rows.

    Metadata counts how many of the pair's digits left their trained digit
    range (``out_of_range``, 1 or 2).  Rows with one digit still in range
    have sums disjoint from everything trained with that digit held fixed;
    rows with both out of range carry no such constraint.
    """
    lim = _LIMITED_PAIRS[alternate_split]
    kept = (_FULL_PAIRS[:, None] == lim[None]).all(axis=2).any(axis=1)
    outside = _FULL_PAIRS[~kept]
    batch = _eval_set(outside, np.ones(len(outside), dtype=np.int64))
    p2 = batch.metadata["p2"]
    batch.metadata["out_of_range"] = (
        (~np.isin(p2[:, 0], lim[:, 0])).astype(np.int64)
        + (~np.isin(p2[:, 1], lim[:, 1])).astype(np.int64))
    return batch
