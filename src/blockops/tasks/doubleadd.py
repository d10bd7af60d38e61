"""Double-addition task: two digit pairs, a task bit selects which pair to sum.

The first pair is drawn uniformly over all 100 combinations; the second pair
only ever comes from the limited set during training.  OOD evaluation asks
for the second pair's sum on pairs outside the limited set.
"""

from __future__ import annotations

import numpy as np

from .batches import TaskBatch, one_hot, indicator_block
from .addmul import full_pairs, limited_pairs

__all__ = [
    "encode_doubleadd",
    "gen_doubleadd_batch",
    "doubleadd_train_set",
    "doubleadd_ood_set",
]

BLOCK_SIZE = 10
NUM_TASKS = 2

# the limited second pairs of each split orientation
_LIMITED_PAIRS = {split: np.asarray(limited_pairs(split), dtype=np.int64)
                  for split in (False, True)}


def encode_doubleadd(p1, p2, task_ids) -> np.ndarray:
    """Blocks [batch, 5, 10] from digit pairs ``p1`` and ``p2`` ([batch, 2])
    and task ids: the four digits, then the task indicator."""
    inputs = np.empty((len(task_ids), 5, BLOCK_SIZE))
    inputs[:, 0:2] = one_hot(p1, BLOCK_SIZE)
    inputs[:, 2:4] = one_hot(p2, BLOCK_SIZE)
    inputs[:, 4] = indicator_block(task_ids, NUM_TASKS, BLOCK_SIZE)
    return inputs


def _batch(p1, p2, task) -> TaskBatch:
    sums = np.where(task == 0, p1.sum(axis=1) % 10, p2.sum(axis=1) % 10)
    return TaskBatch(encode_doubleadd(p1, p2, task), sums[:, None],
                     metadata={"task": task, "p2": p2})


def _batch_from_rows(rows) -> TaskBatch:
    arr = np.asarray(rows, dtype=np.int64)
    return _batch(arr[:, 0:2], arr[:, 2:4], arr[:, 4])


def gen_doubleadd_batch(batch_size: int, rng: np.random.Generator,
                        alternate_split: bool = False) -> TaskBatch:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    lim = _LIMITED_PAIRS[alternate_split]
    p1 = rng.integers(0, 10, size=(batch_size, 2))
    p2 = lim[rng.integers(0, len(lim), size=batch_size)]
    task = rng.integers(0, NUM_TASKS, size=batch_size)
    return _batch(p1, p2, task)


def doubleadd_train_set(alternate_split: bool = False) -> TaskBatch:
    """Exhaustive training distribution: 100 first pairs x 25 limited second
    pairs x 2 tasks = 5000 rows."""
    rows = [(a1, b1, a2, b2, t)
            for a1, b1 in full_pairs()
            for a2, b2 in limited_pairs(alternate_split)
            for t in range(NUM_TASKS)]
    return _batch_from_rows(rows)


def doubleadd_ood_set(alternate_split: bool = False) -> TaskBatch:
    """Task 1 with the second pair outside the limited set: 100 x 75 rows.

    Metadata counts how many of the pair's digits left their trained digit
    range (``out_of_range``, 1 or 2).  Rows with one digit still in range
    have sums disjoint from everything trained with that digit held fixed;
    rows with both out of range carry no such constraint.
    """
    kept = set(limited_pairs(alternate_split))
    a_seen = {a for a, _ in kept}
    b_seen = {b for _, b in kept}
    outside = [p for p in full_pairs() if p not in kept]
    rows = [(a1, b1, a2, b2, 1)
            for a1, b1 in full_pairs()
            for a2, b2 in outside]
    batch = _batch_from_rows(rows)
    p2 = batch.metadata["p2"]
    batch.metadata["out_of_range"] = (
        (~np.isin(p2[:, 0], sorted(a_seen))).astype(np.int64)
        + (~np.isin(p2[:, 1], sorted(b_seen))).astype(np.int64))
    return batch
