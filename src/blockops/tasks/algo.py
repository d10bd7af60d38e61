"""Iterated conditional-update task over five digit variables.

Each of the five rules is a cyclic rotation of the same role assignment: the
slot playing role E receives (A+1) mod 10 when the C-role value exceeds the
D-role value and (B+1) mod 10 otherwise; the other four slots are unchanged.
Training always applies the rule exactly twice; evaluation unrolls the same
network for 1 through 9 applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batches import BLOCK_DTYPE, TaskBatch, one_hot, indicator_block

__all__ = [
    "NUM_VARS",
    "NUM_RULES",
    "rule_slots",
    "algo_apply_rule",
    "encode_algo_episode",
    "gen_algo_episode",
    "AlgoEpisode",
]

NUM_VARS = 5
NUM_RULES = 5
BLOCK_SIZE = 10


def rule_slots(rule_id: int) -> list[int]:
    """Slot index for each role (A, B, C, D, E) under the rotated assignment."""
    if not 0 <= rule_id < NUM_RULES:
        raise ValueError(f"rule_id must be in [0, {NUM_RULES}), got {rule_id}")
    return [(role + rule_id) % NUM_VARS for role in range(NUM_VARS)]


def algo_apply_rule(variables, rule_id: int) -> np.ndarray:
    """Apply one rule to [.., 5] variable arrays; touches exactly the E slot."""
    v = np.asarray(variables, dtype=np.int64)
    if v.shape[-1] != NUM_VARS:
        raise ValueError(f"expected trailing axis of {NUM_VARS} variables, got {v.shape}")
    if v.size and (v.min() < 0 or v.max() >= 10):
        raise ValueError("variables must be digits in [0, 10)")
    sa, sb, sc, sd, se = rule_slots(rule_id)
    out = v.copy()
    cond = v[..., sc] > v[..., sd]
    out[..., se] = np.where(cond, (v[..., sa] + 1) % 10, (v[..., sb] + 1) % 10)
    return out


def encode_algo_episode(initial, rule_ids) -> np.ndarray:
    """Blocks [batch, 5 + T, 10] from initial states [batch, 5] and rule ids
    [batch, T]: the five digit blocks, then one rule indicator per iteration."""
    rule_ids = np.asarray(rule_ids)
    inputs = np.empty((len(rule_ids), NUM_VARS + rule_ids.shape[1], BLOCK_SIZE),
                      dtype=BLOCK_DTYPE)
    inputs[:, :NUM_VARS] = one_hot(initial, BLOCK_SIZE)
    inputs[:, NUM_VARS:] = indicator_block(rule_ids, NUM_RULES, BLOCK_SIZE)
    return inputs


@dataclass
class AlgoEpisode:
    """Ground-truth trajectory: states [batch, T+1, 5], rules [batch, T]."""

    states: np.ndarray
    rule_ids: np.ndarray

    @property
    def initial(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def final(self) -> np.ndarray:
        return self.states[:, -1]

    @property
    def num_iterations(self) -> int:
        return self.rule_ids.shape[1]

    def batch(self) -> TaskBatch:
        """The whole episode as one batch: its encoding in, the final state
        as the target."""
        return TaskBatch(encode_algo_episode(self.initial, self.rule_ids), self.final)


def gen_algo_episode(batch_size: int, num_iterations: int,
                     rng: np.random.Generator) -> AlgoEpisode:
    if num_iterations < 1:
        raise ValueError(f"num_iterations must be >= 1, got {num_iterations}")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    states = np.empty((batch_size, num_iterations + 1, NUM_VARS), dtype=np.int64)
    states[:, 0] = rng.integers(0, 10, size=(batch_size, NUM_VARS))
    rule_ids = rng.integers(0, NUM_RULES, size=(batch_size, num_iterations))
    for t in range(num_iterations):
        # rules differ per example, apply each rule id to its own subset
        cur = states[:, t]
        nxt = cur.copy()
        for rid in range(NUM_RULES):
            mask = rule_ids[:, t] == rid
            if mask.any():
                nxt[mask] = algo_apply_rule(cur[mask], rid)
        states[:, t + 1] = nxt
    return AlgoEpisode(states, rule_ids)
