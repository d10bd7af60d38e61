"""How fast the current CPU runs small-array Python work, measured right now.

On a shared host the speed of a core changes by up to a factor of two over
minutes as other tenants come and go, and the workloads slow with it.  ``loop_time`` times a fixed loop of the same kind
of work as the blockops autodiff core (chained small numpy ops through
Python objects and closures, then a backward walk over them); ``run.py``
runs it on a unit's CPU just before and just after the unit.  The loop is
frozen here and never calls blockops, so a change to blockops never changes
it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the loop's time on an idle core of the host the baseline was measured on
# (2-vCPU Intel Xeon VM, numpy 2.4.6, one BLAS thread)
REFERENCE_S = 0.00022
# the workloads' times go as the loop time to this power: fitted on two sets
# of ten runs per workload, where it gave the steadiest medians on all three
# (README.md, "Host speed and noise")
EXPONENT = 0.6
SECONDS = 0.25


class _Node:
    __slots__ = ("value", "backward")

    def __init__(self, value, backward):
        self.value = value
        self.backward = backward


def _layer(h, w):
    a = h @ w
    b = np.maximum(a, 0.01 * a)
    e = np.exp(b - b.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        g = s * (g - (g * s).sum(axis=1, keepdims=True))
        return np.where(a > 0, g, 0.01 * g) @ w.T

    return _Node(s, backward)


def _pass(x, w) -> np.ndarray:
    nodes = []
    h = x
    for _ in range(8):
        nodes.append(_layer(h, w))
        h = nodes[-1].value
    g = np.ones_like(h)
    for node in reversed(nodes):
        g = node.backward(g)
    return g


def loop_time(seconds: float = SECONDS) -> float:
    """Median time of one pass of the loop, over ``seconds`` of passes."""
    rng = np.random.default_rng(0)
    x, w = rng.random((64, 8)), rng.random((8, 8))
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        _pass(x, w)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, loop_s: float) -> float:
    """A time measured while the loop took ``loop_s``, at the reference speed."""
    return seconds * (REFERENCE_S / loop_s) ** EXPONENT
