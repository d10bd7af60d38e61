"""Adam optimizer and global-norm gradient clipping for Tensor parameters."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["AdamState", "adam_step", "clip_global_norm", "global_grad_norm"]


class AdamState:
    """First and second moments plus shared hyperparameters.

    The parameters live in one flat array and their gradients in another,
    ``grad``: construction copies each parameter's values and gradient into
    them and rebinds its ``data`` and ``grad`` to its views, so backward
    adds into the buffer until it is zeroed and one update covers every
    parameter.  Code that changes a parameter or its gradient afterwards
    writes in place (``p.data[...] =``); rebinding either would cut it off
    from the optimizer.  The moments and two scratch buffers are flat arrays
    of the same size.  Bias correction follows the standard formulation;
    ``step_count`` increases by exactly one per :func:`adam_step`.
    """

    def __init__(self, params, learning_rate=3e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        offsets = np.cumsum([0] + [p.data.size for p in self.params])
        self.flat = np.empty(offsets[-1], dtypes.pop() if dtypes else np.float64)
        self.grad = np.empty_like(self.flat)
        self.first_moment = np.zeros_like(self.flat)
        self.second_moment = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        for p, lo, hi in zip(self.params, offsets[:-1], offsets[1:]):
            view = self.flat[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            grad = self.grad[lo:hi].reshape(view.shape)
            grad[...] = p.grad
            p.grad = grad


def adam_step(state: AdamState) -> None:
    """One Adam update of every tracked parameter from ``state.grad``.

    The update runs over the flat buffers, operation for operation in the
    order of the per-parameter formula ``m = b1 m + (1 - b1) g``, ``v = b2 v
    + (1 - b2) g^2``, ``p -= lr m_hat / (sqrt(v_hat) + eps)``.  The
    gradients are left as they are; the caller zeroes ``state.grad`` before
    the next backward pass.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    g, m, v = state.grad, state.first_moment, state.second_moment
    step, denom = state._scratch
    m *= b1
    np.multiply(g, 1.0 - b1, out=step)
    m += step
    v *= b2
    np.multiply(g, g, out=step)
    step *= 1.0 - b2
    v += step
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= state.learning_rate
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step /= denom
    state.flat -= step


def global_grad_norm(state: AdamState) -> float:
    """The L2 norm of every tracked gradient together, as a Python float."""
    return math.sqrt(float(np.dot(state.grad, state.grad)))


def clip_global_norm(state: AdamState, max_norm: float = 0.1) -> float:
    """Scale ``state.grad`` in place so its L2 norm is at most ``max_norm``.

    Returns the applied scale factor (1.0 when no clipping was needed) as a
    Python float, so the scaled gradients keep their dtype.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(state)
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    state.grad *= scale
    return scale
