"""Adam optimizer and global-norm gradient clipping for Tensor parameters."""

from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "adam_step", "clip_global_norm", "global_grad_norm"]


class AdamState:
    """Per-parameter first/second moments plus shared hyperparameters.

    Bias correction follows the standard formulation; ``step_count`` increases
    by exactly one per :func:`adam_step`.
    """

    def __init__(self, params, learning_rate=3e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState) -> None:
    """One Adam update over the tracked parameters; grads are consumed.

    Parameters whose grad is unset are treated as having zero gradient.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for p, m, v in zip(state.params, state.first_moment, state.second_moment):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        p.grad = None


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_global_norm(params, max_norm: float = 0.1) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the applied scale factor (1.0 when no clipping was needed).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = list(params)
    norm = global_grad_norm(params)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad *= scale
    return scale
