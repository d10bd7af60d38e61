"""Reference ops for the bitwise tests of the fused nodes.

``matmul``, ``transpose``, ``sub`` and ``sigmoid`` are the engine nodes the
fused ``affine``, ``attention``, ``mix``, ``gate`` and ``band_excess`` nodes
replaced, with their code unchanged apart from the ``T.`` prefix on the
engine's helpers.  The composed forms below chain them as the models did
before the fusion, so a test can compare a fused node with them bit for bit.
``block_cross_entropy`` is the harness's loss from before
``cross_entropy_loss`` took logit blocks, unchanged.
"""

import numpy as np

from blockops import tensor as T
from blockops.tensor import Tensor


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g, a.data.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(-g, b.data.shape))

    return T._make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of the trailing two axes; leading axes broadcast.

    Covers the plain 2-D case as well as the batched form used by block
    mixing ([batch, N, M] @ [batch, M, d]).  A weight applied to every token
    is an ``affine``.  Backward forms only the gradients of operands that
    require one.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            T._accumulate(a, T._unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            T._accumulate(b, T._unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return T._make(data, (a, b), backward)


def sigmoid(x: Tensor) -> Tensor:
    # exp of minus the magnitude never overflows: 1/(1+e^-d) for d >= 0 and
    # e^d/(1+e^d) below, each with the same bits as computing it alone
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        T._accumulate(x, g * out * (1.0 - out))

    return T._make(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inverse = [0] * len(axes)
    for i, a in enumerate(axes):
        inverse[a] = i

    def backward(g):
        T._accumulate(x, g.transpose(inverse))

    return T._make(data, (x,), backward)


def mix(weights: Tensor, blocks: Tensor) -> Tensor:
    """The Multiplexer's block mix as the models spelled it before ``mix``."""
    return matmul(transpose(weights, (0, 2, 1)), blocks)


def gate(routed: Tensor, trunk: Tensor):
    """The Fnnr's gated blend as the models spelled it before ``gate``, in
    nine nodes: ``(out, gates, gate_logits)``."""
    batch, n, d = routed.shape
    candidates = T.reshape(T.slice_axis(trunk, 1, 0, n * d), (batch, n, d))
    gate_logits = T.slice_axis(trunk, 1, n * d, n * d + n)
    gates = sigmoid(gate_logits)
    g = T.reshape(gates, (batch, n, 1))
    one_minus_g = sub(Tensor(np.asarray(1.0, dtype=g.dtype)), g)
    out = T.add(T.mul(g, routed), T.mul(one_minus_g, candidates))
    return out, gates, gate_logits


def band_excess(xs, threshold: float) -> Tensor:
    """The routing penalty as the models spelled it before ``band_excess``:
    ``sum_all(mul(diff, diff))`` per tensor, summed by a chain of ``add``."""
    acc = None
    for x in xs:
        diff = sub(x, Tensor(np.clip(x.data, -threshold, threshold)))
        term = T.sum_all(T.mul(diff, diff))
        acc = term if acc is None else T.add(acc, term)
    return acc


def block_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean CE over every target block; logits [b, N, d] or [b, d]."""
    if len(logits.shape) == 3:
        b, n, d = logits.shape
        flat = T.reshape(logits, (b * n, d))
        return T.cross_entropy_loss(flat, targets.reshape(-1))
    return T.cross_entropy_loss(logits, targets.reshape(-1))
