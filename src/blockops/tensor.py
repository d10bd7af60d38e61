"""Dense tensors with reverse-mode automatic differentiation.

Every value flowing through a model is a :class:`Tensor` wrapping a numpy
array.  Operations record their parents and a backward closure; calling
``backward()`` on a scalar loss topologically sorts the recorded graph and
adds gradients into the buffer that each reachable :func:`parameter` owns.
Inside ``with no_grad():`` operations record nothing: their results are plain
constant tensors, so an evaluation forward keeps no graph alive.

The engine is deliberately small: dense arrays, static shapes apart from the
batch dimension, CPU only.  It is dtype-generic: every op computes in its
operands' dtype, and a number it lifts to a constant takes the other
operand's.  Trials run in float32 (the harness casts its parameters and the
encoders emit float32 blocks); the gradient checks against central finite
differences run in float64, where they are meaningful, and ``tensor()``
defaults to it.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "parameter",
    "add",
    "mul",
    "affine",
    "attention",
    "mix",
    "gate",
    "leaky_relu",
    "log",
    "softmax",
    "gumbel_softmax_st",
    "cross_entropy_loss",
    "reshape",
    "concat",
    "slice_axis",
    "sum_all",
    "band_excess",
    "no_grad",
]

# read by _make; off inside no_grad()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Evaluate without recording: every op inside returns a constant tensor
    with no parents and no backward closure.  Leaf parameters keep
    ``requires_grad``; only the graph between them and the results is gone."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A node in the autodiff graph.

    ``data`` is always a numpy array.  ``grad``, laid out like ``data``, is
    the buffer a leaf parameter owns and every backward pass adds into; an
    intermediate node holds one only while a backward pass runs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        # a numpy scalar (an op on 0-d arrays returns one) keeps its dtype;
        # Python numbers and lists become float64
        self.data = (data if isinstance(data, np.ndarray)
                     else np.asarray(data, dtype=getattr(data, "dtype", np.float64)))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Reverse-mode pass from this scalar.

        Gradients add into the ``grad`` buffer of every leaf on the path;
        a leaf the pass does not reach keeps its buffer as it was.  An
        intermediate node's ``grad`` is dropped as soon as its own backward
        has run, so after the pass only leaves hold one.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        # Iterative DFS; model graphs for deep unrolls exceed the recursion limit.
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad = None

    # Operator sugar; scalars are promoted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __radd__(self, other):
        return add(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __rmul__(self, other):
        return mul(_lift(other, self.dtype), self)

    def __neg__(self):
        return mul(self, _lift(-1.0, self.dtype))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


def parameter(data) -> Tensor:
    """A trainable leaf that owns its gradient buffer from the start."""
    t = Tensor(np.asarray(data), requires_grad=True)
    # -0.0 is IEEE's additive identity: -0.0 + x has the bits of x, signed
    # zeros included, so a first gradient lands as it is (+0.0 + -0.0 = +0.0)
    t.grad = np.full_like(t.data, -0.0)
    return t


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data, parents, backward_fn) -> Tensor:
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=tuple(parents),
                              _backward_fn=backward_fn)
    return Tensor(data)


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad`` under the ownership rule.

    Backward closures hand the same array to several operands (``add`` gives
    ``g`` itself to both), so a gradient buffer may be shared.  A node's
    first gradient is therefore adopted as it is, and later ones are added
    out of place; a node never writes into a buffer it was handed.  Adoption
    needs ``g`` to have the node's shape and dtype and both arrays to be
    C-contiguous: a strided gradient would send later BLAS calls down
    another path and change the bits.  A leaf adds in place into the buffer
    it owns, from :func:`parameter` or its view of the optimizer's gradient
    buffer (``AdamState``).  Every buffer has the memory layout of
    ``t.data``.
    """
    if not t.requires_grad:
        return
    if t._backward_fn is None:
        t.grad += g
    elif t.grad is None:
        if (g.shape == t.data.shape and g.dtype == t.data.dtype
                and g.flags.c_contiguous and t.data.flags.c_contiguous):
            t.grad = g
        else:
            t.grad = np.empty_like(t.data)
            np.copyto(t.grad, g)
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.data))


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None,
           residual: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for ``x`` of shape [..., k], a 2-D ``w`` and an optional
    1-D ``b``, as one node; with ``residual``, ``residual + (x @ w + b)``.

    The bias is added in place to the fresh product and its gradient is
    ``g`` summed over every leading axis, so a 2-D ``x`` gives the bits of
    a product node followed by an ``add`` of ``b``.  A batched ``x`` gets
    its weight gradient as one 2-D product over the flattened leading axes.
    A residual must broadcast to the product.  It gives the bits of
    ``add(residual, affine(x, w, b))``: it is added in place, and it gets
    its gradient first, ahead of the product's operands, as that ``add``
    would give it.
    """
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or (b is not None and b.data.shape != w.data.shape[1:])):
        raise ValueError(f"affine expects [..., k] @ [k, m] + [m], got {x.data.shape} @ "
                         f"{w.data.shape} + {None if b is None else b.data.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data
    if residual is not None:
        if np.broadcast_shapes(residual.data.shape, data.shape) != data.shape:
            raise ValueError(f"affine residual {residual.data.shape} does not broadcast "
                             f"to the product {data.shape}")
        data += residual.data

    def backward(g):
        if residual is not None and residual.requires_grad:
            _accumulate(residual, _unbroadcast(g, residual.data.shape))
        if b is not None:
            _accumulate(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            k, n = w.data.shape
            _accumulate(w, x.data.reshape(-1, k).T @ g.reshape(-1, n))

    # the residual first, so a backward pass reaches it where it reached add's
    parents = (x, w) if b is None else (x, w, b)
    return _make(data, parents if residual is None else (residual, *parents), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head scaled dot-product attention as one node: ``(mixed, weights)``
    for queries ``q`` [batch, n, width] and keys and values ``k``, ``v``
    [batch, m, width], split into ``heads`` heads of ``width // heads``.

    ``weights`` [batch, heads, n, m], a constant record, is the softmax over
    the keys of each head's ``q @ k^T / sqrt(width // heads)``; ``mixed``
    [batch, n, width] is ``weights @ v`` with the heads merged.  Either side
    may have a batch of 1 that broadcasts over the other's.

    Forward and backward give the bits of the composed ops: the head split
    (a reshape and a transpose), the score product, the scale, the softmax,
    the mix product and the head merge, in their order.  The split and the
    merge of the mix are views.  Each operand gets its gradient in the model
    layout, in the order q, k, v, as the split nodes gave it.  Backward keeps
    only the operands and the weights, and reads ``g`` through the head
    split's view.
    """
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 3 or kd.ndim != 3 or kd.shape != vd.shape or qd.shape[2] != kd.shape[2]
            or qd.shape[2] % heads
            or (qd.shape[0] != kd.shape[0] and 1 not in (qd.shape[0], kd.shape[0]))):
        raise ValueError(f"attention expects q [b, n, w] and k, v [b, m, w] with w divisible "
                         f"by {heads} heads, got {qd.shape}, {kd.shape}, {vd.shape}")
    batch = max(qd.shape[0], kd.shape[0])
    n, width = qd.shape[1:]
    dim = width // heads
    scale = 1.0 / np.sqrt(dim)

    def split(x):
        # [b, s, width] -> [b, heads, s, dim], a view
        return x.reshape(x.shape[0], x.shape[1], heads, dim).transpose(0, 2, 1, 3)

    def merge(x):
        # [b, heads, s, dim] -> [b, s, width]
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], width)

    qh, kh, vh = split(qd), split(kd), split(vd)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    weights = _softmax_data(scores, -1)
    data = np.empty((batch, n, width), dtype=np.result_type(weights, vd))
    np.matmul(weights, vh, out=split(data))

    def backward(g):
        gm = split(g)
        if q.requires_grad or k.requires_grad:
            gs = _softmax_grad(gm @ vh.swapaxes(-1, -2), weights, -1)
            gs *= scale
        if q.requires_grad:
            _accumulate(q, merge(_unbroadcast(gs @ kh, qh.shape)))
        if k.requires_grad:
            gkt = _unbroadcast(qh.swapaxes(-1, -2) @ gs, kh.swapaxes(-1, -2).shape)
            _accumulate(k, merge(gkt.swapaxes(-1, -2)))
        if v.requires_grad:
            _accumulate(v, merge(_unbroadcast(weights.swapaxes(-1, -2) @ gm, vh.shape)))

    return _make(data, (q, k, v), backward), Tensor(weights)


def mix(weights: Tensor, blocks: Tensor) -> Tensor:
    """The Multiplexer's block mix as one node: output block n of each
    example is ``sum_m weights[m, n] * blocks[m]``, for ``weights``
    [batch, M, N] and ``blocks`` [batch, M, d], giving [batch, N, d].

    Forward and backward give the bits of a transpose of ``weights``
    followed by a batched product.  The weights are read through a
    transposed view, and their gradient ``g @ blocks^T`` is swapped back,
    so ``_accumulate`` copies it into the weights' layout.
    """
    wd, bd = weights.data, blocks.data
    if wd.ndim != 3 or bd.ndim != 3 or wd.shape[:2] != bd.shape[:2]:
        raise ValueError(f"mix expects weights [b, M, N] and blocks [b, M, d], "
                         f"got {wd.shape} and {bd.shape}")
    data = wd.swapaxes(-1, -2) @ bd

    def backward(g):
        if weights.requires_grad:
            _accumulate(weights, (g @ bd.swapaxes(-1, -2)).swapaxes(-1, -2))
        if blocks.requires_grad:
            _accumulate(blocks, wd @ g)

    return _make(data, (weights, blocks), backward)


def gate(routed: Tensor, trunk: Tensor, logits: Tensor) -> tuple[Tensor, Tensor]:
    """The Fnnr's gated blend as one node: ``(out, gates)`` for ``routed``
    [batch, n, d], the FNN output ``trunk`` [batch, n*d + n] whose first
    ``n*d`` columns are the candidate blocks, and the gate ``logits``
    [batch, n].

    ``gates`` [batch, n], a constant record, is the sigmoid of the logits;
    ``out`` is ``g * routed + (1 - g) * candidates`` with each block's gate
    ``g``.  The sigmoid takes ``exp`` of minus the magnitude, which never
    overflows: ``1/(1+e^-x)`` for ``x >= 0`` and ``e^x/(1+e^x)`` below,
    each with the bits of computing it alone.  Forward and backward give
    the bits of the composed slices, reshapes, sigmoid, products,
    difference and sum.  ``trunk`` gets the candidates' gradient in a
    zero-filled buffer of its shape, and ``logits`` the sigmoid's gradient
    of ``sum_d(g_out * routed) - sum_d(g_out * candidates)``.
    """
    batch, n, d = routed.data.shape
    if trunk.data.shape != (batch, n * d + n) or logits.data.shape != (batch, n):
        raise ValueError(f"gate expects routed [b, n, d], trunk [b, n*d + n] and logits "
                         f"[b, n], got {routed.data.shape}, {trunk.data.shape} and "
                         f"{logits.data.shape}")
    candidates = trunk.data[:, :n * d].reshape(batch, n, d)
    x = logits.data
    e = np.exp(-np.abs(x))
    gates = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    g3 = gates.reshape(batch, n, 1)
    rest = 1.0 - g3
    data = g3 * routed.data
    data += rest * candidates

    def backward(g):
        if routed.requires_grad:
            _accumulate(routed, g * g3)
        if trunk.requires_grad:
            full = np.zeros_like(trunk.data)
            full[:, :n * d] = (g * rest).reshape(batch, n * d)
            _accumulate(trunk, full)
        if logits.requires_grad:
            kept = (g * routed.data).sum(axis=2)
            kept -= (g * candidates).sum(axis=2)
            _accumulate(logits, kept * gates * (1.0 - gates))

    return _make(data, (routed, trunk, logits), backward), Tensor(gates)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    # max(slope * x, x) is x where x >= 0 and slope * x below, -0 included,
    # written into the one array the op allocates
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    data = x.data * slope
    np.maximum(data, x.data, out=data)

    def backward(g):
        # g times the factor the mask x >= 0 indexes: a gather and one product,
        # where a masked copy would branch on every element
        factors = np.array([slope, 1.0], dtype=g.dtype)
        gx = factors.take((x.data >= 0).view(np.uint8))
        gx *= g
        _accumulate(x, gx)

    return _make(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g):
        _accumulate(x, g / x.data)

    return _make(data, (x,), backward)


def _softmax_data(data: np.ndarray, axis: int) -> np.ndarray:
    if axis in (-1, data.ndim - 1):
        # numpy reduces a contiguous axis one row at a time; over the last axis
        # (the Transformer's few keys) the elementwise max of its columns is far
        # faster, and exact
        top = data[..., :1].copy()
        for i in range(1, data.shape[-1]):
            np.maximum(top, data[..., i:i + 1], out=top)
    else:
        top = data.max(axis=axis, keepdims=True)
    out = data - top
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """``(g - sum(g * out)) * out`` along ``axis``, in one array."""
    gx = g * out
    inner = gx.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=gx)
    gx *= out
    return gx


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {x.data.shape}")
    out = _softmax_data(x.data, axis)

    def backward(g):
        _accumulate(x, _softmax_grad(g, out, axis))

    return _make(out, (x,), backward)


def gumbel_softmax_st(logits: Tensor, axis: int, temperature: float, rng: np.random.Generator) -> Tensor:
    """Straight-through Gumbel-softmax.

    Forward value is an exact one-hot along ``axis`` selecting the argmax of
    the noise-perturbed logits; the backward pass uses the gradient of the
    underlying soft distribution at the same draw.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not -logits.data.ndim <= axis < logits.data.ndim:
        raise ValueError(f"gumbel axis {axis} invalid for shape {logits.data.shape}")
    eps = 1e-20
    # drawn in float64 whatever the logits' dtype, so the routing stream does
    # not depend on it, and cast, so the noise does not upcast the logits
    u = rng.random(size=logits.data.shape)
    noise = (-np.log(-np.log(u + eps) + eps)).astype(logits.data.dtype, copy=False)
    perturbed = (logits.data + noise) / temperature
    soft = _softmax_data(perturbed, axis)
    hard = np.zeros_like(soft)
    idx = np.argmax(perturbed, axis=axis)
    np.put_along_axis(hard, np.expand_dims(idx, axis), 1.0, axis=axis)

    def backward(g):
        gx = _softmax_grad(g, soft, axis)
        gx /= temperature
        _accumulate(logits, gx)

    return _make(hard, (logits,), backward)


def hard_argmax(logits: Tensor, axis: int) -> Tensor:
    """Noise-free one-hot argmax; used as the evaluation-time form of
    straight-through attention.  Not differentiable (treated as constant)."""
    hard = np.zeros_like(logits.data)
    idx = np.argmax(logits.data, axis=axis)
    np.put_along_axis(hard, np.expand_dims(idx, axis), 1.0, axis=axis)
    return Tensor(hard)


def cross_entropy_loss(logits: Tensor, target_index) -> Tensor:
    """Mean softmax cross-entropy over logits [..., classes], with integer
    targets shaped like the leading axes.  It runs on the logits read as
    [rows, classes], a view, so a 2-D ``logits`` is the plain batch loss."""
    targets = np.asarray(target_index, dtype=np.int64)
    if logits.data.ndim == 0 or targets.shape != logits.data.shape[:-1]:
        raise ValueError(f"targets {targets.shape} do not match the leading axes of "
                         f"logits {logits.data.shape}")
    c = logits.data.shape[-1]
    rows = logits.data.reshape(-1, c)
    targets = targets.reshape(-1)
    n = len(targets)
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= c:
        raise ValueError("target indices out of range")
    shifted = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    data = np.asarray(-log_probs[np.arange(n), targets].mean(), dtype=logits.data.dtype)

    def backward(g):
        probs = np.exp(log_probs)
        probs[np.arange(n), targets] -= 1.0
        _accumulate(logits, (g * probs / n).reshape(logits.data.shape))

    return _make(data, (logits,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(data, (x,), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = [0]
    for t in tensors:
        offsets.append(offsets[-1] + t.data.shape[axis])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(data, tensors, backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    data = x.data[sl]

    def backward(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        _accumulate(x, full)

    return _make(data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(data, (x,), backward)


def band_excess(xs, threshold: float) -> Tensor:
    """Sum over every tensor in ``xs`` of the squared distance to
    ``[-threshold, threshold]``, as one node.  Each tensor's term has the
    bits of ``sum_all(mul(diff, diff))`` with ``diff = x - clip(x)``, whose
    backward adds ``g * diff`` twice, and the terms are summed left to
    right, as a chain of ``add`` nodes would sum them."""
    xs = list(xs)
    diffs = [x.data - np.clip(x.data, -threshold, threshold) for x in xs]
    terms = [(diff * diff).sum() for diff in diffs]
    data = np.asarray(sum(terms[1:], terms[0]), dtype=xs[0].data.dtype)

    def backward(g):
        for x, diff in zip(xs, diffs):
            if x.requires_grad:
                gd = g * diff
                _accumulate(x, gd + gd)

    return _make(data, xs, backward)
