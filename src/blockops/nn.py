"""Block-routing network modules.

The activation currency between modules is a block tensor: a batch of B
uniformly sized blocks of d values, held as a Tensor of shape [batch, B, d].

* ``Fnn`` — plain feedforward network (affine + leaky-relu, affine output).
* ``Multiplexer`` — emits each of its N output blocks as a convex combination
  of the M input blocks; combination weights come from an internal FNN over
  the concatenated input, normalized per output block across the inputs.
* ``Fnnr`` — gated-residual feedforward stage: an internal FNN proposes one
  candidate block plus one gate logit per block, and each output interpolates
  the incoming block with its candidate through a sigmoid gate.  The gate
  values come back as a constant record; the gate logits stay on the graph.
* ``Mfnnr`` — a Multiplexer followed by an Fnnr that also sees the
  pre-Multiplexer blocks as context.
* ``Smfr`` — a stack of Mfnnr modules; the FNN replacement evaluated in the
  experiments.  ``forward(blocks, rng=None, eval_mode=False)`` returns the
  output blocks and one ``LayerTrace`` per layer, the protocol the
  Transformer baseline shares.

Weight initialization is uniform in +/- sqrt(1/fan_in) with zero biases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "FnnConfig",
    "SmfrConfig",
    "Fnn",
    "Multiplexer",
    "Fnnr",
    "Mfnnr",
    "Smfr",
    "LayerTrace",
    "routing_regularization_loss",
    "fnn_parameter_count",
    "smfr_parameter_count",
    "force_copy_routing",
]

SOFTMAX = "softmax"
GUMBEL_ST = "gumbel_st"


@dataclass
class FnnConfig:
    input_size: int
    output_size: int
    hidden_widths: list[int] = field(default_factory=list)

    def validate(self):
        if self.input_size <= 0 or self.output_size <= 0:
            raise ValueError("FnnConfig sizes must be positive")
        if any(w <= 0 for w in self.hidden_widths):
            raise ValueError("FnnConfig hidden widths must be positive")
        return self


@dataclass
class SmfrConfig:
    block_size: int
    input_blocks: int
    output_blocks: int
    stack_width: int
    stack_depth: int
    fnn_hidden: list[int] = field(default_factory=lambda: [100])
    attention: str = SOFTMAX
    no_context: bool = False
    gumbel_temperature: float = 1.0

    def validate(self):
        if min(self.block_size, self.input_blocks, self.output_blocks, self.stack_width) <= 0:
            raise ValueError("SmfrConfig block counts and sizes must be positive")
        if self.stack_depth < 0:
            raise ValueError("stack_depth must be >= 0 (0 means a single block layer)")
        if self.attention not in (SOFTMAX, GUMBEL_ST):
            raise ValueError(f"unknown attention kind {self.attention!r}")
        if any(w <= 0 for w in self.fnn_hidden):
            raise ValueError("fnn_hidden widths must be positive")
        return self

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(input blocks, output blocks) for each stacked layer.

        Depth 0 is a single layer straight from input blocks to output
        blocks; otherwise the first layer widens to ``stack_width``, the
        last narrows to ``output_blocks``.
        """
        if self.stack_depth == 0:
            return [(self.input_blocks, self.output_blocks)]
        shapes = [(self.input_blocks, self.stack_width)]
        shapes += [(self.stack_width, self.stack_width)] * (self.stack_depth - 1)
        shapes.append((self.stack_width, self.output_blocks))
        return shapes


def _init_affine(rng: np.random.Generator, fan_in: int, fan_out: int):
    bound = np.sqrt(1.0 / fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = np.zeros(fan_out)
    return T.parameter(w), T.parameter(b)


class Fnn:
    """Affine layers with leaky-relu between them; the final layer is linear."""

    def __init__(self, rng, cfg: FnnConfig, name="fnn"):
        cfg.validate()
        self.cfg = cfg
        self.name = name
        self.layers = []
        widths = [cfg.input_size] + list(cfg.hidden_widths) + [cfg.output_size]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            self.layers.append(_init_affine(rng, fan_in, fan_out))

    def forward(self, x: Tensor) -> Tensor:
        """[batch, input_size] to [batch, output_size]; one ``affine`` node
        per layer."""
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = T.affine(h, w, b)
            if i != last:
                h = T.leaky_relu(h)
        return h

    def parameters(self):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"{self.name}.w{i}"] = w
            out[f"{self.name}.b{i}"] = b
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())


@dataclass
class LayerTrace:
    """Routing decisions of one Mfnnr layer.  The logits stay on the autodiff
    graph so the saturation regularizer can reach them."""

    mux_weights: Tensor   # [batch, M, N], post-normalization
    mux_logits: Tensor    # [batch, M, N], raw
    gate_values: Tensor   # [batch, N], post-sigmoid, a constant record
    gate_logits: Tensor   # [batch, N], raw
    routed: Tensor        # [batch, N, d], the Multiplexer's blended blocks


class Multiplexer:
    def __init__(self, rng, n_in, n_out, block_size, fnn_hidden, attention=SOFTMAX,
                 temperature=1.0, name="mux"):
        self.n_in = n_in
        self.n_out = n_out
        self.block_size = block_size
        self.attention = attention
        self.temperature = temperature
        self.fnn = Fnn(rng, FnnConfig(n_in * block_size, n_in * n_out, list(fnn_hidden)),
                       name=f"{name}.fnn")

    def forward(self, blocks: Tensor, rng=None, eval_mode=False):
        batch = blocks.shape[0]
        if blocks.shape[1] != self.n_in or blocks.shape[2] != self.block_size:
            raise ValueError(
                f"multiplexer expected [batch, {self.n_in}, {self.block_size}], got {blocks.shape}"
            )
        flat = T.reshape(blocks, (batch, self.n_in * self.block_size))
        logits = T.reshape(self.fnn.forward(flat), (batch, self.n_in, self.n_out))
        if self.attention == SOFTMAX:
            weights = T.softmax(logits, axis=1)
        elif eval_mode:
            weights = T.hard_argmax(logits, axis=1)
        else:
            if rng is None:
                raise ValueError("gumbel attention needs an rng for its noise draw")
            weights = T.gumbel_softmax_st(logits, axis=1, temperature=self.temperature, rng=rng)
        return T.mix(weights, blocks), weights, logits

    def parameters(self):
        return self.fnn.parameters()


class Fnnr:
    def __init__(self, rng, n_blocks, block_size, context_blocks, fnn_hidden, name="fnnr"):
        self.n_blocks = n_blocks
        self.block_size = block_size
        self.context_blocks = context_blocks
        in_size = (n_blocks + context_blocks) * block_size
        out_size = n_blocks * block_size + n_blocks
        self.fnn = Fnn(rng, FnnConfig(in_size, out_size, list(fnn_hidden)), name=f"{name}.fnn")

    def forward(self, routed: Tensor, context: Tensor | None):
        batch, n, d = routed.shape
        if n != self.n_blocks or d != self.block_size:
            raise ValueError(f"fnnr expected [batch, {self.n_blocks}, {self.block_size}], got {routed.shape}")
        if self.context_blocks:
            if context is None:
                raise ValueError("fnnr was built with context blocks but none were given")
            flat = T.reshape(T.concat([routed, context], axis=1),
                             (batch, (n + self.context_blocks) * d))
        else:
            flat = T.reshape(routed, (batch, n * d))
        trunk = self.fnn.forward(flat)
        gate_logits = T.slice_axis(trunk, 1, n * d, n * d + n)
        out, gates = T.gate(routed, trunk, gate_logits)
        return out, gates, gate_logits

    def parameters(self):
        return self.fnn.parameters()


class Mfnnr:
    """Multiplexer followed by an Fnnr that sees the original input as context."""

    def __init__(self, rng, n_in, n_out, block_size, fnn_hidden, attention=SOFTMAX,
                 no_context=False, temperature=1.0, name="mfnnr"):
        self.mux = Multiplexer(rng, n_in, n_out, block_size, fnn_hidden, attention,
                               temperature, name=f"{name}.mux")
        self.fnnr = Fnnr(rng, n_out, block_size, 0 if no_context else n_in,
                         fnn_hidden, name=f"{name}.fnnr")
        self.no_context = no_context

    def forward(self, blocks: Tensor, rng=None, eval_mode=False):
        routed, weights, mux_logits = self.mux.forward(blocks, rng=rng, eval_mode=eval_mode)
        out, gates, gate_logits = self.fnnr.forward(routed, None if self.no_context else blocks)
        return out, LayerTrace(weights, mux_logits, gates, gate_logits, routed)

    def parameters(self):
        out = dict(self.mux.parameters())
        out.update(self.fnnr.parameters())
        return out


class Smfr:
    def __init__(self, cfg: SmfrConfig, rng, name="smfr"):
        cfg.validate()
        self.cfg = cfg
        self.name = name
        self.layers = [
            Mfnnr(rng, m, n, cfg.block_size, cfg.fnn_hidden, cfg.attention,
                  cfg.no_context, cfg.gumbel_temperature, name=f"{name}.layer{i}")
            for i, (m, n) in enumerate(cfg.layer_shapes())
        ]

    def forward(self, blocks: Tensor, rng=None, eval_mode=False):
        traces = []
        h = blocks
        for layer in self.layers:
            h, trace = layer.forward(h, rng=rng, eval_mode=eval_mode)
            traces.append(trace)
        return h, traces

    def parameters(self):
        out = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())


def routing_regularization_loss(traces, threshold: float = 20.0) -> Tensor:
    """Squared excess beyond the threshold band, summed over every logit.

    Each routing or gate logit outside [-threshold, threshold] contributes
    the squared distance to its clamped value; in-band logits contribute
    nothing.  The sum is not normalized: averaging over entry counts (which
    include the batch dimension) scales the restoring gradient on a violator
    down by the tensor size, and measured against the task gradients that
    lets logits coast past the threshold for thousands of steps.  Applied
    per violating entry the penalty overpowers anything the task loss can
    say about that logit, which is the behavior the threshold is for.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return T.band_excess([t for tr in traces for t in (tr.mux_logits, tr.gate_logits)],
                         threshold)


def max_abs_routing_logit(traces) -> float:
    """Largest |logit| over every Multiplexer and gate logit in the traces."""
    peak = 0.0
    for tr in traces:
        peak = max(peak, float(np.abs(tr.mux_logits.data).max()),
                   float(np.abs(tr.gate_logits.data).max()))
    return peak


def fnn_parameter_count(input_size: int, hidden_widths, output_size: int) -> int:
    widths = [input_size] + list(hidden_widths) + [output_size]
    return sum(fi * fo + fo for fi, fo in zip(widths[:-1], widths[1:]))


def smfr_parameter_count(cfg: SmfrConfig) -> int:
    """Closed-form scalar-parameter count (weights and biases).

    Per layer with M inputs and N outputs: the Multiplexer FNN maps M*d to
    M*N and the Fnnr FNN maps (N + context)*d to N*d + N, both through the
    shared hidden widths.
    """
    cfg.validate()
    d = cfg.block_size
    total = 0
    for m, n in cfg.layer_shapes():
        total += fnn_parameter_count(m * d, cfg.fnn_hidden, m * n)
        context = 0 if cfg.no_context else m
        total += fnn_parameter_count((n + context) * d, cfg.fnn_hidden, n * d + n)
    return total


def force_copy_routing(smfr: Smfr, routing: list[list[int]], logit: float = 1000.0) -> None:
    """Overwrite routing so each layer hard-copies chosen input blocks.

    ``routing[layer][n]`` names the input block that output block n of that
    layer must copy.  The final affine layer of each internal FNN is zeroed
    and its bias set to saturated logits, which drives the normalized weights
    to exact one-hots and the gates to exactly one (at the default magnitude
    the off-logits underflow to zero weight in double precision).
    """
    if len(routing) != len(smfr.layers):
        raise ValueError(f"need one routing list per layer ({len(smfr.layers)}), got {len(routing)}")
    for layer, picks in zip(smfr.layers, routing):
        m, n = layer.mux.n_in, layer.mux.n_out
        if len(picks) != n or any(not 0 <= p < m for p in picks):
            raise ValueError(f"routing picks must name one of {m} inputs for each of {n} outputs")
        w, b = layer.mux.fnn.layers[-1]
        w.data[:] = 0.0
        bias = np.zeros((m, n), dtype=b.data.dtype)
        for out_block, src in enumerate(picks):
            bias[src, out_block] = logit
        b.data[:] = bias.reshape(-1)
        w2, b2 = layer.fnnr.fnn.layers[-1]
        w2.data[:] = 0.0
        b2.data[:] = 0.0
        b2.data[n * layer.fnnr.block_size:] = logit
