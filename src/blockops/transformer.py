"""Encoder-decoder transformer baseline over block tensors.

Input blocks become encoder tokens, each output block is produced by one
learned decoder query token.  Per-token affine maps translate between the
block size d and the model width.  There is no layer norm and no dropout;
residual additions are kept.

``forward`` returns the output blocks and one ``AttentionTrace`` per
attention layer, in forward order, the way ``Smfr`` returns its routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .nn import _init_affine

__all__ = ["TransformerConfig", "Transformer", "AttentionTrace"]


@dataclass
class TransformerConfig:
    block_size: int
    input_blocks: int
    output_blocks: int
    model_width: int = 64
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    ffn_width: int = 128

    def validate(self):
        if min(self.block_size, self.input_blocks, self.output_blocks, self.model_width,
               self.num_heads, self.num_encoder_layers, self.num_decoder_layers,
               self.ffn_width) <= 0:
            raise ValueError("transformer dimensions must be positive")
        if self.model_width % self.num_heads != 0:
            raise ValueError(
                f"model_width {self.model_width} is not divisible by num_heads {self.num_heads}"
            )
        return self


@dataclass
class AttentionTrace:
    """Attention of one layer.  ``weights`` is a constant record, off the
    autodiff graph; ``output`` is the graph node of the residual stream.

    The first ``decoder_self`` layer has batch 1: every example shares its
    queries."""

    stage: str        # "encoder", "decoder_self" or "decoder_cross"
    weights: Tensor   # [batch, heads, queries, keys]
    output: Tensor    # [batch, queries, width], residual stream after the attention


class _Attention:
    """Multi-head attention; query and key/value sequences may differ.

    The key projection has no bias: a key bias adds the same ``q . bk`` to
    every score of a query row, which the softmax cancels, so its gradient
    is zero and Adam would only walk it on rounding noise."""

    def __init__(self, rng, width, heads, name):
        self.heads = heads
        self.wq = _init_affine(rng, width, width)
        self.wk = _init_affine(rng, width, width)[0]
        self.wv = _init_affine(rng, width, width)
        self.wo = _init_affine(rng, width, width)
        self.name = name

    def forward(self, queries: Tensor, keys_values: Tensor):
        """The residual stream ``queries`` plus its attention over
        ``keys_values``, and the attention weights.  Either side may have a
        leading batch of 1 that broadcasts over the other's, as the learned
        decoder queries do."""
        q = T.affine(queries, *self.wq)
        k = T.affine(keys_values, self.wk)
        v = T.affine(keys_values, *self.wv)
        mixed, weights = T.attention(q, k, v, self.heads)
        return T.affine(mixed, *self.wo, residual=queries), weights

    def parameters(self):
        n = self.name
        return {f"{n}.wq": self.wq[0], f"{n}.bq": self.wq[1], f"{n}.wk": self.wk,
                f"{n}.wv": self.wv[0], f"{n}.bv": self.wv[1],
                f"{n}.wo": self.wo[0], f"{n}.bo": self.wo[1]}


class _Ffn:
    def __init__(self, rng, width, hidden, name):
        self.l1 = _init_affine(rng, width, hidden)
        self.l2 = _init_affine(rng, hidden, width)
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        """The residual stream ``x`` plus the FFN of it."""
        h = T.leaky_relu(T.affine(x, *self.l1))
        return T.affine(h, *self.l2, residual=x)

    def parameters(self):
        return {
            f"{self.name}.w1": self.l1[0], f"{self.name}.b1": self.l1[1],
            f"{self.name}.w2": self.l2[0], f"{self.name}.b2": self.l2[1],
        }


class Transformer:
    def __init__(self, cfg: TransformerConfig, rng, name="transformer"):
        cfg.validate()
        self.cfg = cfg
        self.name = name
        w = cfg.model_width
        self.in_proj = _init_affine(rng, cfg.block_size, w)
        self.out_proj = _init_affine(rng, w, cfg.block_size)
        bound = np.sqrt(1.0 / w)
        self.pos_embed = T.parameter(
            rng.uniform(-bound, bound, size=(cfg.input_blocks, w)))
        self.queries = T.parameter(
            rng.uniform(-bound, bound, size=(cfg.output_blocks, w)))
        self.enc_attn = []
        self.enc_ffn = []
        for i in range(cfg.num_encoder_layers):
            self.enc_attn.append(_Attention(rng, w, cfg.num_heads, f"{name}.enc{i}.attn"))
            self.enc_ffn.append(_Ffn(rng, w, cfg.ffn_width, f"{name}.enc{i}.ffn"))
        self.dec_self = []
        self.dec_cross = []
        self.dec_ffn = []
        for i in range(cfg.num_decoder_layers):
            self.dec_self.append(_Attention(rng, w, cfg.num_heads, f"{name}.dec{i}.self"))
            self.dec_cross.append(_Attention(rng, w, cfg.num_heads, f"{name}.dec{i}.cross"))
            self.dec_ffn.append(_Ffn(rng, w, cfg.ffn_width, f"{name}.dec{i}.ffn"))

    def forward(self, blocks: Tensor, rng=None, eval_mode=False):
        cfg = self.cfg
        _, n, d = blocks.shape
        if n != cfg.input_blocks or d != cfg.block_size:
            raise ValueError(
                f"transformer expected [batch, {cfg.input_blocks}, {cfg.block_size}], got {blocks.shape}")
        h = T.affine(blocks, *self.in_proj, residual=self.pos_embed)
        traces = []
        for attn, ffn in zip(self.enc_attn, self.enc_ffn):
            h, w = attn.forward(h, h)
            traces.append(AttentionTrace("encoder", w, h))
            h = ffn.forward(h)
        # the queries are the same for every example, so the first decoder
        # self-attention runs once on [1, N, w]; the cross-attention and its
        # residual broadcast the stream to the batch
        dec = T.reshape(self.queries, (1, cfg.output_blocks, cfg.model_width))
        for attn_s, attn_c, ffn in zip(self.dec_self, self.dec_cross, self.dec_ffn):
            dec, w = attn_s.forward(dec, dec)
            traces.append(AttentionTrace("decoder_self", w, dec))
            dec, w = attn_c.forward(dec, h)
            traces.append(AttentionTrace("decoder_cross", w, dec))
            dec = ffn.forward(dec)
        return T.affine(dec, *self.out_proj), traces

    def parameters(self):
        out = {
            f"{self.name}.in_w": self.in_proj[0], f"{self.name}.in_b": self.in_proj[1],
            f"{self.name}.out_w": self.out_proj[0], f"{self.name}.out_b": self.out_proj[1],
            f"{self.name}.pos": self.pos_embed, f"{self.name}.queries": self.queries,
        }
        for mod_list in (self.enc_attn, self.enc_ffn, self.dec_self, self.dec_cross, self.dec_ffn):
            for mod in mod_list:
                out.update(mod.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters().values())
