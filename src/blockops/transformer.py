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
    """Attention of one layer, kept on the autodiff graph like ``LayerTrace``.

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
        self.width = width
        self.heads = heads
        self.head_dim = width // heads
        self.wq = _init_affine(rng, width, width)
        self.wk = _init_affine(rng, width, width)[0]
        self.wv = _init_affine(rng, width, width)
        self.wo = _init_affine(rng, width, width)
        self.name = name

    def _split(self, x: Tensor, batch, seq):
        # [batch, seq, width] -> [batch, heads, seq, head_dim]
        x = T.reshape(x, (batch, seq, self.heads, self.head_dim))
        return T.transpose(x, (0, 2, 1, 3))

    def forward(self, queries: Tensor, keys_values: Tensor):
        # either side may have a leading batch of 1 that broadcasts over the
        # other's, as the learned decoder queries do
        q_batch, q_len, _ = queries.shape
        kv_batch, kv_len, _ = keys_values.shape
        q = self._split(T.affine(queries, *self.wq), q_batch, q_len)
        k = self._split(T.matmul(keys_values, self.wk), kv_batch, kv_len)
        v = self._split(T.affine(keys_values, *self.wv), kv_batch, kv_len)
        scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(self.head_dim))
        weights = T.softmax(scores, axis=3)
        mixed = T.matmul(weights, v)
        batch = mixed.shape[0]
        mixed = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (batch, q_len, self.width))
        return T.affine(mixed, *self.wo), weights

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
        h = T.leaky_relu(T.affine(x, *self.l1))
        return T.affine(h, *self.l2)

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
        h = T.affine(blocks, *self.in_proj)
        h = h + T.reshape(self.pos_embed, (1, cfg.input_blocks, cfg.model_width))
        traces = []
        for attn, ffn in zip(self.enc_attn, self.enc_ffn):
            a, w = attn.forward(h, h)
            h = h + a
            traces.append(AttentionTrace("encoder", w, h))
            h = h + ffn.forward(h)
        # the queries are the same for every example, so the first decoder
        # self-attention runs once on [1, N, w]; the cross-attention and its
        # residual add broadcast the stream to the batch
        dec = T.reshape(self.queries, (1, cfg.output_blocks, cfg.model_width))
        for attn_s, attn_c, ffn in zip(self.dec_self, self.dec_cross, self.dec_ffn):
            a, w = attn_s.forward(dec, dec)
            dec = dec + a
            traces.append(AttentionTrace("decoder_self", w, dec))
            a, w = attn_c.forward(dec, h)
            dec = dec + a
            traces.append(AttentionTrace("decoder_cross", w, dec))
            dec = dec + ffn.forward(dec)
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
