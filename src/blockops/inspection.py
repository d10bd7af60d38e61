"""Routing-behavior indicators: sharpness, permutation difference, fairness,
and gate trends, with CSV emission for plot-ready series.

Every indicator reads the traces that one eval-mode ``forward`` returns, so
it works on any model that speaks the model protocol (a harness bundle, an
``Smfr`` or a ``Transformer``) and can be recomputed from any checkpoint.
That forward runs under ``no_grad`` and records no autodiff graph.
The three scalar indicators are implementation-defined; the defining
formulas live in the docstrings below.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .nn import LayerTrace
from .tensor import Tensor, no_grad

__all__ = [
    "RoutingTrace",
    "extract_routing_trace",
    "attention_sharpness",
    "permutation_difference",
    "attention_fairness",
    "gate_summary",
    "write_indicator_csv",
]


@dataclass
class RoutingTrace:
    """Detached per-layer routing decisions.

    Each layer dict holds ``attention`` with the source distribution on the
    LAST axis (block-routing layers: [batch, outputs, sources]; transformer
    encoder and cross attention: [batch, heads, queries, keys]) and
    ``routed``, what the layer's routing produced (the Multiplexer's blended
    blocks; the residual stream after the attention).  Block-routing layers
    also hold ``gates`` [batch, outputs].
    """

    layers: list


def extract_routing_trace(model, inputs: np.ndarray) -> RoutingTrace:
    """Per-layer attention weights and gates for one batch, detached.

    Models whose forward returns no routing traces (the plain feedforward
    baseline) are rejected.  No autodiff graph is recorded, whatever the
    model: a bare ``Smfr`` or ``Transformer`` is run under ``no_grad`` too.
    The inputs keep their dtype, so encoded task blocks run in the trial's.
    """
    with no_grad():
        _, traces = model.forward(Tensor(np.asarray(inputs)), eval_mode=True)
    if not traces:
        raise ValueError(f"{type(model).__name__} has no routing decisions to inspect")
    if isinstance(traces[0], LayerTrace):
        return RoutingTrace([
            {"attention": np.transpose(tr.mux_weights.data, (0, 2, 1)),
             "gates": tr.gate_values.data, "routed": tr.routed.data}
            for tr in traces])
    return RoutingTrace([
        {"attention": tr.weights.data, "routed": tr.output.data}
        for tr in traces if tr.stage != "decoder_self"])


def attention_sharpness(trace: RoutingTrace) -> float:
    """Mean over every routing decision of its maximum source weight.

    1.0 exactly when every decision is one-hot; 1/sources when uniform.
    """
    maxima = [layer["attention"].max(axis=-1).reshape(-1)
              for layer in trace.layers]
    return float(np.concatenate(maxima).mean())


def attention_fairness(trace: RoutingTrace) -> float:
    """Spread of total first-layer attention mass across source blocks.

    fairness = 1 - (max - min) / total where mass is summed per source over
    all first-layer decisions (batch-averaged).  1.0 iff perfectly balanced;
    0.0 when a single source receives everything.
    """
    att = trace.layers[0]["attention"]
    flat = att.reshape(-1, att.shape[-1])
    mass = flat.sum(axis=0)
    total = mass.sum()
    if total == 0:
        return 0.0
    return float(1.0 - (mass.max() - mass.min()) / total)


def permutation_difference(model, batches) -> float:
    """Mean pairwise L2 distance between per-permutation mean activations
    taken after the first routing layer (its ``routed`` output).

    Each batch must hold one permutation group.  A model whose first layer
    exactly undoes the band permutation produces group-independent
    activations and scores 0 on identical underlying images.
    """
    if len(batches) == 0:
        raise ValueError("need at least one permutation group")
    means = []
    for batch in batches:
        inputs = batch.inputs if hasattr(batch, "inputs") else np.asarray(batch)
        data = extract_routing_trace(model, inputs).layers[0]["routed"]
        means.append(data.mean(axis=0).reshape(-1))
    if len(means) == 1:
        return 0.0
    dists = []
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            dists.append(np.linalg.norm(means[i] - means[j]))
    return float(np.mean(dists))


def gate_summary(trace: RoutingTrace) -> dict:
    """Mean gate value of each block-routing layer over the batch and its
    output blocks, keyed ``gate_mean_layer<i>``; layers without gates (the
    transformer's) have no key."""
    return {f"gate_mean_layer{i}": float(layer["gates"].mean())
            for i, layer in enumerate(trace.layers) if "gates" in layer}


def write_indicator_csv(path: str, rows: list[dict]) -> None:
    """Write indicator series rows (dicts sharing a 'step' key) as CSV."""
    if not rows:
        raise ValueError("no indicator rows to write")
    columns = ["step"] + sorted({k for row in rows for k in row} - {"step"})
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".part"
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    os.replace(tmp, path)
