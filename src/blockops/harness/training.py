"""Model bundles, evaluation, the training loop, and the four experiments.

Every network speaks one protocol, ``forward(blocks, rng=None, eval_mode=False)
-> (blocks, traces)``, from a block tensor [batch, B, d] to output blocks
[batch, N, d] plus its routing traces.  A ``ModelBundle`` is the one place
that feeds task inputs to the network; digit tasks read each output block
directly as 10-class logits, the image task applies a trainable affine head
to one output block.  An eval-mode forward records no autodiff graph, so
evaluation holds only the arrays it is computing.  Every task trains through
one loop, ``_train``, which owns the step, the evaluation cadence, early
stopping and the fields every metrics record shares (loss, penalty, routing
logits, the window's training ms per step and its evaluation ms); a task
supplies its batch loss, its evaluation, a stop predicate and its summary.

Randomness is split into independent streams (init, data, routing noise,
eval, probe) spawned from the config seed, so trials are bit-reproducible.
"""

from __future__ import annotations

import ast
import contextlib
import ctypes
import hashlib
import os
import sys
import time

import numpy as np

from .. import tensor as T
from ..tensor import Tensor
from ..nn import (
    Fnn, FnnConfig, LayerTrace, Smfr, SmfrConfig,
    routing_regularization_loss, max_abs_routing_logit,
)
from ..transformer import Transformer, TransformerConfig
from ..optim import AdamState, adam_step, clip_global_norm
from ..checkpoint import save_checkpoint
from ..tasks.batches import BLOCK_DTYPE, TaskBatch
from ..tasks import addmul as addmul_task
from ..tasks import doubleadd as doubleadd_task
from ..tasks import algo as algo_task
from ..tasks import bpmnist as bpmnist_task
from ..tasks.mnist_io import load_mnist
from .config import ExperimentConfig, config_hash
from .metrics import MetricsWriter, results_path

__all__ = [
    "build_model",
    "replay_init",
    "ModelBundle",
    "evaluate_accuracy",
    "apply_smfr_bias",
    "code_fingerprint",
    "run_trial",
]

TASK_SHAPES = {
    # experiment -> (input blocks, output blocks, block size)
    "addmul": (3, 1, 10),
    "doubleadd": (5, 1, 10),
    "algo": (6, 5, 10),
}


def _build_net(cfg: ExperimentConfig, shape, rng):
    n_in, n_out, d = shape
    m = cfg.model
    if m.kind == "smfr":
        return Smfr(SmfrConfig(
            block_size=d, input_blocks=n_in, output_blocks=n_out,
            stack_width=m.stack_width, stack_depth=m.stack_depth,
            fnn_hidden=list(m.fnn_hidden), attention=m.attention,
            no_context=cfg.variants.no_context, gumbel_temperature=m.gumbel_temperature,
        ), rng)
    if m.kind == "fnn":
        return Fnn(rng, FnnConfig(n_in * d, n_out * d, list(m.hidden_widths)))
    return Transformer(TransformerConfig(
        block_size=d, input_blocks=n_in, output_blocks=n_out,
        model_width=m.model_width, num_heads=m.num_heads,
        num_encoder_layers=m.encoder_layers, num_decoder_layers=m.decoder_layers,
        ffn_width=m.ffn_width,
    ), rng)


class ModelBundle:
    """The network, an optional classifier head, their optimizer, and for
    algo's ``noisy_permutation`` variant one fixed scramble of the flattened
    input values, so that blocks no longer line up with the variables.

    A trial computes in ``BLOCK_DTYPE`` (float32), the dtype the encoders
    emit: the parameters are drawn from the init stream in float64 and then
    rounded to it, so the draws do not depend on the dtype.  The optimizer
    state and the checkpoints follow the parameters."""

    def __init__(self, cfg: ExperimentConfig, shape, init_rng):
        self.cfg = cfg
        self.shape = shape
        self.net = _build_net(cfg, shape, init_rng)
        self.head = None
        if cfg.experiment == "bpmnist":
            d = shape[2]
            self.head = Fnn(init_rng, FnnConfig(d, 10, []), name="head")
        self.permutation = None
        if cfg.variants.noisy_permutation:
            n_in, _, d = shape
            self.permutation = init_rng.permutation(n_in * d)
            # scrambled[:, j] = flat[:, perm[j]], as a product with a constant weight
            scramble = np.eye(n_in * d, dtype=BLOCK_DTYPE)[:, self.permutation]
            self._scramble = Tensor(scramble.copy())
        self.params = dict(self.net.parameters())
        if self.head is not None:
            self.params.update(self.head.parameters())
        for p in self.params.values():
            p.data = p.data.astype(BLOCK_DTYPE)
        self.opt = AdamState(
            list(self.params.values()),
            learning_rate=cfg.optimizer.learning_rate,
            beta1=cfg.optimizer.beta1,
            beta2=cfg.optimizer.beta2,
            epsilon=cfg.optimizer.epsilon,
        )

    def forward(self, inputs, rng=None, eval_mode=False):
        """Blocks [batch, B, d], a numpy array (cast to ``BLOCK_DTYPE``) or
        (algo's recurrent unroll) a graph Tensor, to (output blocks [batch,
        N, d], traces).

        An eval-mode forward runs under ``no_grad``: its output and traces
        are constants and no autodiff graph is recorded or kept alive.  The
        noisy permutation applies first.  The flat ``Fnn`` sees the blocks
        concatenated and has no routing to trace; the block models take the
        blocks as they are."""
        with T.no_grad() if eval_mode else contextlib.nullcontext():
            n_in, n_out, d = self.shape
            batch = inputs.shape[0]
            if not isinstance(inputs, Tensor):
                inputs = Tensor(np.asarray(inputs, dtype=BLOCK_DTYPE))
            if self.permutation is not None:
                flat = T.affine(T.reshape(inputs, (batch, n_in * d)), self._scramble)
                inputs = T.reshape(flat, (batch, n_in, d))
            if self.cfg.model.kind == "fnn":
                flat = T.reshape(inputs, (batch, n_in * d))
                return T.reshape(self.net.forward(flat), (batch, n_out, d)), []
            return self.net.forward(inputs, rng=rng, eval_mode=eval_mode)

    def logits(self, out_blocks: Tensor) -> Tensor:
        """Classification logits as blocks [batch, N, classes]: the output
        blocks themselves for digit tasks; for the image task one block, the
        affine head over the single output block.  The head's product stays
        2-D: over the 3-D block numpy makes one BLAS call per example."""
        if self.head is None:
            return out_blocks
        b = out_blocks.shape[0]
        flat = self.head.forward(T.reshape(out_blocks, (b, self.shape[2])))
        return T.reshape(flat, (b, 1, self.head.cfg.output_size))

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())


def build_model(cfg: ExperimentConfig, init_rng) -> ModelBundle:
    if cfg.experiment == "bpmnist":
        shape = (5 if cfg.bpmnist.indicator else 4, 1, bpmnist_task.BLOCK_SIZE)
    else:
        shape = TASK_SHAPES[cfg.experiment]
    return ModelBundle(cfg, shape, init_rng)


def replay_init(cfg: ExperimentConfig):
    """A trial's start, replayed from its seed: (the five random streams, the
    image task's permutation set or None, the model with its noisy
    permutation), drawn from the init stream in that order."""
    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    names = ("init", "data", "routing", "eval", "probe")
    rngs = {name: np.random.default_rng(s) for name, s in zip(names, streams)}
    pset = bpmnist_task.build_permutation_set(rngs["init"]) if cfg.experiment == "bpmnist" else None
    return rngs, pset, build_model(cfg, rngs["init"])


# Rows per evaluation forward, chosen by measurement so that a forward's
# intermediates stay near the CPU cache.  No op mixes rows, but a 2-D
# ``Fnn`` product over a chunk may take another BLAS kernel than over the
# whole set and move the last bits of its logits (README, Evaluation).
EVAL_CHUNK_ROWS = 512
ALGO_EVAL_CHUNK_ROWS = 128


def rows_correct(predict_fn, batch: TaskBatch, chunk: int = EVAL_CHUNK_ROWS) -> np.ndarray:
    """Per example of ``batch``, whether every target block was predicted
    correctly.  Every evaluation passes through here, so it keeps freed heap
    memory mapped (``_keep_heap_mapped``) in a process that ran no trial."""
    _keep_heap_mapped()
    hits = []
    for lo in range(0, batch.size, chunk):
        hi = min(lo + chunk, batch.size)
        pred = predict_fn(batch.inputs[lo:hi])
        want = batch.targets[lo:hi]
        if pred.shape != want.shape:
            raise ValueError(f"prediction shape {pred.shape} vs target {want.shape}")
        hits.append(np.all(pred == want, axis=1))
    return np.concatenate(hits) if hits else np.zeros(0, dtype=bool)


def accuracy(*hits: np.ndarray) -> float:
    """Fraction of true entries over the ``hits`` arrays, from integer counts."""
    total = sum(h.size for h in hits)
    if total == 0:
        raise ValueError("evaluation set is empty")
    return sum(int(h.sum()) for h in hits) / total


def evaluate_accuracy(predict_fn, batches, chunk: int = EVAL_CHUNK_ROWS) -> float:
    """Fraction of examples with every target block predicted correctly."""
    if isinstance(batches, TaskBatch):
        batches = [batches]
    return accuracy(*(rows_correct(predict_fn, b, chunk) for b in batches))


def make_predict(bundle: ModelBundle):
    def predict(inputs: np.ndarray) -> np.ndarray:
        # also keeps the image task's head, applied after the forward, off the graph
        with T.no_grad():
            out, _ = bundle.forward(inputs, eval_mode=True)
            return np.argmax(bundle.logits(out).data, axis=2)
    return predict


def apply_smfr_bias(traces, perm_ids: np.ndarray, pset, step: int) -> Tensor:
    """Routing bias for the image task, active for the first 300 steps.

    Cross-entropy pushing layer-0 Multiplexer columns n < 4 toward one-hot
    routing of input block perm^-1(n), the routing that undoes the band
    permutation.  Returns exactly zero from step 300 on.
    """
    weights = traces[0].mux_weights
    b, m, n_out = weights.shape
    n_bias = min(n_out, bpmnist_task.NUM_BANDS)
    if step >= 300:
        return Tensor(np.zeros((), dtype=weights.dtype))
    target = np.zeros((b, m, n_out), dtype=weights.dtype)
    inverses = {pid: np.argsort(pset.perms[pid]) for pid in np.unique(perm_ids)}
    for i, pid in enumerate(perm_ids):
        inv = inverses[int(pid)]
        for n in range(n_bias):
            target[i, inv[n], n] = 1.0
    # the floor keeps log finite at a zero weight; in float32 it is still a
    # normal number and rounds away against any weight above about 1e-5
    picked = T.sum_all(Tensor(target) * T.log(weights + 1e-12))
    return picked * (-1.0 / (b * n_bias))


def _early_stop(needed: int):
    """Stop predicate: ``needed`` consecutive full-accuracy evaluations; 0
    never stops."""
    streak = 0

    def stop(fields: dict) -> bool:
        nonlocal streak
        streak = streak + 1 if fields["train_accuracy"] >= 1.0 else 0
        return 0 < needed <= streak
    return stop


class NonFiniteLoss(Exception):
    """A step's total loss was NaN or infinite; ``step`` updates had run."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step + 1}")
        self.step = step


class _Window:
    """What a metrics record reports besides its task's evaluation: the
    sampled routing logits against the penalty's band, the gradient clip,
    and wall time.

    Each step reads the batch's largest |logit|; the step is beyond the band
    when that exceeds the regularization threshold, whether or not the
    penalty is enabled.  Kept for the run: the peak, the count of steps
    beyond the band and the longest run of consecutive such steps; and per
    evaluation window: the window's peak and its count of steps beyond.
    Models without routing traces leave these at zero.  Per window, too:
    the count of steps whose gradient the global-norm clip scaled down, and
    the smallest scale it applied (1.0 when it never fired).

    A window starts when the previous record drains it (or when the
    accumulator is built) and its training ends where its evaluation starts;
    the training time is reported per step.  Anything else run between
    records outside an evaluation (the image task's checkpoint marks) counts
    as training time.
    """

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.peak = 0.0
        self.steps_beyond = 0
        self.longest_run = 0
        self._run = 0
        self._window_peak = 0.0
        self._window_beyond = 0
        self._clipped = 0
        self._min_clip_scale = 1.0
        self._start = time.perf_counter()
        self._step = 0

    def update(self, traces, clip_scale: float) -> None:
        if clip_scale < 1.0:
            self._clipped += 1
            self._min_clip_scale = min(self._min_clip_scale, clip_scale)
        if not traces:
            return
        peak = max_abs_routing_logit(traces)
        self.peak = max(self.peak, peak)
        self._window_peak = max(self._window_peak, peak)
        if peak > self.threshold:
            self.steps_beyond += 1
            self._window_beyond += 1
            self._run += 1
            self.longest_run = max(self.longest_run, self._run)
        else:
            self._run = 0

    def drain(self, step: int, eval_start: float) -> dict:
        """Fields for the record of the window that trained up to ``step``
        and began its evaluation at ``eval_start``; the next window starts
        now."""
        now = time.perf_counter()
        fields = {"max_routing_logit": self.peak,
                  "window_max_routing_logit": self._window_peak,
                  "window_steps_beyond_band": self._window_beyond,
                  "window_clipped_steps": self._clipped,
                  "window_min_clip_scale": self._min_clip_scale,
                  "train_ms_per_step": round(
                      1e3 * (eval_start - self._start) / (step - self._step), 3),
                  "eval_ms": round(1e3 * (now - eval_start), 3)}
        self._start, self._step = now, step
        self._window_peak = 0.0
        self._window_beyond = 0
        self._clipped = 0
        self._min_clip_scale = 1.0
        return fields

    def summary(self) -> dict:
        return {"max_routing_logit": self.peak,
                "steps_beyond_band": self.steps_beyond,
                "longest_run_beyond_band": self.longest_run}


def _train_step(bundle: ModelBundle, window: _Window, batch_loss, step: int):
    """Run training step ``step``; returns (its loss, its penalty) as floats.

    Backward adds into the optimizer's flat gradient buffer, zeroed once
    per step, and the clip and Adam run on it.  The step's graph (the loss,
    the traces, the penalty and ``extra``) lives only in this call, so it is
    freed before the next step's ``batch_loss`` builds its own and before
    any evaluation runs."""
    cfg = bundle.cfg
    loss, traces, extra = batch_loss(step)
    routing = [tr for tr in traces if isinstance(tr, LayerTrace)]
    total, reg_value = loss, 0.0
    if cfg.regularization.enabled and routing:
        reg = routing_regularization_loss(routing, cfg.regularization.threshold)
        total, reg_value = loss + reg, float(reg.data)
    if extra is not None:
        total = total + extra
    if not np.isfinite(total.data):
        raise NonFiniteLoss(step)
    bundle.opt.grad.fill(0.0)
    total.backward()
    clip_scale = clip_global_norm(bundle.opt, cfg.clip_norm)
    adam_step(bundle.opt)
    window.update(routing, clip_scale)
    return float(loss.data), reg_value


def _train(bundle: ModelBundle, writer: MetricsWriter, window: _Window, batch_loss, evaluate,
           steps: int, start: int = 0, stop=None, eval_last: bool = False):
    """Train from step ``start`` to step ``steps``; returns (the last step,
    whether ``stop`` ended the training).

    A step (``_train_step``) takes ``batch_loss(step) -> (loss, traces,
    extra or None)``, adds the routing penalty and ``extra`` (the image
    task's routing bias), and runs backward, clip and Adam; a total loss
    that is not finite raises ``NonFiniteLoss`` before any of them runs.
    One step's graph is alive at a time.  The penalty and the window read
    the Multiplexer and gate logits of the ``LayerTrace``s only; attention
    traces carry no logits.  Every ``eval_every``-th step, counted from the
    start of the trial, and the last step when ``eval_last`` is set, writes
    a metrics record: the fields of ``evaluate(step)``, the step's loss and
    penalty, and the window's fields.  Training stops after a record whose
    fields satisfy ``stop``."""
    cfg = bundle.cfg
    step = start
    while step < steps:
        loss, reg_value = _train_step(bundle, window, batch_loss, step)
        step += 1
        if step % cfg.eval_every == 0 or (eval_last and step == steps):
            eval_start = time.perf_counter()
            fields = evaluate(step)
            writer.write({"record": "metrics", "step": step, **fields,
                          "loss": loss, "regularization_loss": reg_value,
                          **window.drain(step, eval_start)})
            if stop is not None and stop(fields):
                return step, True
    return step, False


def run_addmul(cfg: ExperimentConfig, writer: MetricsWriter, bundle: ModelBundle,
               rngs) -> dict:
    predict = make_predict(bundle)
    alt = cfg.variants.alternate_split

    stage1_set = addmul_task.exhaustive_batch(addmul_task.stage_training_set("preparation", alt))
    prep_pairs = addmul_task.preparation_only_pairs(alt)
    prep_set = addmul_task.exhaustive_batch([(a, b, "add") for a, b in prep_pairs])

    def stage_loss(stage: str):
        def batch_loss(step):
            batch = addmul_task.gen_addmul_batch(stage, cfg.batch_size, rngs["data"], alt)
            out, traces = bundle.forward(batch.inputs, rng=rngs["routing"])
            return T.cross_entropy_loss(bundle.logits(out), batch.targets), traces, None
        return batch_loss

    window = _Window(cfg.regularization.threshold)
    # preparation stage: train until the exhaustive stage set clears threshold
    step, switched = _train(
        bundle, writer, window, stage_loss("preparation"),
        lambda step: {"stage": "preparation",
                      "train_accuracy": evaluate_accuracy(predict, stage1_set)},
        cfg.max_steps, stop=lambda fields: fields["train_accuracy"] >= cfg.threshold)
    if not switched:
        final_prep = evaluate_accuracy(predict, prep_set)
        return {"completed": False, "reason": "threshold_not_reached",
                "preparation_data_accuracy": final_prep, "switched_at": None,
                "steps": step, **window.summary()}

    # interference stage: fixed number of steps on the inverted distribution;
    # it starts on an evaluation step, so the global cadence is the stage's own
    switched_at = step
    step, _ = _train(
        bundle, writer, window, stage_loss("interference"),
        lambda step: {"stage": "interference",
                      "preparation_data_accuracy": evaluate_accuracy(predict, prep_set)},
        switched_at + cfg.interference_steps, start=switched_at, eval_last=True)
    final_prep = evaluate_accuracy(predict, prep_set)
    return {"completed": True, "reason": None, "preparation_data_accuracy": final_prep,
            "switched_at": switched_at, "steps": step, **window.summary()}


def run_doubleadd(cfg: ExperimentConfig, writer: MetricsWriter, bundle: ModelBundle,
                  rngs) -> dict:
    predict = make_predict(bundle)
    alt = cfg.variants.alternate_split

    train_set = doubleadd_task.doubleadd_train_set(alt)
    ood_set = doubleadd_task.doubleadd_ood_set(alt)
    out_of_range = ood_set.metadata["out_of_range"]
    ood_splits = {
        # exactly one digit outside its trained range vs. the swapped quadrant
        "ood_one_sided_accuracy": out_of_range == 1,
        "ood_swapped_accuracy": out_of_range == 2,
    }

    def batch_loss(step):
        batch = doubleadd_task.gen_doubleadd_batch(cfg.batch_size, rngs["data"], alt)
        out, traces = bundle.forward(batch.inputs, rng=rngs["routing"])
        return T.cross_entropy_loss(bundle.logits(out), batch.targets), traces, None

    # the summary reports the last evaluation; zeros if there was none
    evals = [{"train_accuracy": 0.0, "ood_accuracy": 0.0}]
    ood_hits = {}   # the last evaluation's per-row OOD hits, by its step

    def evaluate(step):
        train_accuracy = evaluate_accuracy(predict, train_set)
        ood_hits.clear()
        ood_hits[step] = rows_correct(predict, ood_set)
        evals.append({"train_accuracy": train_accuracy,
                      "ood_accuracy": accuracy(ood_hits[step])})
        return evals[-1]

    window = _Window(cfg.regularization.threshold)
    step, _ = _train(bundle, writer, window, batch_loss, evaluate, cfg.max_steps,
                     stop=_early_stop(cfg.early_stop_evals))
    # stability of generalization: once at 1.0, the curve must not fall back
    ood_curve = [fields["ood_accuracy"] for fields in evals[1:]]
    reached = [i for i, v in enumerate(ood_curve) if v >= 1.0]
    never_dropped = all(v >= 1.0 for v in ood_curve[reached[0]:]) if reached else True
    summary = {"completed": True, "reason": None, "steps": step, **evals[-1],
               "ood_reached_one": bool(reached), "ood_never_dropped": never_dropped,
               **window.summary()}
    # an evaluation at the final step already holds every OOD row's hit
    hits = ood_hits.get(step)
    if hits is None:
        hits = rows_correct(predict, ood_set)
    for name, rows in ood_splits.items():
        summary[name] = accuracy(hits[rows])
    return summary


def _algo_unroll(bundle: ModelBundle, inputs: np.ndarray, rng=None, eval_mode=False):
    """Run the model recurrently over encoded episodes [batch, 5 + T, d]:
    each iteration sees the state and that iteration's rule block, and its
    raw output blocks feed back as the next state.  Returns (the output
    blocks of every iteration, traces).  The episodes are cast to
    ``BLOCK_DTYPE`` once: a float64 rule block concatenated onto a float32
    state would upcast every product after it.  A training unroll returns
    every iteration's traces in order, which the penalty and the window
    read; an eval-mode unroll returns none and keeps only its state and
    outputs, since an iteration's attention traces outweigh its output."""
    n_vars = algo_task.NUM_VARS
    inputs = np.asarray(inputs, dtype=BLOCK_DTYPE)
    state = Tensor(inputs[:, :n_vars])
    outputs, traces = [], []
    for t in range(inputs.shape[1] - n_vars):
        rule = Tensor(inputs[:, n_vars + t:n_vars + t + 1])
        state, tr = bundle.forward(T.concat([state, rule], axis=1), rng=rng,
                                   eval_mode=eval_mode)
        outputs.append(state)
        if not eval_mode:
            traces += tr
    return outputs, traces


def run_algo(cfg: ExperimentConfig, writer: MetricsWriter, bundle: ModelBundle,
             rngs) -> dict:
    # encoded only while evaluated: holding all nine encodings raises peak memory
    eval_episodes = {n: algo_task.gen_algo_episode(500, n, rngs["eval"]) for n in range(1, 10)}
    # accuracy by (step, iterations): the parameters are fixed within a step
    # and an eval-mode unroll draws nothing, so each unroll runs once
    accuracies = {}

    def predict(inputs):
        outputs, _ = _algo_unroll(bundle, inputs, eval_mode=True)
        return np.argmax(outputs[-1].data, axis=2)

    def eval_iteration(step: int, n: int) -> float:
        if (step, n) not in accuracies:
            accuracies[step, n] = evaluate_accuracy(predict, eval_episodes[n].batch(),
                                                    ALGO_EVAL_CHUNK_ROWS)
        return accuracies[step, n]

    def batch_loss(step):
        episode = algo_task.gen_algo_episode(cfg.batch_size, 2, rngs["data"])
        outputs, traces = _algo_unroll(bundle, episode.batch().inputs, rng=rngs["routing"])
        if cfg.loss_per_step:
            losses = [T.cross_entropy_loss(out, episode.states[:, t + 1])
                      for t, out in enumerate(outputs)]
            loss = sum(losses[1:], losses[0]) * (1.0 / len(losses))
        else:
            loss = T.cross_entropy_loss(outputs[-1], episode.final)
        return loss, traces, None

    def evaluate(step):
        fields = {"train_accuracy": eval_iteration(step, 2),
                  "accuracy_iter_4": eval_iteration(step, 4)}
        if step % cfg.full_eval_every == 0:
            for n in range(1, 10):
                fields[f"accuracy_iter_{n}"] = eval_iteration(step, n)
        return fields

    window = _Window(cfg.regularization.threshold)
    step, _ = _train(bundle, writer, window, batch_loss, evaluate, cfg.max_steps,
                     stop=_early_stop(cfg.early_stop_evals))
    per_iter = {n: eval_iteration(step, n) for n in range(1, 10)}
    ood_even = float(np.mean([per_iter[n] for n in (4, 6, 8)]))
    ood_odd = float(np.mean([per_iter[n] for n in (1, 3, 5, 7, 9)]))
    summary = {"completed": True, "reason": None, "steps": step,
               "train_accuracy": per_iter[2], "ood_even": ood_even, "ood_odd": ood_odd,
               "validation_accuracy": per_iter[4], **window.summary()}
    summary.update({f"accuracy_iter_{n}": v for n, v in per_iter.items()})
    return summary


def run_bpmnist(cfg: ExperimentConfig, writer: MetricsWriter, bundle: ModelBundle, rngs,
                pset, mnist=None, results_prefix: str | None = None) -> dict:
    from .. import inspection

    if mnist is None:
        mnist = load_mnist(cfg.data_dir or None)
    # the permutation difference reads routing traces, which the FNN has none of
    routes = cfg.model.kind != "fnn"
    predict = make_predict(bundle)
    indicator = cfg.bpmnist.indicator

    marks = sorted({min(cfg.max_steps, max(1, round(25000 * cfg.bpmnist.scale))),
                    min(cfg.max_steps, max(1, round(250000 * cfg.bpmnist.scale)))})

    val_sets = bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"], mnist["test_labels"],
                                              "validation", indicator)
    test_sets = bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"], mnist["test_labels"],
                                               "test", indicator)
    holdout_sets = bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"], mnist["test_labels"],
                                                  "holdout", indicator)
    sub_val = bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"], mnist["test_labels"],
                                             "validation", indicator,
                                             limit=cfg.bpmnist.eval_subset, rng=rngs["eval"])
    # a training batch's draws from the eval stream, encoded per chunk
    train_rows = bpmnist_task.draw_train_rows(
        pset, mnist["train_labels"],
        min(cfg.bpmnist.eval_subset * 4, len(mnist["train_labels"])), rngs["eval"])
    train_eval = bpmnist_task.bpmnist_rows(pset, mnist["train_images"], mnist["train_labels"],
                                           *train_rows, indicator)
    probe = bpmnist_task.gen_bpmnist_train_batch(
        pset, mnist["train_images"], mnist["train_labels"],
        cfg.bpmnist.probe_size, rngs["probe"], indicator)

    def probe_difference() -> float:
        groups = bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"][:256],
                                                mnist["test_labels"][:256], "validation", indicator)
        groups += bpmnist_task.bpmnist_eval_sets(pset, mnist["test_images"][:256],
                                                 mnist["test_labels"][:256], "test", indicator)
        return inspection.permutation_difference(bundle, groups)

    def batch_loss(step):
        batch = bpmnist_task.gen_bpmnist_train_batch(pset, mnist["train_images"],
                                                     mnist["train_labels"], cfg.batch_size,
                                                     rngs["data"], indicator)
        out, traces = bundle.forward(batch.inputs, rng=rngs["routing"])
        loss = T.cross_entropy_loss(bundle.logits(out), batch.targets)
        bias = (apply_smfr_bias(traces, batch.metadata["perm_id"], pset, step)
                if cfg.variants.bias else None)
        return loss, traces, bias

    def evaluate(step):
        return {"train_accuracy": evaluate_accuracy(predict, train_eval),
                "validation_accuracy": evaluate_accuracy(predict, sub_val)}

    indicator_rows = []
    initial = {"initial_permutation_difference": probe_difference()} if routes else {}
    checkpoint_metrics = {}
    window = _Window(cfg.regularization.threshold)
    step = 0
    # train in segments that end at the checkpoint marks
    for mark in marks:
        step, _ = _train(bundle, writer, window, batch_loss, evaluate, mark, start=step)
        metrics = {
            "train_accuracy": evaluate_accuracy(predict, train_eval),
            "validation_accuracy": evaluate_accuracy(predict, val_sets),
            "test_accuracy": evaluate_accuracy(predict, test_sets),
            "holdout_accuracy": evaluate_accuracy(predict, holdout_sets),
        }
        if routes:
            metrics["permutation_difference"] = probe_difference()
        if cfg.model.kind == "smfr":
            trace = inspection.extract_routing_trace(bundle, probe.inputs)
            metrics["attention_sharpness"] = inspection.attention_sharpness(trace)
            metrics["attention_fairness"] = inspection.attention_fairness(trace)
            indicator_rows.append({"step": step,
                                   "sharpness": metrics["attention_sharpness"],
                                   "permutation_difference": metrics["permutation_difference"],
                                   "fairness": metrics["attention_fairness"],
                                   **inspection.gate_summary(trace)})
        checkpoint_metrics[step] = metrics
        writer.write({"record": "checkpoint", "step": step, **metrics})
        if results_prefix:
            save_checkpoint(f"{results_prefix}_step{step}.ckpt", bundle.params,
                            {"config": cfg.to_dict(), "step": step})
    if results_prefix and indicator_rows:
        inspection.write_indicator_csv(f"{results_prefix}_indicators.csv", indicator_rows)
    return {"completed": True, "reason": None, "steps": step,
            "scale": cfg.bpmnist.scale, "checkpoint_marks": marks,
            **initial,
            "early": checkpoint_metrics[marks[0]],
            "late": checkpoint_metrics[marks[-1]],
            **window.summary(),
            "holdout_digits": {str(k): v for k, v in pset.holdout.items()}}


_RUNNERS = {"addmul": run_addmul, "doubleadd": run_doubleadd, "algo": run_algo}


# thread-count settings that change a trial's float reduction order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _drop_docstrings(tree: ast.AST) -> ast.AST:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                node.body = node.body[1:]
    return tree


def code_fingerprint(package: str | None = None) -> str:
    """Hash of the blockops package sources, so a result can name the code
    that produced it: every ``.py`` file by path and by its syntax tree with
    docstrings dropped.  Comments, docstrings and layout do not count.

    Parsing the package takes about a tenth of a second, so the fingerprint
    is cached in the package's ``__pycache__`` beside a hash of the raw
    sources and the Python version, and recomputed when either changes."""
    package = package or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = []
    raw = hashlib.sha256(sys.version.encode())
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, package).replace(os.sep, "/")
            with open(path, "rb") as fh:
                source = fh.read()
            sources.append((rel, source))
            raw.update(rel.encode() + b"\0" + source + b"\0")
    key = raw.hexdigest()
    cache = os.path.join(package, "__pycache__", "code_fingerprint")
    try:
        with open(cache) as fh:
            cached_key, fingerprint = fh.read().split()
        if cached_key == key:
            return fingerprint
    except (OSError, ValueError):
        pass
    digest = hashlib.sha256()
    for rel, source in sources:
        tree = ast.dump(_drop_docstrings(ast.parse(source, filename=rel)))
        digest.update(rel.encode() + b"\0" + tree.encode() + b"\0")
    fingerprint = digest.hexdigest()[:16]
    try:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        tmp = f"{cache}.{os.getpid()}.part"
        with open(tmp, "w") as fh:
            fh.write(f"{key} {fingerprint}\n")
        os.replace(tmp, cache)
    except OSError:
        pass  # a read-only install recomputes each time
    return fingerprint


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it
# takes on a 64-bit build
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024
_heap_kept_mapped = False


def _keep_heap_mapped() -> None:
    """Have glibc serve a step's arrays from the heap and trim it only past
    1 GiB free, so each step reuses the pages the previous step's graph
    freed instead of faulting them back in.  Acts once per process, on this
    process only; without glibc's ``mallopt`` it does nothing."""
    global _heap_kept_mapped
    if _heap_kept_mapped:
        return
    _heap_kept_mapped = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows takes no None
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 30)  # 1 GiB of free heap top before a trim


def run_trial(cfg: ExperimentConfig, mnist=None) -> dict:
    """Run one seeded trial end to end, writing results/<exp>/<hash>/<seed>.jsonl.

    The header and the final record carry the ``code_fingerprint`` of the
    sources that ran; the header also records the trial's dtype, the numpy
    version and the BLAS thread settings.  A trial whose loss turns
    non-finite stops there and ends in a final record with ``completed``
    false, reason ``non_finite_loss`` and the ``steps`` that ran before it,
    and writes no final checkpoint.  A trial that raises or is interrupted leaves only its
    ``.part`` file, ending in an ``aborted`` record.  Returns the final
    summary record (also the last line of the file).  It keeps freed heap
    memory mapped for the rest of the process (``_keep_heap_mapped``)."""
    cfg.validate()
    _keep_heap_mapped()
    h = config_hash(cfg)
    path = results_path(cfg.results_dir, cfg.experiment, h, cfg.seed)
    writer = MetricsWriter(path)
    started = time.time()
    try:
        rngs, pset, bundle = replay_init(cfg)
        fingerprint = code_fingerprint()
        header = {"record": "header", "config": cfg.to_dict(), "config_hash": h,
                  "code_fingerprint": fingerprint, "dtype": np.dtype(BLOCK_DTYPE).name,
                  "numpy_version": np.__version__,
                  "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
                  "parameter_count": bundle.num_parameters()}
        writer.write(header)
        prefix = os.path.join(os.path.dirname(path), str(cfg.seed))
        if cfg.experiment == "bpmnist":
            summary = run_bpmnist(cfg, writer, bundle, rngs, pset, mnist=mnist,
                                  results_prefix=prefix)
        else:
            summary = _RUNNERS[cfg.experiment](cfg, writer, bundle, rngs)
        save_checkpoint(f"{prefix}_final.ckpt", bundle.params,
                        {"config": cfg.to_dict(), "step": summary.get("steps")})
    except NonFiniteLoss as stop:
        # deterministic, so resume may take the record as final; parameters
        # that gave a non-finite loss are not worth a checkpoint
        summary = {"completed": False, "reason": "non_finite_loss", "steps": stop.step}
    except BaseException as error:
        writer.abort(error)
        raise
    summary = {"record": "final", "config_hash": h, "code_fingerprint": fingerprint,
               "seed": cfg.seed,
               "parameter_count": header["parameter_count"],
               "wall_time_s": round(time.time() - started, 3), **summary}
    writer.write(summary)
    writer.finalize()
    return summary
