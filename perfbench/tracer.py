"""Outside-in tracing of blockops: spans recorded around the package's public
functions by wrapping them from here, never by editing the package.

A span records its name, start, end, parent and the training step it ran in.
Spans stay in memory while the workload runs; ``Tracer.summarize`` turns them
into the per-layer metrics and ``Tracer.dump`` writes them out afterwards.

A training step starts when a task's batch generator is called and ends when
``adam_step`` returns.  A batch generator call that no ``adam_step`` follows
(eval episodes, inspection probes) opens a step that is never committed, so
its spans count as set-up or evaluation, not as training.

A hook whose target has gone from the package is reported as absent; the
metrics it would feed read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np

OPS = ("matmul", "add", "sub", "mul", "leaky_relu", "sigmoid", "softmax",
       "gumbel_softmax_st", "cross_entropy_loss", "reshape", "transpose", "concat",
       "slice_axis", "sum_all")

MODEL_SPANS = ("nn.Smfr", "nn.Fnn", "transformer")

# (module, attribute path, span name, role); the role picks the wrapper
HOOKS = [("blockops.tensor", op, f"tensor.{op}", "op") for op in OPS] + [
    ("blockops.tensor", "Tensor.backward", "tensor.backward", "span"),
    ("blockops.nn", "Smfr.forward", "nn.Smfr", "model"),
    ("blockops.nn", "Multiplexer.forward", "nn.Multiplexer", "span"),
    ("blockops.nn", "Fnnr.forward", "nn.Fnnr", "span"),
    ("blockops.nn", "Fnn.forward", "nn.Fnn", "model"),
    ("blockops.nn", "routing_regularization_loss", "nn.routing_regularization_loss", "span"),
    ("blockops.nn", "max_abs_routing_logit", "nn.max_abs_routing_logit", "span"),
    ("blockops.transformer", "Transformer.forward", "transformer", "transformer"),
    ("blockops.transformer", "_Attention.forward", "transformer.attention", "span"),
    ("blockops.transformer", "_Ffn.forward", "transformer.ffn", "span"),
    ("blockops.optim", "clip_global_norm", "optim.clip", "clip"),
    ("blockops.optim", "adam_step", "optim.adam", "step_end"),
    ("blockops.tasks.doubleadd", "gen_doubleadd_batch", "tasks.batch", "step_start"),
    ("blockops.tasks.algo", "gen_algo_episode", "tasks.batch", "step_start"),
    ("blockops.tasks.doubleadd", "doubleadd_train_set", "tasks.eval_set", "span"),
    ("blockops.tasks.doubleadd", "doubleadd_ood_set", "tasks.eval_set", "span"),
    ("blockops.harness.metrics", "MetricsWriter.write", "metrics.write", "write"),
    ("blockops.checkpoint", "save_checkpoint", "checkpoint.save", "save"),
    ("blockops.checkpoint", "load_checkpoint", "checkpoint.load", "span"),
    ("blockops.harness.training", "run_trial", "trial", "span"),
    ("blockops.inspection", "extract_routing_trace", "inspection.trace", "span"),
]

# span fields: CHILD is the time covered by child spans; V1 and V2 hold what
# the wrapper counted (flops and bytes, rows, copied bytes, a clip flag...)
NAME, START, END, PARENT, CHILD, STEP, V1, V2 = range(8)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Patcher:
    """Replaces functions and methods and puts the originals back.

    A module-level function is replaced in its defining module and under
    every name another loaded ``blockops`` module imported it by, so
    ``from .optim import adam_step`` call sites see the wrapper too.
    """

    def __init__(self):
        self.patched = []   # (owner, attribute, original)
        self.absent = []

    def patch(self, module_name: str, path: str, make_wrapper) -> None:
        target = _resolve(module_name, path)
        if target is None:
            self.absent.append(f"{module_name}.{path}")
            return
        owner, attr, original = target
        wrapper = make_wrapper(original)
        owners = [(owner, attr)]
        if "." not in path:
            for name, module in list(sys.modules.items()):
                if module is owner or not (name == "blockops" or name.startswith("blockops.")):
                    continue
                owners += [(module, k) for k, v in list(vars(module).items()) if v is original]
        for o, a in owners:
            self.patched.append((o, a, getattr(o, a)))
            setattr(o, a, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


class FirstStep:
    """Untraced-run marker for the start of the first training step.

    It wraps only the batch generators and ``adam_step``; on the first
    ``adam_step`` call it records when the batch for that step was requested
    and removes every wrapper, so the rest of the run is unhooked.  With
    ``stop`` set it raises :class:`SetupReached` there instead of training.
    """

    def __init__(self, stop: bool = False):
        self.stop = stop
        self.batch_start = None
        self.first_step = None
        self.patcher = Patcher()

    def install(self):
        for module, path, _, role in HOOKS:
            if role == "step_start":
                self.patcher.patch(module, path, self._batch)
            elif role == "step_end":
                self.patcher.patch(module, path, self._adam)

    def _batch(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.batch_start = time.monotonic()
            return fn(*args, **kwargs)
        return wrapper

    def _adam(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_step is None:
                self.first_step = self.batch_start
                self.patcher.restore()
                if self.stop:
                    raise SetupReached()
            return fn(*args, **kwargs)
        return wrapper


class SetupReached(BaseException):
    """Raised at the first training step of a set-up-only run.

    A BaseException so that the sweep's per-trial ``except Exception`` lets
    it through."""


def _side_copy_bytes(net) -> int:
    """Bytes the Transformer copied into its inspection attributes."""
    copies = getattr(net, "last_attention", None) or {}
    arrays = [w for ws in copies.values() for w in ws]
    layer0 = getattr(net, "last_encoder_layer0", None)
    if layer0 is not None:
        arrays.append(layer0)
    return sum(a.nbytes for a in arrays)


def _matmul_shapes(a, b):
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    m, k = a.shape[-2:]
    n = b.shape[-1]
    return batch, m, k, n


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.steps = []        # (step id, start, end), committed only
        self.step = None       # id of the step in flight
        self.step_start = None
        self.model_depth = 0
        self.patcher = Patcher()
        self._next_step = 0

    @property
    def first_step(self):
        """Start of the first training step, on ``time.monotonic``."""
        return self.steps[0][1] if self.steps else None

    def install(self):
        makers = {"op": self._op, "span": self._span, "model": self._model,
                  "transformer": functools.partial(self._model, side_copies=True),
                  "clip": self._clip,
                  "step_end": self._step_end, "step_start": self._step_start,
                  "write": self._write, "save": self._save}
        for module, path, name, role in HOOKS:
            self.patcher.patch(module, path, functools.partial(makers[role], name=name))

    # -- span bookkeeping
    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.monotonic(), 0.0, parent, 0.0, self.step, 0, 0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _exit(self, span):
        span[END] = time.monotonic()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def _timed(self, fn, name, args, kwargs):
        span = self._enter(name)
        try:
            return fn(*args, **kwargs), span
        finally:
            self._exit(span)

    # -- wrappers by role
    def _span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(fn, name, args, kwargs)[0]
        return wrapper

    def _op(self, fn, name):
        tracer = self
        bwd_name = name + ".bwd"
        is_matmul = name == "tensor.matmul"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out, span = tracer._timed(fn, name, args, kwargs)
            flops = bytes_ = 0
            if is_matmul:
                a, b = args[0], args[1]
                batch, m, k, n = _matmul_shapes(a, b)
                span[V1] = 2 * int(np.prod(batch, dtype=np.int64)) * m * k * n
                flops = 2 * span[V1]
                item = out.data.itemsize
                # gradient products computed at the broadcast shape and then
                # summed down to the operand's own shape
                for shape, operand in (((*batch, m, k), a.shape), ((*batch, k, n), b.shape)):
                    if tuple(shape) != tuple(operand):
                        bytes_ += int(np.prod(shape, dtype=np.int64)) * item
            backward = out._backward_fn
            if backward is not None:
                def timed_backward(g):
                    bspan = tracer._enter(bwd_name)
                    try:
                        backward(g)
                    finally:
                        tracer._exit(bspan)
                    bspan[V1], bspan[V2] = flops, bytes_
                out._backward_fn = timed_backward
            return out
        return wrapper

    def _model(self, fn, name, side_copies=False):
        @functools.wraps(fn)
        def wrapper(module, blocks, *args, **kwargs):
            outermost = self.model_depth == 0
            self.model_depth += 1
            try:
                out, span = self._timed(fn, name, (module, blocks) + args, kwargs)
            finally:
                self.model_depth -= 1
            if outermost:
                span[V1] = blocks.shape[0]
            if side_copies:
                span[V2] = _side_copy_bytes(module)
            return out
        return wrapper

    def _clip(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scale, span = self._timed(fn, name, args, kwargs)
            span[V1] = int(scale < 1.0)
            return scale
        return wrapper

    def _step_start(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.step = self._next_step
            self._next_step += 1
            self.step_start = time.monotonic()
            return self._timed(fn, name, args, kwargs)[0]
        return wrapper

    def _step_end(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._timed(fn, name, args, kwargs)[0]
            if self.step is not None:
                self.steps.append((self.step, self.step_start, time.monotonic()))
            self.step = None
            return out
        return wrapper

    def _write(self, fn, name):
        @functools.wraps(fn)
        def wrapper(writer, record, *args, **kwargs):
            out, span = self._timed(fn, name, (writer, record) + args, kwargs)
            span[V1] = int(record.get("record") in ("metrics", "final"))
            return out
        return wrapper

    def _save(self, fn, name):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out, span = self._timed(fn, name, (path,) + args, kwargs)
            span[V1] = os.path.getsize(path)
            return out
        return wrapper

    # -- output
    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start and end in
        microseconds from the first span, parent index, training step."""
        origin = self.spans[0][START] if self.spans else 0.0
        committed = {s for s, _, _ in self.steps}
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[NAME], round((s[START] - origin) * 1e6, 1),
                                     round((s[END] - origin) * 1e6, 1), s[PARENT],
                                     s[STEP] if s[STEP] in committed else None]) + "\n")

    def summarize(self, wall_s: float) -> dict:
        """Per-layer metrics of this process's run, as ``perfbench/README.md`` defines them."""
        committed = {s for s, _, _ in self.steps}
        n = max(len(self.steps), 1)
        incl, self_t, count, v1, v2 = ({} for _ in range(5))
        incl_all, count_all, v1_all = {}, {}, {}
        for s in self.spans:
            name, dur = s[NAME], s[END] - s[START]
            incl_all[name] = incl_all.get(name, 0.0) + dur
            count_all[name] = count_all.get(name, 0) + 1
            v1_all[name] = v1_all.get(name, 0) + s[V1]
            if s[STEP] in committed:
                incl[name] = incl.get(name, 0.0) + dur
                self_t[name] = self_t.get(name, 0.0) + dur - s[CHILD]
                count[name] = count.get(name, 0) + 1
                v1[name] = v1.get(name, 0) + s[V1]
                v2[name] = v2.get(name, 0) + s[V2]

        def per_step_ms(table, name):
            return 1e3 * table.get(name, 0.0) / n

        def mean_ms(name):
            return 1e3 * incl_all.get(name, 0.0) / max(count_all.get(name, 0), 1)

        m = {}
        for op in OPS:
            m[f"tensor.{op}.fwd_ms"] = per_step_ms(self_t, f"tensor.{op}")
            m[f"tensor.{op}.bwd_ms"] = per_step_ms(self_t, f"tensor.{op}.bwd")
        m["tensor.backward_ms"] = per_step_ms(incl, "tensor.backward")
        m["tensor.backward.walk_ms"] = per_step_ms(self_t, "tensor.backward")
        m["tensor.nodes_per_step"] = sum(count.get(f"tensor.{op}", 0) for op in OPS) / n
        m["tensor.matmul.flops"] = (v1.get("tensor.matmul", 0) + v1.get("tensor.matmul.bwd", 0)) / n
        m["tensor.matmul.bwd_bytes"] = v2.get("tensor.matmul.bwd", 0) / n
        for mod in ("Smfr", "Multiplexer", "Fnnr", "Fnn"):
            m[f"nn.{mod}.fwd_ms"] = per_step_ms(self_t, f"nn.{mod}")
        # the peak-logit check runs after adam_step, outside the step span
        for fn in ("routing_regularization_loss", "max_abs_routing_logit"):
            m[f"nn.{fn}_ms"] = per_step_ms(incl_all, f"nn.{fn}")
        m["transformer.fwd_ms"] = per_step_ms(incl, "transformer")
        m["transformer.attention.fwd_ms"] = per_step_ms(incl, "transformer.attention")
        m["transformer.ffn.fwd_ms"] = per_step_ms(incl, "transformer.ffn")
        m["transformer.side_copy_bytes"] = v2.get("transformer", 0) / max(count.get("transformer", 0), 1)
        m["optim.adam_ms"] = per_step_ms(incl, "optim.adam")
        m["optim.clip_ms"] = per_step_ms(incl, "optim.clip")
        m["optim.clipped_ratio"] = v1.get("optim.clip", 0) / max(count.get("optim.clip", 0), 1)
        m["tasks.batch_ms"] = 1e3 * incl.get("tasks.batch", 0.0) / max(count.get("tasks.batch", 0), 1)

        step_ms = sorted(1e3 * (end - start) for _, start, end in self.steps)
        m["train.step_ms"] = statistics.median(step_ms) if step_ms else 0.0
        m["train.step_ms.tail"], m["train.step_ms.tail_pct"] = _tail(step_ms)
        m["train.step.samples"] = len(step_ms)
        m["train.bwd_ms"] = per_step_ms(incl, "tensor.backward")
        m["train.fwd_ms"] = (sum(step_ms) / n - m["train.bwd_ms"] - m["optim.clip_ms"]
                             - m["optim.adam_ms"] - per_step_ms(incl, "tasks.batch"))

        trials = self._trials()
        eval_s = sum(t["eval_s"] for t in trials)
        windows = sum(t["windows"] for t in trials)
        rows = sum(t["rows"] for t in trials)
        m["tasks.eval_set_ms"] = (1e3 * sum(t["eval_set_s"] for t in trials)
                                  / max(len(trials), 1))
        m["eval.pass_ms"] = 1e3 * eval_s / max(windows, 1)
        m["eval.share"] = eval_s / wall_s
        m["eval.rows_per_s"] = rows / eval_s if eval_s else 0.0
        m["metrics.write_ms"] = mean_ms("metrics.write")
        m["checkpoint.save_ms"] = mean_ms("checkpoint.save")
        m["checkpoint.load_ms"] = mean_ms("checkpoint.load")
        m["checkpoint.bytes"] = v1_all.get("checkpoint.save", 0) / max(count_all.get("checkpoint.save", 0), 1)
        m["grid.trial_overhead_ms"] = (1e3 * sum(t["overhead_s"] for t in trials)
                                       / max(len(trials), 1))
        m["inspection.trace_ms"] = mean_ms("inspection.trace")
        return m

    def _trials(self):
        """Split each ``run_trial`` span into training steps, evaluation
        windows and the rest.

        A window runs from the end of one metrics write (or the trial's first
        step) to the start of the next metrics or final write.  Taking out
        its steps and checkpoint saves leaves evaluation; the rest of the
        trial (set-up, writes, saves) is its overhead."""
        committed = {s for s, _, _ in self.steps}
        steps = sorted((start, end) for _, start, end in self.steps)
        writes = [s for s in self.spans if s[NAME] == "metrics.write" and s[V1]]
        saves = [(s[START], s[END]) for s in self.spans if s[NAME] == "checkpoint.save"]
        models = [s for s in self.spans
                  if s[NAME] in MODEL_SPANS and s[V1] and s[STEP] is None]
        set_up = [s for s in self.spans if s[NAME] in ("tasks.batch", "tasks.eval_set")
                  and s[STEP] not in committed]

        def within(intervals, lo, hi):
            return sum(b - a for a, b in intervals if lo <= a and b <= hi)

        out = []
        for trial in (s for s in self.spans if s[NAME] == "trial"):
            t0, t1 = trial[START], trial[END]
            eval_s = 0.0
            rows = 0
            windows = 0
            first = [a for a, _ in steps if t0 <= a <= t1]
            if first:
                lo = first[0]
                for w in (w for w in writes if t0 <= w[START] <= t1):
                    hi = w[START]
                    eval_s += (hi - lo) - within(steps, lo, hi) - within(saves, lo, hi)
                    rows += sum(s[V1] for s in models if lo <= s[START] and s[END] <= hi)
                    windows += 1
                    lo = w[END]
            out.append({"eval_s": eval_s, "windows": windows, "rows": rows,
                        "overhead_s": (t1 - t0) - within(steps, t0, t1) - eval_s,
                        "eval_set_s": sum(s[END] - s[START] for s in set_up
                                          if t0 <= s[START] and s[END] <= t1)})
        return out


def _tail(sorted_ms):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(sorted_ms)
    if n < 11:
        return (sorted_ms[-1] if sorted_ms else 0.0), 100
    pct = int(100 * (n - 10) / n)
    while n - int(np.ceil(pct / 100 * n)) < 10:
        pct -= 1
    return float(np.percentile(sorted_ms, pct)), pct
