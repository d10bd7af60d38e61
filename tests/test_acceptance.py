"""End-to-end reproduction gates for the experiment suite.

The fast structural checks (gradient correctness, copy fidelity, dataset
properties) run in every pytest invocation.  Training-based checks are
marked ``slow`` (minutes on one CPU) or ``long`` (hours; skipped unless
BLOCKOPS_RUN_LONG=1).  All training goes through the resumable grid
runner and caches trials under BLOCKOPS_ACCEPTANCE_DIR (default:
<system tmp>/blockops-acceptance), so a rerun resumes trials finished by
the same code instead of retraining them; a trial whose code fingerprint
differs from the current sources is trained again.

Each test prints one PASS/FAIL line with the quantities it measured, so
a verbose run doubles as a reproduction checklist.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from blockops import tensor as T
from blockops.nn import Smfr, SmfrConfig, force_copy_routing
from blockops.harness.grid import GridSpec, grid_search
from blockops.harness.metrics import read_records, results_path
from blockops.tasks import addmul as addmul_task
from blockops.tasks import bpmnist as bpmnist_task
from blockops.tasks.mnist_io import MnistUnavailableError, load_mnist

from fdcheck import finite_difference, grad_check, relative_error

RESULTS_DIR = os.environ.get("BLOCKOPS_ACCEPTANCE_DIR") or os.path.join(
    tempfile.gettempdir(), "blockops-acceptance")


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run_cached(spec_data: dict) -> list[dict]:
    """Run (or resume) a grid under the shared acceptance cache."""
    data = json.loads(json.dumps(spec_data))
    data["base"]["results_dir"] = RESULTS_DIR
    rows = grid_search(GridSpec(**data).validate())
    failed = [r for r in rows if r.get("error")]
    assert not failed, f"{len(failed)} trials failed; first: {failed[0]['error']}"
    return rows


def trial_config(experiment: str, row: dict) -> dict:
    """The config a cached trial ran with, from its result file's header."""
    path = results_path(RESULTS_DIR, experiment, row["config_hash"], row["seed"])
    return read_records(path)[0]["config"]


# ---------------------------------------------------------------- trial grids
#
# These dicts are the single source of truth for what the training gates
# run; the standalone CLI can reproduce any of them by dumping one to JSON
# and passing it to `blockops grid --spec`.

# Two sizes spanning the width/depth range; the collapse is size-independent,
# and 15k steps is roughly twice the observed convergence point.
FNN_COLLAPSE = {
    "base": {"experiment": "doubleadd", "model": {"kind": "fnn"},
             "max_steps": 15000, "eval_every": 500, "early_stop_evals": 0},
    "axes": {"model.hidden_widths": [[100, 100], [300, 300, 300]]},
    "trials_per_cell": 3,
    "seed_base": 0,
}

# ~10 CPU-minutes per trial; successful seeds converge much earlier but
# stragglers need the full horizon to escape the per-task local optimum.
SMFR_REUSE = {
    "base": {"experiment": "doubleadd",
             "model": {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                       "fnn_hidden": [100], "attention": "softmax"},
             "max_steps": 150000, "eval_every": 500, "early_stop_evals": 0},
    "axes": {},
    "trials_per_cell": 6,
    "seed_base": 0,
}


def _addmul_arm(model: dict) -> dict:
    return {"base": {"experiment": "addmul", "model": model, "threshold": 0.7,
                     "interference_steps": 2000, "max_steps": 30000,
                     "eval_every": 100, "early_stop_evals": 0},
            "axes": {}, "trials_per_cell": 10, "seed_base": 0}


ADDMUL_FNN = _addmul_arm({"kind": "fnn", "hidden_widths": [100, 100]})
ADDMUL_SOFTMAX = _addmul_arm({"kind": "smfr", "stack_width": 5, "stack_depth": 1,
                              "fnn_hidden": [100], "attention": "softmax"})
ADDMUL_GUMBEL = _addmul_arm({"kind": "smfr", "stack_width": 5, "stack_depth": 1,
                             "fnn_hidden": [100], "attention": "gumbel_st"})

ALGO_SMFR = {
    "base": {"experiment": "algo",
             "model": {"kind": "smfr", "stack_width": 6, "stack_depth": 1,
                       "fnn_hidden": [100], "attention": "softmax"},
             "max_steps": 50000, "eval_every": 500, "full_eval_every": 2500,
             "early_stop_evals": 0},
    "axes": {"model.stack_depth": [1, 2, 3, 4, 5]},
    "trials_per_cell": 1,
    "seed_base": 0,
}

ALGO_FNN = {
    "base": {"experiment": "algo", "model": {"kind": "fnn"},
             "max_steps": 50000, "eval_every": 500, "full_eval_every": 2500,
             "early_stop_evals": 0},
    "axes": {"model.hidden_widths": [[100, 100], [300, 300, 300]]},
    "trials_per_cell": 2,
    "seed_base": 0,
}

ALGO_TRANSFORMER = {
    "base": {"experiment": "algo",
             "model": {"kind": "transformer", "num_heads": 4, "encoder_layers": 1,
                       "decoder_layers": 1, "ffn_width": 128},
             "max_steps": 30000, "eval_every": 500, "full_eval_every": 2500,
             "early_stop_evals": 0},
    "axes": {"model.model_width": [48, 64]},
    "trials_per_cell": 1,
    "seed_base": 0,
}

# A step sees only the logits of its batch, 256 of the 5000 training rows,
# and the penalty can act only on those.  Logits of rows no batch has drawn
# can drift past the threshold unopposed: on seed 0 the layer-1 gate logits
# of task-1 rows rose to 21.15 over the full training set between steps
# 1165 and 1173 while every sampled batch peaked below 20, the first batch
# to draw such rows (step 1174) peaked at 21.08, and the penalty had the
# full set back under 20 five steps later.  The running peak therefore
# records when a batch first happens to draw a drifted row, which moves
# with the sampling and even the BLAS thread count; the gate instead
# bounds how long and how often the sampled logits stay beyond the band.
REG_BOUND = {
    "base": {"experiment": "doubleadd",
             "model": {"kind": "smfr", "stack_width": 8, "stack_depth": 1,
                       "fnn_hidden": [100], "attention": "softmax"},
             "batch_size": 256, "max_steps": 5000, "eval_every": 250,
             "early_stop_evals": 0},
    "axes": {"regularization.enabled": [True, False]},
    "trials_per_cell": 3,
    "seed_base": 0,
}


def _bpmnist_arm(bias: bool) -> dict:
    return {"base": {"experiment": "bpmnist",
                     "model": {"kind": "smfr", "stack_width": 6, "stack_depth": 1,
                               "fnn_hidden": [100], "attention": "softmax"},
                     "variants": {"bias": bias},
                     "max_steps": 50000, "eval_every": 500, "early_stop_evals": 0},
            "axes": {}, "trials_per_cell": 1, "seed_base": 0}


BPMNIST_BIAS = _bpmnist_arm(True)
BPMNIST_PLAIN = _bpmnist_arm(False)


# ------------------------------------------------------------ fast gates


def op_cases(rng):
    """One (name, loss, input arrays) finite-difference case per smooth op,
    drawn from ``rng``."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    row = rng.normal(size=(4,))
    m1 = rng.normal(size=(3, 4))
    m2 = rng.normal(size=(4, 5))
    x3 = rng.normal(size=(2, 3, 4))
    away_from_kink = np.where(np.abs(a) < 0.05, a + 0.1, a)
    targets = np.array([3, 0, 6, 2, 5])
    logits5 = rng.normal(size=(5, 7))
    bias5 = rng.normal(size=(5,))
    # entries on both sides of the band and inside it, none near its edges
    banded = np.array([[-2.0, -0.3, 0.1, 1.7], [0.9, -1.1, 0.2, -0.05],
                       [2.5, 0.0, -0.7, 0.35]])

    w34 = rng.normal(size=(3, 4))
    w35 = rng.normal(size=(3, 5))
    w234 = rng.normal(size=(2, 3, 4))
    rng.normal(size=(3, 2, 4))  # a deleted case's weights, so later draws stay
    w38 = rng.normal(size=(3, 8))
    w212 = rng.normal(size=(2, 12))
    w232 = rng.normal(size=(2, 3, 2))
    # their own streams, so every earlier case keeps its draws
    w235 = np.random.default_rng(2).normal(size=(2, 3, 5))
    extra = np.random.default_rng(3)
    residual135 = extra.normal(size=(1, 3, 5))
    queries134 = extra.normal(size=(1, 3, 4))
    keys254 = extra.normal(size=(2, 5, 4))
    values254 = extra.normal(size=(2, 5, 4))
    block_ops = np.random.default_rng(4)
    mixing243 = block_ops.random(size=(2, 4, 3))
    blocks245 = block_ops.normal(size=(2, 4, 5))
    w235b = block_ops.normal(size=(2, 3, 5))
    routed223 = block_ops.normal(size=(2, 2, 3))
    trunk28 = block_ops.normal(size=(2, 8))
    # the gate logits on both sides of a 0.5 band and inside it, none near
    # its edges
    trunk28[:, 6:] = [[-1.2, 0.3], [0.9, -0.1]]
    w223 = block_ops.normal(size=(2, 2, 3))
    banded2 = np.array([[1.4, -0.2], [-0.9, 0.05], [0.3, 2.2]])
    block_logits = np.random.default_rng(5)
    logits243 = block_logits.normal(size=(2, 4, 3))
    targets24 = block_logits.integers(0, 3, size=(2, 4))

    def weighted(op_result, w):
        return T.sum_all(T.mul(op_result, T.tensor(w)))

    def gated(routed, trunk):
        # the logits reach the loss through the gate and through the penalty
        logits = T.slice_axis(trunk, 1, 6, 8)
        out, _ = T.gate(routed, trunk, logits)
        return T.add(weighted(out, w223), T.band_excess([logits], 0.5))

    return [
        ("add", lambda p, q: weighted(T.add(p, q), w34), [a, b]),
        ("add_broadcast", lambda p, q: weighted(T.add(p, q), w34), [a, row]),
        ("mul", lambda p, q: weighted(T.mul(p, q), w34), [a, b]),
        ("affine", lambda p, q, r: weighted(T.affine(p, q, r), w35), [m1, m2, bias5]),
        ("affine_batched", lambda p, q, r: weighted(T.affine(p, q, r), w235),
         [x3, m2, bias5]),
        ("band_excess", lambda p: T.band_excess([p], 0.5), [banded]),
        ("leaky_relu", lambda p: weighted(T.leaky_relu(p, 0.01), w34), [away_from_kink]),
        ("log", lambda p: weighted(T.log(p), w34), [np.abs(a) + 0.5]),
        ("softmax", lambda p: weighted(T.softmax(p, axis=1), w234), [x3]),
        ("cross_entropy", lambda p: T.cross_entropy_loss(p, targets), [logits5]),
        ("reshape", lambda p: weighted(T.reshape(p, (2, 12)), w212), [x3]),
        ("concat", lambda p, q: weighted(T.concat([p, q], axis=1), w38), [a, b]),
        ("slice", lambda p: weighted(T.slice_axis(p, 2, 1, 3), w232), [x3]),
        ("sum_all", lambda p: T.sum_all(p), [a]),
        ("affine_no_bias", lambda p, q: weighted(T.affine(p, q), w235), [x3, m2]),
        ("affine_residual", lambda p, q, r, s: weighted(T.affine(p, q, r, residual=s), w235),
         [x3, m2, bias5, residual135]),
        # a batch-1 query side under batch-2 keys and values, 2 heads of 2
        ("attention", lambda p, q, r: weighted(T.attention(p, q, r, 2)[0], w234),
         [queries134, keys254, values254]),
        ("band_excess_list", lambda p, q: T.band_excess([p, q], 0.5), [banded, banded2]),
        # weights not normalized: the node does not need them to be
        ("mix", lambda p, q: weighted(T.mix(p, q), w235b), [mixing243, blocks245]),
        ("gate", gated, [routed223, trunk28]),
        ("cross_entropy_blocks", lambda p: T.cross_entropy_loss(p, targets24), [logits243]),
    ]


# constructors and the context manager are not ops, and the straight-through
# Gumbel sample has no finite-difference gradient: its backward contract is
# pinned by the unit tests
NOT_FD_CHECKED = {"Tensor", "tensor", "parameter", "no_grad", "gumbel_softmax_st"}


def test_every_differentiable_op_has_a_finite_difference_case(monkeypatch):
    checked = set()

    def spying(name, op):
        def spy(*args, **kwargs):
            out = op(*args, **kwargs)
            if (out[0] if isinstance(out, tuple) else out).requires_grad:
                checked.add(name)
            return out
        return spy

    ops = sorted(set(T.__all__) - NOT_FD_CHECKED)
    for name in ops:
        monkeypatch.setattr(T, name, spying(name, getattr(T, name)))
    for _, make_loss, arrays in op_cases(np.random.default_rng(0)):
        make_loss(*(T.parameter(a) for a in arrays))
    missing = sorted(set(ops) - checked)
    assert not missing, f"no finite-difference case differentiates {missing}"


def test_every_op_matches_finite_differences():
    """All smooth ops and a full width-2 depth-1 stack at rel err < 1e-3.

    The straight-through ops (hard argmax, Gumbel sampling) are excluded
    by construction: their forward is not differentiable and their custom
    backward contracts are pinned by the unit tests instead.
    """
    rng = np.random.default_rng(0)
    cases = op_cases(rng)
    worst_op, worst_name = 0.0, ""
    for name, make_loss, arrays in cases:
        err = grad_check(make_loss, arrays)
        if err > worst_op:
            worst_op, worst_name = err, name

    # full stack: every parameter of a width-2 depth-1 model against
    # central differences on a fixed input batch
    cfg = SmfrConfig(block_size=3, input_blocks=2, output_blocks=1,
                     stack_width=2, stack_depth=1, fnn_hidden=[4])
    smfr = Smfr(cfg, np.random.default_rng(1))
    x = rng.normal(size=(2, 2, 3))
    w_out = rng.normal(size=(2, 1, 3))
    params = list(smfr.parameters().values())

    def model_loss():
        out, _ = smfr.forward(T.tensor(x))
        return T.sum_all(T.mul(out, T.tensor(w_out)))

    loss = model_loss()
    loss.backward()
    worst_model = 0.0
    for p in params:
        def value_at(v, p=p):
            keep = p.data.copy()
            p.data[...] = v
            out = float(model_loss().data)
            p.data[...] = keep
            return out

        numeric = finite_difference(value_at, p.data)
        worst_model = max(worst_model, relative_error(p.grad, numeric))

    ok = worst_op < 1e-3 and worst_model < 1e-3
    verdict("gradient-correctness", ok,
            f"worst op rel err {worst_op:.2e} ({worst_name}), "
            f"full-stack rel err {worst_model:.2e} (bound 1e-3)")


def test_saturated_routing_copies_any_input_to_any_output():
    """With routing and gate logits at +/-40, any output block can become an
    exact copy of any chosen input block (error below 1e-6)."""
    cfg = SmfrConfig(block_size=5, input_blocks=3, output_blocks=2,
                     stack_width=4, stack_depth=1, fnn_hidden=[8])
    blocks = np.random.default_rng(1).normal(size=(3, 3, 5))
    worst = 0.0
    for src in range(cfg.input_blocks):
        for out_block in range(cfg.output_blocks):
            smfr = Smfr(cfg, np.random.default_rng(7))
            other = (src + 1) % cfg.input_blocks
            # first layer parks each input in its own slot, the output layer
            # picks the source slot for the block under test
            layer0 = [0, 1, 2, 0]
            picks = [other, other]
            picks[out_block] = src
            force_copy_routing(smfr, [layer0, picks], logit=40.0)
            out, _ = smfr.forward(T.tensor(blocks))
            worst = max(worst, float(np.abs(out.data[:, out_block] - blocks[:, src]).max()))
            worst = max(worst, float(np.abs(out.data[:, 1 - out_block] - blocks[:, other]).max()))
    verdict("copy-fidelity", worst < 1e-6,
            f"max abs copy error {worst:.2e} over all source/target pairs (bound 1e-6)")


def test_dataset_exhaustive_properties():
    """Split sizes, disjointness, permutation balance, holdout exclusion."""
    problems = []

    for alt in (False, True):
        limited = set(addmul_task.limited_pairs(alt))
        prep = set(addmul_task.preparation_only_pairs(alt))
        if len(limited) != 25:
            problems.append(f"limited set (alt={alt}) != 25")
        if len(prep) != 75:
            problems.append(f"preparation-only set (alt={alt}) != 75")
        if limited & prep or len(limited | prep) != 100:
            problems.append(f"limited/preparation sets (alt={alt}) must partition the 100 pairs")

    pset = bpmnist_task.build_permutation_set(np.random.default_rng(3))
    bm = bpmnist_task.balance_matrix(pset.perms)
    if not np.all(bm == 2):
        problems.append(f"balance matrix not all twos:\n{bm}")

    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(256, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=256).astype(np.int64)
    batch = bpmnist_task.gen_bpmnist_train_batch(pset, images, labels, 20000, rng)
    held = set(pset.holdout.items())
    seen = set(zip(batch.metadata["perm_id"].tolist(), batch.targets[:, 0].tolist()))
    if seen & held:
        problems.append(f"train batch contains held-out combinations: {seen & held}")
    # every non-held combination should appear in a sample this large
    allowed = {(p, d) for p in range(8) for d in range(10)} - held
    if seen != allowed:
        problems.append("train batch missing allowed permutation/digit combinations")

    verdict("dataset-properties", not problems,
            "limited 25, preparation 75, balance all-twos, holdout never trained"
            if not problems else "; ".join(problems))


# -------------------------------------------------------- training gates


@pytest.mark.slow
def test_fnn_double_addition_collapse():
    """FNNs memorize the frozen-digit sum table and collapse out of range.

    A sum with one digit frozen is a bijection of the other, so the answers
    for the trained half and the held-out half of that digit's range are
    disjoint sets; on those rows a converged FNN cannot score above 0.0.
    The quadrant where both digits moved carries no such constraint, which
    keeps the full-set score near chance instead of at zero.
    """
    rows = run_cached(FNN_COLLAPSE)
    problems = []
    for r in rows:
        tag = f"{r['overrides']['model.hidden_widths']} seed {r['seed']}"
        if r["train_accuracy"] != 1.0:
            problems.append(f"{tag}: train {r['train_accuracy']}")
        if r["ood_one_sided_accuracy"] != 0.0:
            problems.append(f"{tag}: one-sided {r['ood_one_sided_accuracy']}")
        if r["ood_accuracy"] >= 0.1:
            problems.append(f"{tag}: full-set {r['ood_accuracy']}")
    full = max(r["ood_accuracy"] for r in rows)
    verdict("fnn-collapse", not problems,
            f"{len(rows)} trials: train 1.0, one-sided held-out accuracy exactly 0.0, "
            f"full-set at most {full:.4f} (< 0.1)" if not problems else "; ".join(problems))


@pytest.mark.long
def test_smfr_double_addition_block_reuse():
    """Width-8 depth-1 softmax stacks rediscover the shared sum circuit."""
    rows = run_cached(SMFR_REUSE)
    reached = [r for r in rows if r["ood_reached_one"]]
    stable = [r for r in rows if r["ood_never_dropped"]]
    finals = ", ".join(f"{r['ood_accuracy']:.3f}" for r in rows)
    ok = len(reached) >= 3 and len(stable) == len(rows)
    verdict("smfr-block-reuse", ok,
            f"{len(reached)}/{len(rows)} trials reached held-out accuracy 1.0 "
            f"(needs >= 3); {len(stable)}/{len(rows)} never dropped after reaching it; "
            f"final accuracies [{finals}]")


@pytest.mark.long
def test_addmul_interference_resistance():
    """After the training rule inverts, routed models keep more of stage one."""
    means = {}
    for name, spec in (("fnn", ADDMUL_FNN), ("softmax", ADDMUL_SOFTMAX),
                       ("gumbel", ADDMUL_GUMBEL)):
        rows = run_cached(spec)
        unfinished = [r for r in rows if not r["completed"]]
        assert not unfinished, f"{name}: {len(unfinished)} trials never cleared the threshold"
        means[name] = float(np.mean([r["preparation_data_accuracy"] for r in rows]))
    ratio = means["softmax"] / max(means["fnn"], 1e-12)
    ok = ratio >= 2.0 and means["softmax"] >= means["gumbel"]
    verdict("interference-resistance", ok,
            f"preparation-data accuracy fnn {means['fnn']:.3f}, "
            f"softmax {means['softmax']:.3f}, gumbel {means['gumbel']:.3f}; "
            f"softmax/fnn {ratio:.2f} (needs >= 2) and softmax >= gumbel")


@pytest.mark.long
def test_algo_iteration_generalization():
    """Trained only on two iterations: stacks generalize to 1..9, the
    baselines leak at odd counts they never saw composed."""
    smfr_rows = run_cached(ALGO_SMFR)
    fnn_rows = run_cached(ALGO_FNN)
    tf_rows = run_cached(ALGO_TRANSFORMER)

    def all_iterations_perfect(r):
        return all(r[f"accuracy_iter_{n}"] == 1.0 for n in range(1, 10))

    perfect = [r["overrides"]["model.stack_depth"] for r in smfr_rows
               if all_iterations_perfect(r)]
    best_fnn = max(fnn_rows, key=lambda r: r["ood_even"])
    best_tf = max(tf_rows, key=lambda r: r["ood_even"])
    ok = (bool(perfect)
          and best_fnn["ood_even"] >= 0.95 and best_fnn["ood_odd"] <= 0.5
          and best_tf["ood_odd"] <= 0.5)
    verdict("algo-generalization", ok,
            f"stack depths perfect on iterations 1-9: {perfect or 'none'}; "
            f"best fnn even {best_fnn['ood_even']:.3f} (needs >= 0.95) "
            f"odd {best_fnn['ood_odd']:.3f} (needs <= 0.5); "
            f"best transformer odd {best_tf['ood_odd']:.3f} (needs <= 0.5)")


@pytest.mark.long
def test_bpmnist_scaled_schedule():
    """Reduced-schedule image task: biased routing is fast and undoes the
    band permutation; the plain stack keeps improving long after the
    training set is solved."""
    data_dir = os.environ.get("BLOCKOPS_DATA_DIR", "")
    try:
        load_mnist(data_dir or None)
    except MnistUnavailableError as e:
        pytest.skip(f"MNIST unavailable: {e}")

    bias_spec = json.loads(json.dumps(BPMNIST_BIAS))
    plain_spec = json.loads(json.dumps(BPMNIST_PLAIN))
    for spec in (bias_spec, plain_spec):
        spec["base"]["data_dir"] = data_dir
    biased = run_cached(bias_spec)[0]
    plain = run_cached(plain_spec)[0]

    fast = biased["early"]["test_accuracy"]
    grew = plain["late"]["test_accuracy"] - plain["early"]["test_accuracy"]
    solved_early = plain["early"]["train_accuracy"]
    undone = biased["late"]["permutation_difference"]
    baseline = biased["initial_permutation_difference"]
    ok = (fast >= 0.95 and grew >= 0.02 and solved_early >= 0.999
          and undone < 0.25 * baseline)
    verdict("bpmnist-scaled", ok,
            f"biased early test accuracy {fast:.3f} (needs >= 0.95); plain late-early "
            f"gain {grew:.3f} (needs >= 0.02) with early train {solved_early:.4f} "
            f"(needs >= 0.999); permutation difference {undone:.4f} vs initial "
            f"{baseline:.4f} (needs < 25%)")


@pytest.mark.slow
def test_routing_logits_stay_bounded():
    """The clamp-target penalty holds the routing logits at the band;
    without it the winning logits grow without bound.

    A step is beyond the band when its batch holds a logit past the
    threshold.  In every enabled-arm run no unbroken stretch of such steps
    reaches Adam's first-moment horizon 1 / (1 - beta1): an excursion that
    long is one the penalty never reversed.  And fewer than one step in ten
    is beyond the band.  The peak |logit| is printed against 21 as an
    observation only: it records when a batch first draws a row whose
    logits drifted while no batch held it (see REG_BOUND).
    """
    rows = run_cached(REG_BOUND)
    on = [r for r in rows if r["overrides"]["regularization.enabled"]]
    off = [r for r in rows if not r["overrides"]["regularization.enabled"]]
    problems = []
    horizons = set()
    for r in on:
        cfg = trial_config("doubleadd", r)
        horizon = round(1 / (1 - cfg["optimizer"]["beta1"]))
        horizons.add(horizon)
        tag = f"seed {r['seed']}"
        if r["longest_run_beyond_band"] >= horizon:
            problems.append(f"{tag}: {r['longest_run_beyond_band']} consecutive steps "
                            f"beyond the band (needs < {horizon})")
        if 10 * r["steps_beyond_band"] >= r["steps"]:
            problems.append(f"{tag}: {r['steps_beyond_band']}/{r['steps']} steps "
                            f"beyond the band (needs < 1 in 10)")
    peak_on = max(r["max_routing_logit"] for r in on)
    peak_off = max(r["max_routing_logit"] for r in off)
    detail = (f"enabled arm over {len(on)} runs: longest run beyond the band "
              f"{max(r['longest_run_beyond_band'] for r in on)} steps "
              f"(needs < {'/'.join(map(str, sorted(horizons)))}), at most "
              f"{max(r['steps_beyond_band'] for r in on)} of "
              f"{min(r['steps'] for r in on)} steps beyond (needs < 1 in 10), "
              f"peak |logit| {peak_on:.2f} (observed against 21); "
              f"disabled arm peak {peak_off:.1f}")
    if peak_off <= 40.0:
        # saturation can be slow at this scale; keep the bounded assertion
        detail += "; disabled arm stayed under 40 at 5k steps (observation only)"
    if problems:
        detail += "; " + "; ".join(problems)
    verdict("routing-logit-bound", not problems, detail)
