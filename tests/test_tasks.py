import numpy as np
import pytest

from blockops.tasks.addmul import (
    OPS,
    addmul_distribution,
    addmul_oracle,
    encode_addmul,
    exhaustive_batch,
    full_pairs,
    gen_addmul_batch,
    limited_pairs,
    preparation_only_pairs,
    stage_training_set,
)
from blockops.tasks.algo import (
    NUM_RULES,
    algo_apply_rule,
    encode_algo_episode,
    gen_algo_episode,
    rule_slots,
)
from blockops.harness.training import EVAL_CHUNK_ROWS
from blockops.tasks.batches import BLOCK_DTYPE, EncodedRows, TaskBatch, indicator_block, one_hot
from blockops.tasks.bpmnist import (
    NUM_PERMS,
    balance_matrix,
    bpmnist_eval_sets,
    bpmnist_rows,
    build_permutation_set,
    draw_train_rows,
    encode_bpmnist,
    gen_bpmnist_train_batch,
    image_to_bands,
    permute_bands,
)
from blockops.tasks.doubleadd import (
    doubleadd_ood_set,
    doubleadd_train_set,
    encode_doubleadd,
    gen_doubleadd_batch,
)


class TestBatchPrimitives:
    def test_one_hot_round_trip(self):
        values = np.array([[3, 0], [9, 5]])
        hot = one_hot(values, 10)
        assert hot.shape == (2, 2, 10)
        assert np.array_equal(hot.argmax(axis=-1), values)
        assert np.array_equal(hot.sum(axis=-1), np.ones((2, 2)))

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([10]), 10)

    def test_indicator_padding_is_zero(self):
        block = indicator_block(np.array([1]), num_ids=2, block_size=10)
        assert np.array_equal(block[0], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_indicator_rejects_overflow(self):
        with pytest.raises(ValueError):
            indicator_block(np.array([0]), num_ids=11, block_size=10)

    def test_task_batch_validates_shapes(self):
        with pytest.raises(ValueError):
            TaskBatch(np.zeros((2, 3)), np.zeros((2, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            TaskBatch(np.zeros((2, 3, 10)), np.zeros((3, 1), dtype=np.int64))


class TestAddmulOracle:
    def test_examples(self):
        assert addmul_oracle(7, 8, "add") == 5
        assert addmul_oracle(7, 8, "mul") == 6

    def test_multiply_by_zero(self):
        for x in range(10):
            assert addmul_oracle(x, 0, "mul") == 0

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            addmul_oracle(10, 0, "add")

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            addmul_oracle(1, 2, "sub")


class TestAddmulDistributions:
    def test_limited_set_is_25_low_high_pairs(self):
        pairs = limited_pairs()
        assert len(pairs) == 25
        assert all(a <= 4 and b >= 5 for a, b in pairs)

    def test_alternate_split_swaps_positions(self):
        pairs = limited_pairs(alternate_split=True)
        assert len(pairs) == 25
        assert all(a >= 5 and b <= 4 for a, b in pairs)

    def test_full_set_is_100_pairs(self):
        assert len(set(full_pairs())) == 100

    def test_preparation_stage_limits_mul_only(self):
        assert len(addmul_distribution("preparation", "mul")) == 25
        assert len(addmul_distribution("preparation", "add")) == 100

    def test_interference_stage_inverts_the_limit(self):
        assert len(addmul_distribution("interference", "add")) == 25
        assert len(addmul_distribution("interference", "mul")) == 100

    def test_preparation_only_pairs_are_the_missing_75(self):
        pairs = preparation_only_pairs()
        assert len(pairs) == 75
        assert set(pairs) == set(full_pairs()) - set(limited_pairs())

    def test_stage_training_set_is_exhaustive(self):
        triples = stage_training_set("preparation")
        assert len(triples) == 125
        batch = exhaustive_batch(triples)
        assert batch.inputs.shape == (125, 3, 10)

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            addmul_distribution("warmup", "add")


class TestAddmulGeneration:
    def test_encoding_layout(self):
        inputs = encode_addmul([7], [8], [1])
        assert inputs.shape == (1, 3, 10)
        assert inputs[0, 0].argmax() == 7
        assert inputs[0, 1].argmax() == 8
        assert np.array_equal(inputs[0, 2], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_batches_respect_the_stage_distribution(self):
        # large sample: limited-op pairs outside the allowed set never appear
        rng = np.random.default_rng(0)
        allowed = set(limited_pairs())
        seen_mul = 0
        for _ in range(20):
            batch = gen_addmul_batch("preparation", 5000, rng)
            a = batch.inputs[:, 0].argmax(axis=1)
            b = batch.inputs[:, 1].argmax(axis=1)
            op = batch.inputs[:, 2].argmax(axis=1)
            for ai, bi, oi in zip(a, b, op):
                if OPS[oi] == "mul":
                    seen_mul += 1
                    assert (int(ai), int(bi)) in allowed
        assert seen_mul > 40000

    def test_targets_match_oracle(self):
        batch = gen_addmul_batch("interference", 500, np.random.default_rng(1))
        a = batch.inputs[:, 0].argmax(axis=1)
        b = batch.inputs[:, 1].argmax(axis=1)
        op = batch.inputs[:, 2].argmax(axis=1)
        expected = [addmul_oracle(int(x), int(y), OPS[o]) for x, y, o in zip(a, b, op)]
        assert np.array_equal(batch.targets[:, 0], expected)

    def test_seeded_generation_is_reproducible(self):
        a = gen_addmul_batch("preparation", 64, np.random.default_rng(7))
        b = gen_addmul_batch("preparation", 64, np.random.default_rng(7))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


class TestDoubleadd:
    def test_task_zero_takes_first_pair(self):
        inputs = encode_doubleadd([[3, 4]], [[9, 9]], [0])
        assert inputs.shape == (1, 5, 10)
        batch = TaskBatch(inputs, np.array([[(3 + 4) % 10]], dtype=np.int64))
        assert batch.targets[0, 0] == 7

    @pytest.mark.parametrize("p1, task", [([[-1, 0]], [0]), ([[10, 0]], [0]),
                                          ([[0, 0]], [2])],
                             ids=["digit_minus_one", "digit_ten", "task_two"])
    def test_encoding_rejects_out_of_range_input(self, p1, task):
        with pytest.raises(ValueError):
            encode_doubleadd(p1, [[0, 0]], task)

    def test_generated_targets_follow_selected_pair(self):
        batch = gen_doubleadd_batch(1000, np.random.default_rng(2))
        p1a = batch.inputs[:, 0].argmax(axis=1)
        p1b = batch.inputs[:, 1].argmax(axis=1)
        p2a = batch.inputs[:, 2].argmax(axis=1)
        p2b = batch.inputs[:, 3].argmax(axis=1)
        task = batch.inputs[:, 4].argmax(axis=1)
        expected = np.where(task == 0, (p1a + p1b) % 10, (p2a + p2b) % 10)
        assert np.array_equal(batch.targets[:, 0], expected)

    @pytest.mark.parametrize("alternate_split", [False, True])
    def test_sampled_batch_is_the_encoding_of_its_draws(self, alternate_split):
        # three draws, in this order: fixed-seed records and the benchmark
        # tracer, which hooks this sampler, rely on its use of the generator
        rng = np.random.default_rng(4)
        batch = gen_doubleadd_batch(300, rng, alternate_split=alternate_split)
        replay = np.random.default_rng(4)
        p1 = replay.integers(0, 10, size=(300, 2))
        lim = np.asarray(limited_pairs(alternate_split))
        p2 = lim[replay.integers(0, len(lim), size=300)]
        task = replay.integers(0, 2, size=300)
        assert replay.bit_generator.state == rng.bit_generator.state
        assert np.array_equal(batch.inputs, encode_doubleadd(p1, p2, task))
        assert np.array_equal(batch.metadata["task"], task)
        assert np.array_equal(batch.metadata["p2"], p2)

    def test_second_pair_stays_limited_in_training(self):
        allowed = set(limited_pairs())
        batch = gen_doubleadd_batch(5000, np.random.default_rng(3))
        p2a = batch.inputs[:, 2].argmax(axis=1)
        p2b = batch.inputs[:, 3].argmax(axis=1)
        assert all((int(a), int(b)) in allowed for a, b in zip(p2a, p2b))

    def test_train_set_is_exhaustive_5000(self):
        batch = doubleadd_train_set()
        assert batch.size == 5000
        rows = set(map(tuple, np.column_stack([
            batch.inputs[:, i].argmax(axis=1) for i in range(5)])))
        assert len(rows) == 5000

    def test_ood_set_is_task_one_outside_pairs(self):
        batch = doubleadd_ood_set()
        assert batch.size == 7500
        task = batch.inputs[:, 4].argmax(axis=1)
        assert np.all(task == 1)
        outside = set(full_pairs()) - set(limited_pairs())
        p2 = list(zip(batch.inputs[:, 2].argmax(axis=1), batch.inputs[:, 3].argmax(axis=1)))
        assert set((int(a), int(b)) for a, b in p2) == outside

    def test_limited_and_ood_outputs_are_disjoint_per_first_digit(self):
        # global output sets overlap; the train/test separation only holds
        # once the low digit is fixed
        for a in range(5):
            limited_sums = {(a + b) % 10 for b in range(5, 10)}
            ood_sums = {(a + b) % 10 for b in range(0, 5)}
            assert limited_sums.isdisjoint(ood_sums)

    def test_ood_out_of_range_counts(self):
        batch = doubleadd_ood_set()
        oor = batch.metadata["out_of_range"]
        p2 = batch.metadata["p2"]
        # trained ranges: first digit 0-4, second digit 5-9
        expected = (p2[:, 0] >= 5).astype(int) + (p2[:, 1] <= 4).astype(int)
        assert np.array_equal(oor, expected)
        assert (oor == 1).sum() == 5000
        assert (oor == 2).sum() == 2500
        swapped = {(int(a), int(b)) for (a, b), k in zip(p2, oor) if k == 2}
        assert swapped == {(a, b) for a in range(5, 10) for b in range(0, 5)}

    def test_ood_out_of_range_follows_alternate_split(self):
        batch = doubleadd_ood_set(alternate_split=True)
        p2 = batch.metadata["p2"]
        oor = batch.metadata["out_of_range"]
        a_seen = {a for a, _ in limited_pairs(True)}
        b_seen = {b for _, b in limited_pairs(True)}
        expected = np.array([(a not in a_seen) + (b not in b_seen) for a, b in p2])
        assert np.array_equal(oor, expected)


class TestAlgoRule:
    def test_identity_rule_examples(self):
        out = algo_apply_rule(np.array([[3, 5, 2, 7, 9]]), 0)
        assert np.array_equal(out, [[3, 5, 2, 7, 6]])
        out = algo_apply_rule(np.array([[3, 9, 8, 1, 0]]), 0)
        assert np.array_equal(out, [[3, 9, 8, 1, 4]])

    def test_wraparound(self):
        # condition false and B = 9 rolls the assignment to 0
        out = algo_apply_rule(np.array([[0, 9, 1, 5, 5]]), 0)
        assert np.array_equal(out, [[0, 9, 1, 5, 0]])

    def test_exactly_one_slot_changes(self):
        rng = np.random.default_rng(4)
        vars_in = rng.integers(0, 10, size=(64, 5))
        for rule in range(NUM_RULES):
            out = algo_apply_rule(vars_in, rule)
            changed = (out != vars_in).sum(axis=1)
            assert np.all(changed <= 1)

    def test_rules_are_distinct_rotations(self):
        slot_maps = [tuple(rule_slots(r)) for r in range(NUM_RULES)]
        assert len(set(slot_maps)) == NUM_RULES

    def test_rule_slots_permute_all_positions(self):
        for rule in range(NUM_RULES):
            assert sorted(rule_slots(rule)) == [0, 1, 2, 3, 4]

    def test_rejects_invalid_digits(self):
        with pytest.raises(ValueError):
            algo_apply_rule(np.array([[10, 0, 0, 0, 0]]), 0)


class TestAlgoEpisodes:
    def test_final_state_matches_chained_oracle(self):
        episode = gen_algo_episode(32, 2, np.random.default_rng(5))
        for i in range(32):
            state = episode.initial[i:i + 1]
            for t in range(2):
                state = algo_apply_rule(state, int(episode.rule_ids[i, t]))
            assert np.array_equal(state[0], episode.final[i])

    def test_long_episode_shape(self):
        episode = gen_algo_episode(8, 9, np.random.default_rng(6))
        assert episode.states.shape == (8, 10, 5)
        assert episode.num_iterations == 9

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            gen_algo_episode(8, 0, np.random.default_rng(0))

    def test_state_encoding_layout(self):
        inputs = encode_algo_episode(np.array([[1, 2, 3, 4, 5]]), np.array([[2, 0, 4]]))
        assert inputs.shape == (1, 8, 10)
        assert np.array_equal(inputs[0, :5].argmax(axis=1), [1, 2, 3, 4, 5])
        assert np.array_equal(inputs[0, 5:].argmax(axis=1), [2, 0, 4])
        assert np.array_equal(inputs[0].sum(axis=1), np.ones(8))

    def test_episode_batch_encodes_initial_state_and_rules(self):
        episode = gen_algo_episode(16, 3, np.random.default_rng(10))
        batch = episode.batch()
        assert batch.inputs.shape == (16, 8, 10)
        assert np.array_equal(batch.inputs[:, :5].argmax(axis=2), episode.initial)
        assert np.array_equal(batch.inputs[:, 5:].argmax(axis=2), episode.rule_ids)
        assert np.array_equal(batch.targets, episode.final)

    def test_encoding_rejects_out_of_range_rule(self):
        with pytest.raises(ValueError):
            encode_algo_episode(np.zeros((1, 5), dtype=np.int64), np.array([[0, 5]]))

    def test_seeded_episodes_are_reproducible(self):
        a = gen_algo_episode(16, 2, np.random.default_rng(11))
        b = gen_algo_episode(16, 2, np.random.default_rng(11))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.rule_ids, b.rule_ids)


def synthetic_mnist(n=64, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random(size=(n, 28, 28))
    labels = rng.integers(0, 10, size=n)
    # make sure every digit is present so holdout-restricted sets are nonempty
    k = min(10, n)
    labels[:k] = np.arange(k)
    return images, labels


class TestPermutationSet:
    def test_structure_and_balance(self):
        pset = build_permutation_set(np.random.default_rng(0))
        assert pset.perms.shape == (NUM_PERMS, 4)
        for perm in pset.perms:
            assert sorted(perm) == [0, 1, 2, 3]
        assert len(set(map(tuple, pset.perms))) == NUM_PERMS
        assert np.array_equal(balance_matrix(pset.perms), np.full((4, 4), 2))

    def test_roles_and_holdout(self):
        pset = build_permutation_set(np.random.default_rng(1))
        assert list(pset.validation_ids) == [0, 1, 2, 3]
        assert list(pset.test_ids) == [4, 5, 6, 7]
        assert set(pset.holdout) == {4, 5, 6, 7}
        for digit in pset.holdout.values():
            assert 0 <= digit <= 9

    def test_different_seeds_differ(self):
        a = build_permutation_set(np.random.default_rng(2))
        b = build_permutation_set(np.random.default_rng(3))
        assert (not np.array_equal(a.perms, b.perms)) or a.holdout != b.holdout


class TestBpmnistEncoding:
    def test_bands_reconstruct_image(self):
        images, _ = synthetic_mnist(4)
        bands = image_to_bands(images)
        assert bands.shape == (4, 4, 196)
        assert np.array_equal(bands.reshape(4, 28, 28), images)

    def test_inverse_permutation_restores_bands(self):
        images, _ = synthetic_mnist(4)
        bands = image_to_bands(images)
        perm = np.array([2, 0, 3, 1])
        blocks = permute_bands(bands, perm)
        # blocks[b] = band[perm[b]], so indexing by argsort(perm) undoes it
        assert np.array_equal(blocks[:, np.argsort(perm)], bands)

    def test_block_b_holds_band_perm_b(self):
        images, _ = synthetic_mnist(2)
        bands = image_to_bands(images)
        perm = np.array([2, 0, 3, 1])
        blocks = permute_bands(bands, perm)
        for b in range(4):
            assert np.array_equal(blocks[:, b], bands[:, perm[b]])
            assert np.array_equal(blocks[0, b], images[0, 7 * perm[b]:7 * perm[b] + 7].reshape(-1))

    def test_identity_permutation_passes_through(self):
        pset = build_permutation_set(np.random.default_rng(4))
        pset.perms[0] = np.arange(4)
        images, _ = synthetic_mnist(3)
        blocks = encode_bpmnist(images, np.zeros(3, dtype=np.int64), pset, indicator=False)
        assert blocks.dtype == BLOCK_DTYPE
        assert np.array_equal(blocks.reshape(3, -1), images.reshape(3, -1).astype(BLOCK_DTYPE))

    def test_indicator_block_is_appended(self):
        pset = build_permutation_set(np.random.default_rng(5))
        images, _ = synthetic_mnist(3)
        inputs = encode_bpmnist(images, np.array([0, 3, 7]), pset, indicator=True)
        assert inputs.shape == (3, 5, 196)
        assert np.array_equal(inputs[:, 4, :8].argmax(axis=1), [0, 3, 7])
        assert np.all(inputs[:, 4, 8:] == 0.0)


class TestBpmnistBatches:
    def test_train_batches_never_emit_holdout_pairs(self):
        pset = build_permutation_set(np.random.default_rng(6))
        images, labels = synthetic_mnist(128)
        rng = np.random.default_rng(7)
        for _ in range(20):
            batch = gen_bpmnist_train_batch(pset, images, labels, 256, rng)
            perm_ids = batch.metadata["perm_id"]
            for pid, digit in pset.holdout.items():
                hits = (perm_ids == pid) & (batch.targets[:, 0] == digit)
                assert not hits.any()

    def test_eval_roles_partition_permutations(self):
        pset = build_permutation_set(np.random.default_rng(8))
        images, labels = synthetic_mnist(64)
        validation = bpmnist_eval_sets(pset, images, labels, "validation")
        test = bpmnist_eval_sets(pset, images, labels, "test")
        assert [b.metadata["perm_id"][0] for b in validation] == [0, 1, 2, 3]
        assert [b.metadata["perm_id"][0] for b in test] == [4, 5, 6, 7]
        for b in validation + test:
            assert b.size == 64

    def test_holdout_sets_contain_only_their_digit(self):
        pset = build_permutation_set(np.random.default_rng(9))
        images, labels = synthetic_mnist(64)
        for batch in bpmnist_eval_sets(pset, images, labels, "holdout"):
            pid = int(batch.metadata["perm_id"][0])
            assert np.all(batch.targets[:, 0] == pset.holdout[pid])

    def test_limit_subsamples_with_rng(self):
        pset = build_permutation_set(np.random.default_rng(10))
        images, labels = synthetic_mnist(64)
        sets = bpmnist_eval_sets(pset, images, labels, "validation", limit=16,
                                 rng=np.random.default_rng(11))
        assert all(b.size == 16 for b in sets)
        with pytest.raises(ValueError):
            bpmnist_eval_sets(pset, images, labels, "validation", limit=16)

    def test_seeded_batches_are_reproducible(self):
        pset = build_permutation_set(np.random.default_rng(12))
        images, labels = synthetic_mnist(64)
        a = gen_bpmnist_train_batch(pset, images, labels, 64, np.random.default_rng(13))
        b = gen_bpmnist_train_batch(pset, images, labels, 64, np.random.default_rng(13))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def chunks_joined(inputs, chunk=EVAL_CHUNK_ROWS):
    """``inputs`` read the way ``rows_correct`` reads it, chunk by chunk."""
    return np.concatenate([inputs[lo:lo + chunk] for lo in range(0, len(inputs), chunk)])


def composed_encode_bpmnist(images, perm_ids, pset, indicator=True, dtype=BLOCK_DTYPE):
    """The band encoding composed of a float copy, one permuted copy per
    permutation id and a concatenated indicator block."""
    bands = image_to_bands(np.asarray(images, dtype=dtype))
    perm_ids = np.asarray(perm_ids, dtype=np.int64)
    blocks = np.empty_like(bands)
    for pid in np.unique(perm_ids):
        mask = perm_ids == pid
        blocks[mask] = permute_bands(bands[mask], pset.perms[pid])
    if not indicator:
        return blocks
    ind = indicator_block(perm_ids, NUM_PERMS, 196, dtype=dtype)
    return np.concatenate([blocks, ind[:, None, :]], axis=1)


def test_every_encoder_emits_the_block_dtype():
    # one dtype from the encoders on, so no trial input upcasts the products
    pset = build_permutation_set(np.random.default_rng(29))
    images, labels = synthetic_mnist(8, seed=30)
    rng = np.random.default_rng(31)
    blocks = {
        "addmul": gen_addmul_batch("preparation", 4, rng).inputs,
        "doubleadd": gen_doubleadd_batch(4, rng).inputs,
        "doubleadd eval": doubleadd_train_set().inputs[:4],
        "algo": gen_algo_episode(4, 3, rng).batch().inputs,
        "bpmnist": gen_bpmnist_train_batch(pset, images, labels, 4, rng).inputs,
        "bpmnist eval": bpmnist_eval_sets(pset, images, labels, "test")[0].inputs[:4],
    }
    assert {name: b.dtype for name, b in blocks.items()} == dict.fromkeys(blocks, BLOCK_DTYPE)
    assert BLOCK_DTYPE == np.float32


class TestEncodedRows:
    def test_slices_encode_their_rows_and_anything_else_every_row(self):
        calls = []

        def encode(values):
            calls.append(len(values))
            return one_hot(values, 10)[:, None, :]
        rows = EncodedRows(encode, np.arange(1200) % 10)
        assert (rows.shape, rows.ndim, len(rows)) == ((1200, 1, 10), 3, 1200)
        assert rows[5:9].shape == (4, 1, 10) and calls[-1] == 4
        assert_bitwise(chunks_joined(rows), encode(np.arange(1200) % 10))
        assert calls[-4:-1] == [512, 512, 176]
        assert np.array_equal(rows[:, 0].argmax(axis=1), np.arange(1200) % 10)
        assert np.asarray(rows, dtype=np.float32).dtype == np.float32


class TestEvalSetChunks:
    @pytest.mark.parametrize("alternate_split", [False, True])
    def test_doubleadd_sets_match_their_whole_encoding(self, alternate_split):
        limited = limited_pairs(alternate_split)
        rows = {
            doubleadd_train_set: [(a1, b1, a2, b2, t) for a1, b1 in full_pairs()
                                  for a2, b2 in limited for t in range(2)],
            doubleadd_ood_set: [(a1, b1, a2, b2, 1) for a1, b1 in full_pairs()
                                for a2, b2 in full_pairs() if (a2, b2) not in limited],
        }
        for make, want in rows.items():
            batch, want = make(alternate_split), np.asarray(want, dtype=np.int64)
            assert isinstance(batch.inputs, EncodedRows)
            assert_bitwise(chunks_joined(batch.inputs),
                           encode_doubleadd(want[:, 0:2], want[:, 2:4], want[:, 4]))
            assert_bitwise(batch.targets[:, 0], np.where(
                want[:, 4] == 0, want[:, 0:2].sum(axis=1) % 10, want[:, 2:4].sum(axis=1) % 10))

    @pytest.mark.parametrize("indicator", [True, False])
    @pytest.mark.parametrize("limit", [None, 600])
    def test_bpmnist_eval_sets_match_their_whole_encoding(self, indicator, limit):
        pset = build_permutation_set(np.random.default_rng(20))
        images, labels = synthetic_mnist(1100, seed=21)
        for role in ("validation", "test", "holdout"):
            sets = bpmnist_eval_sets(pset, images, labels, role, indicator, limit=limit,
                                     rng=np.random.default_rng(22))
            for batch in sets:
                idx, perm_ids = batch.metadata["index"], batch.metadata["perm_id"]
                whole = composed_encode_bpmnist(images[idx], perm_ids, pset, indicator)
                for chunk in (EVAL_CHUNK_ROWS, 50):
                    assert_bitwise(chunks_joined(batch.inputs, chunk), whole)
            if role != "holdout":
                assert [b.size for b in sets] == [limit or 1100] * 4

    @pytest.mark.parametrize("indicator", [True, False])
    def test_train_eval_rows_match_a_training_batch(self, indicator):
        # the same draws as a training batch of that size, encoded per chunk
        pset = build_permutation_set(np.random.default_rng(23))
        images, labels = synthetic_mnist(300, seed=24)
        rng = np.random.default_rng(25)
        lazy = bpmnist_rows(pset, images, labels, *draw_train_rows(pset, labels, 1200, rng),
                            indicator)
        eager = gen_bpmnist_train_batch(pset, images, labels, 1200, np.random.default_rng(25),
                                        indicator)
        assert_bitwise(chunks_joined(lazy.inputs), eager.inputs)
        assert_bitwise(lazy.targets, eager.targets)
        for key in ("perm_id", "index"):
            assert_bitwise(lazy.metadata[key], eager.metadata[key])

    @pytest.mark.parametrize("indicator", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_encode_bpmnist_matches_the_composed_encoding(self, indicator, dtype):
        pset = build_permutation_set(np.random.default_rng(26))
        images, _ = synthetic_mnist(200, seed=27)
        perm_ids = np.random.default_rng(28).integers(0, NUM_PERMS, 200)
        for source in (images, images.astype(np.float32)):
            assert_bitwise(encode_bpmnist(source, perm_ids, pset, indicator, dtype),
                           composed_encode_bpmnist(source, perm_ids, pset, indicator, dtype))
