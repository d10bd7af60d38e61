import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed
from blockops import tensor as T
from blockops.optim import AdamState, clip_global_norm
from fdcheck import finite_difference, grad_check, relative_error


class TestElementwiseOps:
    def test_add_broadcasts_rows(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.tensor([10.0, 20.0])
        out = T.add(a, b)
        assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_gradient_unbroadcasts(self):
        err = grad_check(lambda a, b: T.sum_all(T.add(a, b)),
                         [np.ones((3, 2)), np.ones((2,))])
        assert err < 1e-4

    def test_sub_and_mul_gradients(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        err = grad_check(lambda x, y: T.sum_all(T.mul(composed.sub(x, y), x)), [a, b])
        assert err < 1e-4

    def test_scalar_operator_sugar(self):
        x = T.parameter([2.0])
        y = 3.0 * x + 1.0 + -x
        loss = T.sum_all(y * y)
        loss.backward()
        # y = 2x + 1 = 5, d(y^2)/dx = 2*5*2
        assert y.data[0] == pytest.approx(5.0)
        assert x.grad[0] == pytest.approx(20.0)


def test_ops_on_0d_float32_keep_float32():
    # numpy returns a scalar, not a 0-d array, for an op on 0-d arrays; the
    # tensor keeps its dtype, so a float32 loss sum stays float32
    a = T.tensor(2.0, dtype=np.float32)
    for out in (a * 3.0, a + a, -a, T.mul(a, a)):
        assert out.dtype == np.float32 and out.shape == ()
    assert T.Tensor(1.5).dtype == np.float64


class TestMatmul:
    # the reference product that the fused nodes' bitwise tests compare with
    def test_identity_returns_input(self):
        x = np.arange(9, dtype=np.float64).reshape(3, 3)
        out = composed.matmul(T.tensor(np.eye(3)), T.tensor(x))
        assert np.array_equal(out.data, x)

    def test_row_times_column(self):
        out = composed.matmul(T.tensor([[1.0, 2.0]]), T.tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == pytest.approx(11.0)

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        err = grad_check(lambda x, y: T.sum_all(composed.matmul(x, y)), [a, b])
        assert err < 1e-4

    def test_broadcast_batch_dim_gradient(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        err = grad_check(lambda x, y: T.sum_all(composed.matmul(x, y)), [a, b])
        assert err < 1e-4

    def test_four_d_times_weight_gradient(self):
        # [batch, heads, seq, k] @ [k, n]; b's gradient sums over every
        # leading axis of a
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(5, 6))
        w = rng.normal(size=(2, 3, 4, 6))
        err = grad_check(lambda x, y: T.sum_all(T.mul(composed.matmul(x, y), T.tensor(w))), [a, b])
        assert err < 1e-4

    @pytest.mark.parametrize("constant", ["a", "b"])
    def test_constant_operand_gets_no_gradient(self, constant):
        rng = np.random.default_rng(4)
        arrays = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4, 5))}
        w = rng.normal(size=(2, 3, 5))
        fixed = T.tensor(arrays[constant])
        learned = "b" if constant == "a" else "a"

        def loss(x):
            pair = {constant: fixed, learned: x}
            return T.sum_all(T.mul(composed.matmul(pair["a"], pair["b"]), T.tensor(w)))

        x = T.parameter(arrays[learned].copy())
        loss(x).backward()
        assert fixed.grad is None
        numeric = finite_difference(lambda v: float(loss(T.tensor(v)).data), arrays[learned])
        assert relative_error(x.grad, numeric) < 1e-6


class TestLeakyRelu:
    def test_values(self):
        out = T.leaky_relu(T.tensor([2.0, -2.0, 0.0]))
        assert out.data[0] == pytest.approx(2.0)
        assert out.data[1] == pytest.approx(-0.02)
        assert out.data[2] == pytest.approx(0.0)

    def test_negative_side_slope(self):
        x = T.parameter([-2.0, 3.0])
        T.sum_all(T.leaky_relu(x)).backward()
        assert x.grad[0] == pytest.approx(0.01)
        assert x.grad[1] == pytest.approx(1.0)

    def test_gradient_away_from_kink(self):
        x = np.array([1.5, -1.5, 0.3, -0.3])
        err = grad_check(lambda t: T.sum_all(T.mul(T.leaky_relu(t), t)), [x])
        assert err < 1e-4


def gate_values(logits):
    """The gates ``gate`` computes for a row of logits, one per 1-value block."""
    x = np.asarray(logits, dtype=np.float64).reshape(1, -1)
    n = x.shape[1]
    routed, trunk = T.tensor(np.zeros((1, n, 1))), T.tensor(np.zeros((1, 2 * n)))
    return T.gate(routed, trunk, T.tensor(x))[1].data.reshape(-1)


class TestSigmoid:
    # the gate node's sigmoid
    def test_zero_is_half(self):
        assert gate_values([0.0])[0] == pytest.approx(0.5)

    def test_saturation_is_stable(self):
        out = gate_values([40.0, -40.0])
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.0, abs=1e-17)
        assert np.all(np.isfinite(out))

    def test_gradient_near_origin(self):
        # the logits' gradient through the blend of two unequal blocks
        x = np.array([[0.1, -0.4, 0.9]])
        routed = T.tensor(np.array([[[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]]]))
        trunk = T.tensor(np.array([[0.3, 0.7, -1.0, 2.0, 1.1, -0.6, 0.0, 0.0, 0.0]]))
        err = grad_check(lambda t: T.sum_all(T.gate(routed, trunk, t)[0]), [x], h=1e-6)
        assert err < 1e-6

    def test_bits_match_the_sign_split_formula(self):
        # reference: each sign computed alone on its own entries
        d = np.concatenate([np.random.default_rng(2).normal(scale=30.0, size=500),
                            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308]])
        want = np.empty_like(d)
        pos = d >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ex = np.exp(d[~pos])
        want[~pos] = ex / (1.0 + ex)
        assert gate_values(d).tobytes() == want.tobytes()


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(T.tensor([[1.0, 1.0, 1.0, 1.0]]), axis=1)
        assert np.allclose(out.data, 0.25)

    def test_large_gap_saturates_without_overflow(self):
        out = T.softmax(T.tensor([[1000.0, 0.0]]), axis=1)
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0)
        assert np.all(np.isfinite(out.data))

    def test_log_two_gap(self):
        out = T.softmax(T.tensor([[math.log(2.0), 0.0]]), axis=1)
        assert out.data[0, 0] == pytest.approx(2.0 / 3.0)
        assert out.data[0, 1] == pytest.approx(1.0 / 3.0)

    def test_extreme_logits_still_normalize(self):
        out = T.softmax(T.tensor([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]]), axis=1)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_middle_axis(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 3))
        out = T.softmax(T.tensor(x), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5))
        c = rng.normal(size=(2, 5))
        err = grad_check(lambda t: T.sum_all(T.mul(T.softmax(t, axis=1), T.tensor(c))), [x])
        assert err < 1e-4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                    min_size=2, max_size=8))
    def test_rows_are_distributions(self, logits):
        out = T.softmax(T.tensor([logits]), axis=1).data
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestGumbelStraightThrough:
    def test_forward_is_one_hot(self):
        rng = np.random.default_rng(5)
        out = T.gumbel_softmax_st(T.tensor(np.zeros((4, 3))), axis=1, temperature=1.0, rng=rng)
        assert np.array_equal(np.sort(out.data, axis=1), np.tile([0.0, 0.0, 1.0], (4, 1)))

    def test_dominant_logit_always_wins(self):
        rng = np.random.default_rng(6)
        logits = T.tensor(np.tile([50.0, 0.0], (200, 1)))
        out = T.gumbel_softmax_st(logits, axis=1, temperature=1.0, rng=rng)
        assert np.all(out.data[:, 0] == 1.0)

    def test_tied_logits_split_evenly(self):
        rng = np.random.default_rng(7)
        out = T.gumbel_softmax_st(T.tensor(np.zeros((10000, 2))), axis=1,
                                  temperature=1.0, rng=rng)
        frequency = out.data[:, 0].mean()
        assert abs(frequency - 0.5) < 0.02

    def test_fixed_seed_reproduces_bits(self):
        logits = np.random.default_rng(8).normal(size=(6, 4))
        a = T.gumbel_softmax_st(T.tensor(logits), axis=1, temperature=0.7,
                                rng=np.random.default_rng(99))
        b = T.gumbel_softmax_st(T.tensor(logits), axis=1, temperature=0.7,
                                rng=np.random.default_rng(99))
        assert np.array_equal(a.data, b.data)

    def test_backward_matches_soft_path(self):
        # Replays the same noise through an explicit softmax((l+g)/temp) graph
        # and compares gradients; the straight-through estimator must be the
        # gradient of the soft distribution at the identical draw.
        logits = np.random.default_rng(9).normal(size=(3, 4))
        c = np.random.default_rng(10).normal(size=(3, 4))
        temperature = 0.8

        p = T.parameter(logits.copy())
        out = T.gumbel_softmax_st(p, axis=1, temperature=temperature,
                                  rng=np.random.default_rng(123))
        T.sum_all(T.mul(out, T.tensor(c))).backward()

        eps = 1e-20
        u = np.random.default_rng(123).random(size=logits.shape)
        noise = -np.log(-np.log(u + eps) + eps)
        q = T.parameter(logits.copy())
        soft = T.softmax(T.mul(T.add(q, T.tensor(noise)), T.tensor(1.0 / temperature)), axis=1)
        T.sum_all(T.mul(soft, T.tensor(c))).backward()

        assert np.allclose(p.grad, q.grad, atol=1e-12)

    def test_float32_logits_keep_their_dtype_and_the_noise_stream(self):
        # the noise is drawn in float64 either way, so a float32 trial routes
        # with the same draws, and cast, so it does not upcast the logits
        logits = np.random.default_rng(11).normal(size=(5, 4))
        rngs = [np.random.default_rng(12), np.random.default_rng(12)]
        p = T.parameter(logits.astype(np.float32))
        out = T.gumbel_softmax_st(p, axis=1, temperature=0.7, rng=rngs[0])
        T.gumbel_softmax_st(T.tensor(logits), axis=1, temperature=0.7, rng=rngs[1])
        assert out.dtype == np.float32
        assert rngs[0].random() == rngs[1].random()
        T.sum_all(out).backward()
        assert p.grad.dtype == np.float32

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            T.gumbel_softmax_st(T.tensor([[0.0, 1.0]]), axis=1, temperature=0.0,
                                rng=np.random.default_rng(0))


class TestHardArgmax:
    def test_selects_max(self):
        out = T.hard_argmax(T.tensor([[0.1, 5.0, -2.0]]), axis=1)
        assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])

    def test_blocks_gradient(self):
        x = T.parameter([[0.1, 5.0, -2.0]])
        out = T.hard_argmax(x, axis=1)
        loss = T.sum_all(T.mul(out, out))
        loss.backward()
        assert np.array_equal(x.grad, np.zeros((1, 3)))


class TestCrossEntropy:
    def test_uniform_two_way_is_log_two(self):
        loss = T.cross_entropy_loss(T.tensor([[0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log(2.0))

    def test_confident_correct_is_near_zero(self):
        loss = T.cross_entropy_loss(T.tensor([[40.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_mean_over_batch(self):
        loss = T.cross_entropy_loss(T.tensor([[0.0, 0.0], [0.0, 0.0]]), [0, 1])
        assert loss.item() == pytest.approx(math.log(2.0))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 6))
        targets = [0, 3, 5, 2]
        err = grad_check(lambda t: T.cross_entropy_loss(t, targets), [logits], h=1e-6)
        assert err < 1e-5

    def test_rejects_bad_target_index(self):
        with pytest.raises(ValueError):
            T.cross_entropy_loss(T.tensor([[0.0, 0.0]]), [2])
        with pytest.raises(ValueError):
            T.cross_entropy_loss(T.tensor([[0.0, 0.0]]), [-1])

    def test_rejects_non_2d_logits(self):
        with pytest.raises(ValueError):
            T.cross_entropy_loss(T.tensor([0.0, 1.0]), [0])

    @pytest.mark.parametrize("shape", [(4, 3, 6), (4, 1, 6)], ids=["blocks", "one-block"])
    def test_blocks_are_bitwise_the_flattened_loss(self, shape):
        # the logits are a node with a second consumer, so the loss's
        # gradient meets the other one in the node's buffer
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=shape[:-1] + (5,)), rng.normal(size=(5, shape[-1]))
        c = T.tensor(rng.normal(size=shape))
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        runs = []
        for loss_fn in (T.cross_entropy_loss, composed.block_cross_entropy):
            params = [T.parameter(x.copy()), T.parameter(w.copy())]
            logits = T.affine(*params)
            loss = loss_fn(logits, targets)
            T.add(loss, T.sum_all(T.mul(logits, c))).backward()
            runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in params])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("logits_shape, targets_shape", [
        ((4, 3, 6), (4,)),        # one target per example, not per block
        ((4, 3, 6), (12,)),       # the flattened targets
        ((4, 3, 6), (4, 3, 1)),
        ((4, 6), (4, 1)),
        ((), ()),                 # no class axis
    ])
    def test_rejects_targets_not_shaped_like_the_leading_axes(self, logits_shape,
                                                              targets_shape):
        with pytest.raises(ValueError, match="leading axes"):
            T.cross_entropy_loss(T.tensor(np.zeros(logits_shape)),
                                 np.zeros(targets_shape, dtype=np.int64))


class TestShapeOps:
    def test_reshape_round_trip_gradient(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        err = grad_check(lambda t: T.sum_all(T.mul(T.reshape(t, (2, 6)), T.reshape(t, (2, 6)))), [x])
        assert err < 1e-4

    def test_transpose_gradient(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 4))
        c = rng.normal(size=(4, 3, 2))
        err = grad_check(
            lambda t: T.sum_all(T.mul(composed.transpose(t, (2, 1, 0)), T.tensor(c))), [x])
        assert err < 1e-4

    def test_concat_splits_gradient(self):
        a = T.parameter(np.ones((2, 2)))
        b = T.parameter(np.ones((2, 3)))
        out = T.concat([a, b], axis=1)
        assert out.data.shape == (2, 5)
        T.sum_all(T.mul(out, T.tensor(np.arange(10, dtype=np.float64).reshape(2, 5)))).backward()
        assert np.array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_slice_gradient_pads_with_zeros(self):
        x = T.parameter(np.arange(10, dtype=np.float64).reshape(2, 5))
        out = T.slice_axis(x, axis=1, start=1, stop=3)
        assert np.array_equal(out.data, [[1.0, 2.0], [6.0, 7.0]])
        T.sum_all(out).backward()
        assert np.array_equal(x.grad, [[0, 1, 1, 0, 0], [0, 1, 1, 0, 0]])


class TestBackwardPass:
    def test_sum_all_gradient_is_ones(self):
        x = T.parameter(np.zeros((3, 2)))
        T.sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_identity_path_gradient_is_one(self):
        x = T.parameter([3.0])
        y = x + 0.0
        T.sum_all(y).backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_requires_scalar_loss(self):
        x = T.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            T.add(x, x).backward()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_parameter_owns_a_negative_zero_grad_from_construction(self, dtype):
        x = T.parameter(np.ones((2, 3), dtype=dtype))
        assert x.grad.shape == (2, 3) and x.grad.dtype == dtype
        assert np.all(x.grad == 0.0) and np.all(np.signbit(x.grad))

    def test_backward_takes_no_params(self):
        x = T.parameter([1.0])
        with pytest.raises(TypeError):
            T.sum_all(x).backward(params=[x])

    def test_unreached_parameter_gets_zero_grad(self):
        used = T.parameter([1.0])
        unused = T.parameter([1.0])
        T.sum_all(used).backward()
        assert np.array_equal(unused.grad, [0.0])

    def test_shared_node_accumulates(self):
        x = T.parameter([2.0])
        y = T.add(T.mul(x, x), x)
        T.sum_all(y).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_no_grad_records_nothing(self):
        x = T.parameter([1.0, 2.0])
        with T.no_grad():
            y = T.sum_all(T.mul(x, x) + 1.0)
        assert not y.requires_grad
        assert y._parents == () and y._backward_fn is None
        assert y.item() == 7.0
        assert x.requires_grad
        assert T.sum_all(T.mul(x, x)).requires_grad

    def test_no_grad_nests_and_restores_recording_after_an_error(self):
        x = T.parameter([1.0])
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert not (x * 2.0).requires_grad
                raise RuntimeError("inside")
        y = x * 2.0
        assert y.requires_grad and y._parents
        T.sum_all(y).backward()
        assert x.grad[0] == 2.0

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = T.parameter([1.0])
        y = x
        for _ in range(5000):
            y = y + 0.0
        T.sum_all(y).backward()
        assert x.grad[0] == pytest.approx(1.0)


class TestGradientOwnership:
    def test_leaf_used_twice_owns_one_buffer(self):
        x = T.parameter([3.0])
        T.sum_all(T.add(x, x)).backward()
        assert x.grad[0] == 2.0
        # with an optimizer, both gradients add into the leaf's view of its
        # buffer, and a norm of 2 clipped to 0.1 scales that buffer once
        y = T.parameter([3.0])
        state = AdamState([y])
        T.sum_all(T.add(y, y)).backward()
        assert y.grad[0] == 2.0 and np.shares_memory(y.grad, state.grad)
        clip_global_norm(state, max_norm=0.1)
        assert y.grad[0] == pytest.approx(0.1)

    def test_leaves_given_one_gradient_get_separate_buffers(self):
        a = T.parameter([1.0])
        b = T.parameter([1.0])
        T.sum_all(T.add(a, b)).backward()
        assert a.grad is not b.grad
        # the optimizer takes the gradients in, and its clip scales both
        clip_global_norm(AdamState([a, b]), max_norm=0.1)
        assert a.grad[0] == pytest.approx(0.1 / np.sqrt(2.0))
        assert b.grad[0] == pytest.approx(0.1 / np.sqrt(2.0))

    def test_transposed_first_gradient_is_stored_c_contiguous(self):
        rng = np.random.default_rng(3)
        x = T.parameter(rng.normal(size=(2, 3)))
        c = rng.normal(size=(3, 2))
        y = T.mul(x, T.tensor(2.0))
        seen = []
        backward = y._backward_fn

        def spy(g):
            seen.append(g)
            backward(g)

        y._backward_fn = spy
        T.sum_all(T.mul(composed.transpose(y, (1, 0)), T.tensor(c))).backward()
        assert seen[0].flags.c_contiguous
        assert np.array_equal(seen[0], c.T)
        assert np.array_equal(x.grad, 2.0 * c.T)

    def test_mix_weights_gradient_is_stored_c_contiguous(self):
        rng = np.random.default_rng(5)
        p = T.parameter(rng.normal(size=(2, 3, 4)))
        blocks = rng.normal(size=(2, 3, 5))
        c = rng.normal(size=(2, 4, 5))
        weights = T.mul(p, T.tensor(2.0))
        seen = []
        backward = weights._backward_fn

        def spy(g):
            seen.append(g)
            backward(g)

        weights._backward_fn = spy
        T.sum_all(T.mul(T.mix(weights, T.tensor(blocks)), T.tensor(c))).backward()
        want = (c @ blocks.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert seen[0].flags.c_contiguous
        assert np.array_equal(seen[0], want)
        assert np.array_equal(p.grad, 2.0 * want)

    def test_only_leaves_keep_a_grad_after_backward(self):
        x = T.parameter(np.ones((2, 3)))
        h = T.mul(x, x)
        y = T.reshape(h, (3, 2))
        loss = T.sum_all(y)
        loss.backward()
        assert h.grad is None and y.grad is None and loss.grad is None
        assert np.array_equal(x.grad, 2.0 * np.ones((2, 3)))

    def test_slice_never_writes_into_a_shared_gradient(self):
        # add hands one array to both u and v; v's own term puts v last in
        # the backward order, so v reads that array only after the slice of
        # u has run its backward, which must not have added into it
        rng = np.random.default_rng(4)
        p = T.parameter(rng.normal(size=(2, 3)))
        q = T.parameter(rng.normal(size=(2, 3)))
        c, c3 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        c2 = rng.normal(size=(2, 1))
        u = T.mul(p, T.tensor(1.0))
        v = T.mul(q, T.tensor(1.0))
        both = T.sum_all(T.mul(T.add(u, v), T.tensor(c)))
        sliced = T.sum_all(T.mul(T.slice_axis(u, 1, 0, 1), T.tensor(c2)))
        alone = T.sum_all(T.mul(v, T.tensor(c3)))
        T.add(T.add(both, sliced), alone).backward()
        want_p = c.copy()
        want_p[:, :1] += c2
        assert np.allclose(p.grad, want_p, rtol=0, atol=1e-15)
        assert np.allclose(q.grad, c + c3, rtol=0, atol=1e-15)


class TestFusedOps:
    def test_affine_is_bitwise_matmul_then_add(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,))]
        c = T.tensor(rng.normal(size=(6, 3)))
        fused = [T.parameter(a.copy()) for a in arrays]
        split = [T.parameter(a.copy()) for a in arrays]
        out_f = T.affine(*fused)
        out_s = T.add(composed.matmul(split[0], split[1]), split[2])
        assert out_f.data.tobytes() == out_s.data.tobytes()
        T.sum_all(T.mul(out_f, c)).backward()
        T.sum_all(T.mul(out_s, c)).backward()
        for f, s in zip(fused, split):
            assert f.grad.tobytes() == s.grad.tobytes()

    @pytest.mark.parametrize("x_shape", [(3, 5, 4), (2, 3, 5, 4)], ids=["3d", "4d"])
    def test_batched_affine_is_bitwise_matmul_then_add(self, x_shape):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=(3,))]
        c = T.tensor(rng.normal(size=x_shape[:-1] + (3,)))
        fused = [T.parameter(a.copy()) for a in arrays]
        split = [T.parameter(a.copy()) for a in arrays]
        # x as an intermediate node too, so its gradient flows on
        x = T.mul(fused[0], T.tensor(1.5))
        out_f = T.affine(x, fused[1], fused[2])
        out_s = T.add(composed.matmul(T.mul(split[0], T.tensor(1.5)), split[1]), split[2])
        assert out_f.data.tobytes() == out_s.data.tobytes()
        T.sum_all(T.mul(out_f, c)).backward()
        T.sum_all(T.mul(out_s, c)).backward()
        for i in (0, 2):
            assert fused[i].grad.tobytes() == split[i].grad.tobytes()
        # the weight gradient is one 2-D product over the flattened leading
        # axes, where matmul sums one product per leading index
        fold = x.data.reshape(-1, 4).T @ c.data.reshape(-1, 3)
        assert fused[1].grad.tobytes() == fold.tobytes()

    def test_bias_free_affine_is_bitwise_a_zero_bias(self):
        rng = np.random.default_rng(15)
        arrays = [rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 3))]
        c = T.tensor(rng.normal(size=(3, 5, 3)))
        free = [T.parameter(a.copy()) for a in arrays]
        zero = [T.parameter(a.copy()) for a in arrays]
        out_f = T.affine(T.mul(free[0], T.tensor(1.5)), free[1])
        out_z = T.affine(T.mul(zero[0], T.tensor(1.5)), zero[1], T.tensor(np.zeros(3)))
        assert len(out_f._parents) == 2
        assert out_f.data.tobytes() == out_z.data.tobytes()
        T.sum_all(T.mul(out_f, c)).backward()
        T.sum_all(T.mul(out_z, c)).backward()
        for f, z in zip(free, zero):
            assert f.grad.tobytes() == z.grad.tobytes()

    @pytest.mark.parametrize("shapes", [
        ((4,), (4, 3), (3,)),        # 1-D input
        ((2, 5, 4), (5, 3), (3,)),   # inner dimensions disagree
        ((2, 5, 4), (4, 3), (1, 3)), # bias not 1-D
    ], ids=["vector", "inner", "bias"])
    def test_affine_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError):
            T.affine(*(T.tensor(np.ones(shape)) for shape in shapes))

    def test_band_excess_is_bitwise_the_composed_penalty(self):
        x = np.random.default_rng(6).normal(scale=3.0, size=(4, 5))
        fused = T.parameter(x.copy())
        split = T.parameter(x.copy())
        out_f = T.band_excess([fused], 2.0)
        out_s = composed.band_excess([split], 2.0)
        assert out_f.data.tobytes() == out_s.data.tobytes()
        T.mul(out_f, T.tensor(0.7)).backward()
        T.mul(out_s, T.tensor(0.7)).backward()
        assert fused.grad.tobytes() == split.grad.tobytes()
        assert np.any(fused.grad != 0.0) and np.any(fused.grad == 0.0)

    def test_band_excess_over_a_list_is_bitwise_the_add_chain(self):
        # three tensors, one of them twice, all intermediate nodes: the terms
        # sum left to right and each tensor's gradients meet in its buffer
        rng = np.random.default_rng(18)
        arrays = [rng.normal(scale=3.0, size=(4, 5)), rng.normal(scale=3.0, size=(2, 3)),
                  rng.normal(scale=3.0, size=(6,))]
        c = T.tensor(rng.normal(size=(4, 5)))
        grads = []
        for penalty in (T.band_excess, composed.band_excess):
            params = [T.parameter(a.copy()) for a in arrays]
            xs = [T.mul(p, T.tensor(1.5)) for p in params]
            out = penalty([xs[0], xs[1], xs[0], xs[2]], 2.0)
            loss = T.add(T.mul(out, T.tensor(0.7)), T.sum_all(T.mul(xs[0], c)))
            loss.backward()
            grads.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
        assert grads[0] == grads[1]

    def test_mix_is_bitwise_the_composed_ops(self):
        rng = np.random.default_rng(16)
        arrays = [rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 5))]
        c = T.tensor(rng.normal(size=(3, 2, 5)))
        c2 = T.tensor(rng.normal(size=(3, 4, 2)))
        grads = []
        for mix in (T.mix, composed.mix):
            params = [T.parameter(a.copy()) for a in arrays]
            # normalized weights and intermediate blocks, as the Multiplexer
            # has them; the weights feed a second term, as the image task's
            # routing bias reads them
            weights = T.softmax(params[0], axis=1)
            out = mix(weights, T.mul(params[1], T.tensor(1.5)))
            loss = T.add(T.sum_all(T.mul(out, c)), T.sum_all(T.mul(weights, c2)))
            loss.backward()
            grads.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
        assert grads[0] == grads[1]

    def gate_case(self, fused):
        """(out, gates, parameter gradients) of a gate whose trunk is an
        affine node that also feeds a penalized slice, and whose logits are
        penalized too, so two gradients meet in each of their buffers."""
        rng = np.random.default_rng(17)
        params = [T.parameter(a) for a in (
            rng.normal(size=(32, 3, 4)), rng.normal(size=(32, 6)),
            rng.normal(scale=2.0, size=(6, 15)), rng.normal(size=(15,)))]
        c = T.tensor(rng.normal(size=(32, 3, 4)))
        routed = T.mul(params[0], T.tensor(1.5))
        trunk = T.affine(*params[1:])
        if fused:
            logits = T.slice_axis(trunk, 1, 12, 15)
            out, gates = T.gate(routed, trunk, logits)
        else:
            out, gates, logits = composed.gate(routed, trunk)
        penalty = T.band_excess([logits, T.slice_axis(trunk, 1, 2, 6)], 1.0)
        assert penalty.data > 0.0
        T.add(T.sum_all(T.mul(out, c)), penalty).backward()
        return out.data, gates.data, [p.grad for p in params]

    def test_gate_is_bitwise_the_composed_ops(self):
        out_f, gates_f, grads_f = self.gate_case(fused=True)
        out_s, gates_s, grads_s = self.gate_case(fused=False)
        assert out_f.tobytes() == out_s.tobytes()
        assert gates_f.tobytes() == gates_s.tobytes()
        for f, s in zip(grads_f, grads_s):
            assert f.tobytes() == s.tobytes()

    def test_gate_values_are_a_constant_record(self):
        rng = np.random.default_rng(19)
        routed, trunk = T.parameter(rng.normal(size=(2, 3, 4))), T.parameter(rng.normal(size=(2, 15)))
        logits = T.slice_axis(trunk, 1, 12, 15)
        out, gates = T.gate(routed, trunk, logits)
        assert out.requires_grad and out._parents == (routed, trunk, logits)
        assert out.shape == (2, 3, 4) and gates.shape == (2, 3)
        assert not gates.requires_grad
        assert gates._parents == () and gates._backward_fn is None

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (2, 14), (2, 3)),  # trunk one column short
        ((2, 3, 4), (2, 15), (2, 2)),  # one logit short
        ((2, 3, 4), (1, 15), (1, 3)),  # batches differ
    ], ids=["trunk", "logits", "batch"])
    def test_gate_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError):
            T.gate(*(T.tensor(np.ones(shape)) for shape in shapes))

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (2, 4, 5)),  # input block counts differ
        ((2, 3, 4), (1, 3, 5)),  # batches differ
        ((3, 4), (3, 5)),        # no batch axis
    ], ids=["inputs", "batch", "2d"])
    def test_mix_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError):
            T.mix(*(T.tensor(np.ones(shape)) for shape in shapes))

    RESIDUALS = {"same": ((3, 5, 4), (3, 5, 2)), "broadcast": ((3, 5, 4), (1, 5, 2))}

    @pytest.mark.parametrize("shapes", list(RESIDUALS.values()), ids=list(RESIDUALS))
    def test_affine_residual_is_bitwise_add_of_the_residual(self, shapes):
        x_shape, r_shape = shapes
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 2)), rng.normal(size=(2,)),
                  rng.normal(size=r_shape)]
        c = T.tensor(rng.normal(size=np.broadcast_shapes(x_shape[:-1] + (2,), r_shape)))
        fused = [T.parameter(a.copy()) for a in arrays]
        split = [T.parameter(a.copy()) for a in arrays]
        # the residual as an intermediate node, as the residual stream is
        out_f = T.affine(*fused[:3], residual=T.mul(fused[3], T.tensor(1.5)))
        out_s = T.add(T.mul(split[3], T.tensor(1.5)), T.affine(*split[:3]))
        assert out_f.data.tobytes() == out_s.data.tobytes()
        T.sum_all(T.mul(out_f, c)).backward()
        T.sum_all(T.mul(out_s, c)).backward()
        for f, s in zip(fused, split):
            assert f.grad.tobytes() == s.grad.tobytes()

    def test_affine_rejects_a_residual_the_product_does_not_hold(self):
        # the product [1, 5, 2] would have to broadcast up to the residual
        x, w, b, r = (T.tensor(np.ones(s)) for s in ((1, 5, 4), (4, 2), (2,), (3, 5, 2)))
        with pytest.raises(ValueError, match="residual"):
            T.affine(x, w, b, residual=r)

    def test_affine_residual_keeps_add_order_into_a_shared_ancestor(self):
        # p reaches the node through the residual and through two products
        # in x, as the residual stream reaches a layer; three gradients
        # summed in another order round differently
        rng = np.random.default_rng(13)
        arrays = [rng.normal(size=(3, 5, 2)), rng.normal(size=(4, 2)), rng.normal(size=(2,))]
        c = T.tensor(rng.normal(size=(3, 5, 2)))
        grads = []
        for fused in (True, False):
            p, w, b = (T.parameter(a.copy()) for a in arrays)
            r = T.mul(p, T.tensor(1.5))
            x = T.concat([T.mul(p, T.tensor(2.0)), T.mul(p, T.tensor(0.3))], axis=2)
            out = (T.affine(x, w, b, residual=r) if fused
                   else T.add(r, T.affine(x, w, b)))
            T.sum_all(T.mul(out, c)).backward()
            grads.append(p.grad.tobytes())
        assert grads[0] == grads[1]

    def test_affine_residual_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,)),
                  rng.normal(size=(1, 3, 2))]
        c = T.tensor(rng.normal(size=(2, 3, 2)))
        err = grad_check(lambda x, w, b, r: T.sum_all(T.mul(T.affine(x, w, b, residual=r), c)),
                         arrays)
        assert err < 1e-6

    # query and key/value batches: both B, batch-1 queries, batch 1 on both
    # sides, and batch-1 keys/values
    ATTENTION_BATCHES = {"both": (3, 3), "queries_1": (1, 3), "both_1": (1, 1),
                         "keys_values_1": (3, 1)}

    @staticmethod
    def composed_attention(q, k, v, heads):
        """The attention of [b, n, width] operands in separate ops: the head
        split, the scaled scores, the softmax, the mix and the head merge."""
        def split(x):
            b, n, width = x.shape
            return composed.transpose(T.reshape(x, (b, n, heads, width // heads)), (0, 2, 1, 3))

        q, k, v = split(q), split(k), split(v)
        scale = 1.0 / np.sqrt(q.shape[3])
        scores = composed.matmul(q, composed.transpose(k, (0, 1, 3, 2)))
        weights = T.softmax(scores * scale, axis=3)
        mixed = composed.transpose(composed.matmul(weights, v), (0, 2, 1, 3))
        batch, n, _, _ = mixed.shape
        return T.reshape(mixed, (batch, n, heads * q.shape[3])), weights

    @pytest.mark.parametrize("batches", list(ATTENTION_BATCHES.values()),
                             ids=list(ATTENTION_BATCHES))
    def test_attention_is_bitwise_the_composed_ops(self, batches):
        q_batch, kv_batch = batches
        heads, width = 2, 6
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(q_batch, 4, width)),
                  rng.normal(size=(kv_batch, 5, width)),
                  rng.normal(size=(kv_batch, 5, width))]
        c = T.tensor(rng.normal(size=(max(batches), 4, width)))
        fused = [T.parameter(a.copy()) for a in arrays]
        split = [T.parameter(a.copy()) for a in arrays]
        # the operands as intermediate nodes, as the projections are
        out_f, weights_f = T.attention(*(T.mul(x, T.tensor(1.5)) for x in fused), heads)
        out_s, weights_s = self.composed_attention(
            *(T.mul(x, T.tensor(1.5)) for x in split), heads)
        assert out_f.data.tobytes() == out_s.data.tobytes()
        assert weights_f.data.tobytes() == weights_s.data.tobytes()
        T.sum_all(T.mul(out_f, c)).backward()
        T.sum_all(T.mul(out_s, c)).backward()
        # each operand's gradient reaches its parameter with the bits of the
        # head split's backward
        for f, s in zip(fused, split):
            assert f.grad.tobytes() == s.grad.tobytes()

    def attention_grad_of_a_shared_input(self, attention, scales):
        rng = np.random.default_rng(14)
        x = T.parameter(rng.normal(size=(2, 4, 6)))
        c = T.tensor(rng.normal(size=(2, 4, 6)))
        nodes = {s: T.mul(x, T.tensor(s)) for s in scales}
        out = attention(*(nodes[s] for s in scales), 2)[0]
        T.sum_all(T.mul(out, c)).backward()
        return x.grad.tobytes()

    def test_attention_keeps_the_composed_order_into_a_shared_input(self):
        # self-attention: q, k and v all reach back to x, whose three
        # gradients summed in another order round differently
        scales = (0.7, 1.3, 2.1)
        assert (self.attention_grad_of_a_shared_input(T.attention, scales)
                == self.attention_grad_of_a_shared_input(self.composed_attention, scales))

    def test_attention_keeps_the_composed_order_into_one_node_passed_thrice(self):
        # the node gets its q, k and v gradients in the order the composed
        # head splits gave them
        scales = (0.7, 0.7, 0.7)
        assert (self.attention_grad_of_a_shared_input(T.attention, scales)
                == self.attention_grad_of_a_shared_input(self.composed_attention, scales))

    def test_attention_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=(1, 3, 4)), rng.normal(size=(2, 4, 4)),
                  rng.normal(size=(2, 4, 4))]
        c = T.tensor(rng.normal(size=(2, 3, 4)))

        def loss(xq, xk, xv):
            return T.sum_all(T.mul(T.attention(xq, xk, xv, 2)[0], c))

        assert grad_check(loss, arrays) < 1e-6

    def test_attention_weights_are_a_constant_record(self):
        rng = np.random.default_rng(12)
        q, k, v = (T.parameter(rng.normal(size=(2, n, 6))) for n in (4, 5, 5))
        out, weights = T.attention(q, k, v, 2)
        assert out.requires_grad and out._parents == (q, k, v)
        assert out.shape == (2, 4, 6) and weights.shape == (2, 2, 4, 5)
        assert not weights.requires_grad
        assert weights._parents == () and weights._backward_fn is None

    @pytest.mark.parametrize("shapes", [
        ((2, 2, 4, 3), (2, 5, 6), (2, 5, 6)),  # queries not 3-D
        ((2, 4, 6), (2, 5, 6), (2, 6, 6)),     # keys and values differ
        ((2, 4, 5), (2, 5, 5), (2, 5, 5)),     # width not divisible by the heads
        ((2, 4, 6), (2, 5, 4), (2, 5, 4)),     # widths differ
        ((2, 4, 6), (3, 5, 6), (3, 5, 6)),     # batches do not broadcast
    ], ids=["3d", "keys_values", "heads", "head_dim", "batch"])
    def test_attention_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError):
            T.attention(*(T.tensor(np.ones(shape)) for shape in shapes), 2)


# values whose bits the one-allocation ops must keep: signed zeros,
# infinities, NaN, subnormals and ordinary numbers of both signs
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                    -2.2e-308, 1e-310, -1e-310, 1.0, -1.0, 3.5, -7.25, 1e300, -1e300])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestOneAllocationOps:
    def grads(self):
        rng = np.random.default_rng(3)
        return np.concatenate([SPECIAL, rng.normal(size=SPECIAL.size)])

    def test_leaky_relu_keeps_the_bits_of_the_factor_formula(self):
        x = np.concatenate([SPECIAL, SPECIAL[::-1]])
        g = self.grads()
        for slope in (0.01, 0.3):
            factor = np.where(x >= 0, 1.0, slope)
            p = T.parameter(x.copy())
            out = T.leaky_relu(p, slope)
            assert np.array_equal(_bits(out.data), _bits(x * factor))
            out._backward_fn(g.copy())
            assert np.array_equal(_bits(p.grad), _bits(g * factor))

    def test_softmax_keeps_the_bits_of_the_three_temporary_formula(self):
        rng = np.random.default_rng(4)
        rows = [SPECIAL[i:i + 4] for i in range(0, SPECIAL.size - 3)]
        x = np.concatenate([np.stack(rows), rng.normal(scale=30.0, size=(6, 4))])
        g = rng.normal(size=x.shape)
        g[0] = SPECIAL[:4]
        for axis in (0, 1):
            with np.errstate(invalid="ignore", over="ignore"):
                shifted = x - x.max(axis=axis, keepdims=True)
                ex = np.exp(shifted)
                want = ex / ex.sum(axis=axis, keepdims=True)
                want_grad = (g - (g * want).sum(axis=axis, keepdims=True)) * want
                p = T.parameter(x.copy())
                out = T.softmax(p, axis)
                out._backward_fn(g.copy())
            assert np.array_equal(_bits(out.data), _bits(want))
            assert np.array_equal(_bits(p.grad), _bits(want_grad))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_softmax_over_a_short_last_axis_keeps_the_bits_of_the_max_formula(self, n):
        # over the last axis the row max is taken column by column
        rng = np.random.default_rng(7)
        values = np.concatenate([SPECIAL, SPECIAL[::-1], rng.normal(scale=30.0, size=2 * n)])
        rows = np.stack([np.roll(values, -i)[:n] for i in range(values.size)])
        for x in (rows, rows.reshape(-1, 2, n)):
            g = rng.normal(size=x.shape)
            g.reshape(-1)[:SPECIAL.size] = SPECIAL
            for axis in (-1, x.ndim - 1):
                with np.errstate(invalid="ignore", over="ignore"):
                    shifted = x - x.max(axis=axis, keepdims=True)
                    ex = np.exp(shifted)
                    want = ex / ex.sum(axis=axis, keepdims=True)
                    want_grad = (g - (g * want).sum(axis=axis, keepdims=True)) * want
                    p = T.parameter(x.copy())
                    out = T.softmax(p, axis)
                    out._backward_fn(g.copy())
                assert np.array_equal(_bits(out.data), _bits(want))
                assert np.array_equal(_bits(p.grad), _bits(want_grad))

    def test_a_weight_shared_by_two_affine_nodes_gets_the_summed_gradient(self):
        rng = np.random.default_rng(8)
        w = T.parameter(rng.normal(size=(4, 3)))
        b = T.parameter(rng.normal(size=3))
        other = T.parameter(rng.normal(size=(5, 4)))
        state = AdamState([w, b, other])
        x1, x2 = T.mul(other, T.tensor(1.5)), T.tensor(rng.normal(size=(2, 5, 4)))
        y1, y2 = T.affine(x1, w, b), T.affine(x2, w, b)
        c1, c2 = T.tensor(rng.normal(size=y1.shape)), T.tensor(rng.normal(size=y2.shape))
        loss = T.add(T.sum_all(T.mul(y1, c1)), T.sum_all(T.mul(y2, c2)))
        loss.backward()
        g1, g2 = c1.data, c2.data
        want_w = x1.data.T @ g1 + x2.data.reshape(-1, 4).T @ g2.reshape(-1, 3)
        want_b = g1.sum(axis=0) + g2.sum(axis=(0, 1))
        want_other = (g1 @ w.data.T) * 1.5
        assert np.array_equal(_bits(w.grad), _bits(want_w))
        assert np.array_equal(_bits(b.grad), _bits(want_b))
        assert np.array_equal(_bits(other.grad), _bits(want_other))
        graph = [t.data for t in (w, b, other, x1, x2, y1, y2, c1, c2, loss)]
        before = [a.copy() for a in graph]
        scale = clip_global_norm(state, max_norm=1e-3)
        assert scale < 1.0
        assert np.array_equal(_bits(w.grad), _bits(want_w * scale))
        assert np.array_equal(_bits(b.grad), _bits(want_b * scale))
        assert np.array_equal(_bits(other.grad), _bits(want_other * scale))
        for a, copy in zip(graph, before):
            assert np.array_equal(_bits(a), _bits(copy))

    def test_transpose_backward_undoes_every_permutation(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(2, 3, 4, 5))
        perms = list(itertools.permutations(range(4))) + [(0, -1, 1, -2), (-1, -2, -3, -4)]
        for axes in perms:
            x = T.parameter(data.copy())
            out = composed.transpose(x, axes)
            g = rng.normal(size=out.shape)
            out._backward_fn(g.copy())
            assert x.grad.shape == data.shape
            assert np.array_equal(x.grad, g.transpose(np.argsort(np.mod(axes, 4))))

    def test_gumbel_backward_keeps_the_bits_of_the_soft_formula(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        p = T.parameter(logits.copy())
        out = T.gumbel_softmax_st(p, 1, 0.7, np.random.default_rng(9))
        out._backward_fn(g.copy())
        u = np.random.default_rng(9).random(size=logits.shape)
        noise = -np.log(-np.log(u + 1e-20) + 1e-20)
        perturbed = (logits + noise) / 0.7
        ex = np.exp(perturbed - perturbed.max(axis=1, keepdims=True))
        soft = ex / ex.sum(axis=1, keepdims=True)
        want = (g - (g * soft).sum(axis=1, keepdims=True)) * soft / 0.7
        assert np.array_equal(_bits(p.grad), _bits(want))

    @pytest.mark.parametrize("op", [T.add, composed.sub, T.mul], ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("constant_first", [True, False], ids=["left", "right"])
    def test_a_constant_operand_gets_no_gradient_formed(self, op, constant_first,
                                                         monkeypatch):
        rng = np.random.default_rng(6)
        const = T.tensor(rng.normal(size=(3, 4)))
        param = T.parameter(rng.normal(size=(3, 4)))
        out = op(const, param) if constant_first else op(param, const)
        formed = []
        unbroadcast = T._unbroadcast
        monkeypatch.setattr(T, "_unbroadcast",
                            lambda g, shape: formed.append(shape) or unbroadcast(g, shape))
        T.sum_all(out).backward()
        assert const.grad is None
        assert param.grad is not None
        assert formed == [(3, 4)]
