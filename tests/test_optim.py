import numpy as np
import pytest

from blockops import tensor as T
from blockops.optim import AdamState, adam_step, clip_global_norm, global_grad_norm


def make_param(values, grad=None):
    p = T.parameter(np.array(values, dtype=np.float64))
    if grad is not None:
        p.grad = np.array(grad, dtype=np.float64)
    return p


class TestAdam:
    def test_first_step_is_learning_rate_sized(self):
        p = make_param([0.0], grad=[1.0])
        state = AdamState([p], learning_rate=3e-4)
        adam_step(state)
        # bias correction makes the first update lr * g/|g| up to epsilon
        assert p.data[0] == pytest.approx(-3e-4, rel=1e-6)

    def test_zero_gradient_leaves_parameter(self):
        p = make_param([1.5], grad=[0.0])
        state = AdamState([p], learning_rate=3e-4)
        adam_step(state)
        assert p.data[0] == pytest.approx(1.5)

    def test_missing_gradient_treated_as_zero(self):
        p = make_param([1.5])
        state = AdamState([p], learning_rate=3e-4)
        adam_step(state)
        assert p.data[0] == pytest.approx(1.5)

    def test_grad_is_left_for_the_caller_to_zero(self):
        p = make_param([0.0], grad=[1.0])
        state = AdamState([p], learning_rate=3e-4)
        adam_step(state)
        assert p.grad[0] == 1.0 and np.shares_memory(p.grad, state.grad)

    def test_quadratic_descends(self):
        p = make_param([2.0])
        state = AdamState([p], learning_rate=0.05)
        losses = []
        for _ in range(200):
            loss = T.sum_all(T.mul(p, p))
            state.grad.fill(0.0)
            loss.backward()
            losses.append(loss.item())
            adam_step(state)
        assert losses[-1] < 0.01 * losses[0]

    def test_step_counter_advances(self):
        p = make_param([0.0], grad=[1.0])
        state = AdamState([p], learning_rate=1e-3)
        adam_step(state)
        assert state.step_count == 1
        p.grad[...] = 1.0
        adam_step(state)
        assert state.step_count == 2


def reference_adam(values, grads, lr, b1, b2, eps):
    """Adam one parameter at a time, as the textbook formula reads."""
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, step_grads in enumerate(grads, start=1):
        for p, mi, vi, g in zip(values, m, v2, step_grads):
            g = g if g is not None else np.zeros_like(p)
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * (g * g)
            m_hat = mi / (1.0 - b1 ** t)
            v_hat = vi / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


class TestFlatAdam:
    SHAPES = [(3, 4), (4,), (), (5, 1, 2)]

    def trajectory(self, dtype, steps=50):
        """Initial values and per-step gradients (None for no gradient) of
        the four SHAPES, some large enough that a clip at 0.1 fires."""
        rng = np.random.default_rng(7)
        values = [rng.normal(size=s).astype(dtype) for s in self.SHAPES]
        grads = [[None if rng.random() < 0.2 else
                  rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s).astype(dtype)
                  for s in self.SHAPES] for _ in range(steps)]
        return values, grads

    def flat_run(self, values, grads, max_norm=None):
        params = [T.parameter(v.copy()) for v in values]
        state = AdamState(params, learning_rate=1e-2, beta1=0.8, beta2=0.99, epsilon=1e-7)
        scales = []
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad[...] = 0.0 if g is None else g
            if max_norm is not None:
                scales.append(clip_global_norm(state, max_norm))
            adam_step(state)
        return params, scales

    def test_matches_per_parameter_reference_bitwise(self):
        values, grads = self.trajectory(np.float64)
        params, _ = self.flat_run(values, grads)
        want = reference_adam([v.copy() for v in values], grads, 1e-2, 0.8, 0.99, 1e-7)
        for p, w in zip(params, want):
            assert p.data.shape == w.shape
            assert p.data.tobytes() == w.tobytes()

    def test_clipped_steps_match_a_per_leaf_clip_within_4_ulps(self):
        # the flat clip sums the squares in another order than a clip leaf
        # by leaf, so its float32 scale may differ in the last place; each
        # update then rounds apart by about an ulp of the update, which
        # accumulates in the small entries, so the bound is 4 ulps of each
        # tensor's largest entry
        values, grads = self.trajectory(np.float32)
        params, scales = self.flat_run(values, grads, max_norm=0.1)
        assert sum(s < 1.0 for s in scales) >= 10
        clipped = []
        for step_grads in grads:
            present = [g for g in step_grads if g is not None]
            norm = np.sqrt(sum(float((g * g).sum()) for g in present))
            scale = 0.1 / norm if norm > 0.1 else 1.0
            clipped.append([None if g is None else g * scale for g in step_grads])
        want = reference_adam([v.copy() for v in values], clipped, 1e-2, 0.8, 0.99, 1e-7)
        for p, w in zip(params, want):
            assert p.data.dtype == w.dtype == np.float32
            assert np.abs(p.data - w).max() <= 4 * np.spacing(np.abs(w).max())

    def test_parameters_are_views_of_one_buffer(self):
        a = make_param([[1.0, 2.0]])
        b = make_param([3.0])
        state = AdamState([a, b])
        assert np.array_equal(state.flat, [1.0, 2.0, 3.0])
        # an in-place write reaches the optimizer's buffer
        b.data[...] = 5.0
        assert state.flat[2] == 5.0

    def test_gradients_are_views_of_one_buffer(self):
        a = make_param([[1.0, 2.0]], grad=[[4.0, 5.0]])
        b = make_param([3.0])
        c = make_param(np.zeros((2, 2)), grad=np.ones((2, 2)))
        state = AdamState([a, b, c])
        assert all(np.shares_memory(p.grad, state.grad) for p in (a, b, c))
        assert [p.grad.shape for p in (a, b, c)] == [(1, 2), (1,), (2, 2)]
        # a gradient held before construction is copied in, none reads zero
        assert np.array_equal(state.grad, [4.0, 5.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        # backward adds into the views in place
        T.sum_all(T.mul(b, T.tensor([2.0]))).backward()
        assert state.grad[2] == 2.0

    def test_rejects_mixed_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            AdamState([make_param([1.0]), T.parameter(np.array([1.0], dtype=np.float32))])


class TestGradClipping:
    def test_norm_is_global_over_parameters(self):
        a = make_param([0.0, 0.0], grad=[3.0, 0.0])
        b = make_param([0.0], grad=[4.0])
        assert global_grad_norm(AdamState([a, b])) == pytest.approx(5.0)

    def test_clip_rescales_above_threshold(self):
        a = make_param([0.0, 0.0], grad=[3.0, 0.0])
        b = make_param([0.0], grad=[4.0])
        state = AdamState([a, b])
        scale = clip_global_norm(state, max_norm=0.1)
        assert scale == pytest.approx(0.1 / 5.0)
        assert global_grad_norm(state) <= 0.1 + 1e-9
        # direction preserved
        assert a.grad[0] / b.grad[0] == pytest.approx(3.0 / 4.0)

    def test_clip_below_threshold_is_identity(self):
        a = make_param([0.0], grad=[0.01])
        scale = clip_global_norm(AdamState([a]), max_norm=0.1)
        assert scale == pytest.approx(1.0)
        assert a.grad[0] == pytest.approx(0.01)

    def test_clip_is_idempotent(self):
        a = make_param([0.0, 0.0, 0.0], grad=[5.0, -2.0, 1.0])
        state = AdamState([a])
        clip_global_norm(state, max_norm=0.1)
        first = a.grad.copy()
        clip_global_norm(state, max_norm=0.1)
        assert np.allclose(a.grad, first, atol=1e-15)

    def test_missing_grads_count_as_zero(self):
        a = make_param([0.0], grad=[4.0])
        b = make_param([0.0])
        assert global_grad_norm(AdamState([a, b])) == pytest.approx(4.0)

    def test_float32_clip_keeps_the_dtype_and_scales_by_a_float32_factor(self):
        # a numpy float64 scale would upcast the product; a Python float
        # acts as the gradients' own dtype
        rng = np.random.default_rng(2)
        params = [T.parameter(np.zeros(s, np.float32)) for s in [(30, 20), (20,)]]
        state = AdamState(params)
        state.grad[...] = rng.normal(size=state.grad.size)
        g = state.grad.copy()
        scale = clip_global_norm(state, max_norm=0.1)
        assert type(scale) is float and scale < 1.0
        assert state.grad.dtype == np.float32
        assert state.grad.tobytes() == (g * np.float32(scale)).tobytes()

    def test_rejects_nonpositive_max_norm(self):
        with pytest.raises(ValueError):
            clip_global_norm(AdamState([make_param([0.0], grad=[1.0])]), max_norm=0.0)
