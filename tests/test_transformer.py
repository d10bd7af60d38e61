import numpy as np
import pytest

from blockops import tensor as T
from blockops.transformer import Transformer, TransformerConfig, _Attention


def tiny_config(**overrides):
    base = dict(block_size=3, input_blocks=2, output_blocks=1, model_width=4,
                num_heads=2, num_encoder_layers=1, num_decoder_layers=1, ffn_width=4)
    base.update(overrides)
    return TransformerConfig(**base)


class TestAttention:
    def test_weights_are_distributions_over_sources(self):
        attn = _Attention(np.random.default_rng(0), width=8, heads=2, name="a")
        rng = np.random.default_rng(1)
        q = T.tensor(rng.normal(size=(2, 3, 8)))
        kv = T.tensor(rng.normal(size=(2, 5, 8)))
        out, weights = attn.forward(q, kv)
        assert out.data.shape == (2, 3, 8)
        assert weights.data.shape == (2, 2, 3, 5)
        assert np.allclose(weights.data.sum(axis=3), 1.0, atol=1e-9)

    def test_single_source_token_reduces_to_value_path(self):
        # one key/value token forces attention weight 1, so the output is just
        # the value projection followed by the output projection, added to
        # the residual stream of the queries
        attn = _Attention(np.random.default_rng(2), width=6, heads=1, name="a")
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 2, 6))
        kv = rng.normal(size=(2, 1, 6))
        out, weights = attn.forward(T.tensor(q), T.tensor(kv))
        assert np.all(weights.data == 1.0)
        v = kv @ attn.wv[0].data + attn.wv[1].data
        expected = q + (v @ attn.wo[0].data + attn.wo[1].data)
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_bias_free_keys_match_a_zero_key_bias_bitwise(self, monkeypatch):
        attn = _Attention(np.random.default_rng(4), width=8, heads=2, name="a")
        assert "a.bk" not in attn.parameters()
        rng = np.random.default_rng(5)
        q = T.tensor(rng.normal(size=(2, 3, 8)))
        kv = T.tensor(rng.normal(size=(2, 5, 8)))
        out, weights = attn.forward(q, kv)

        affine, zeros, keys = T.affine, T.tensor(np.zeros(8)), []

        def zero_key_bias(x, w, b=None, residual=None):
            if w is attn.wk:
                keys.append(b)
                b = zeros
            return affine(x, w, b, residual=residual)

        monkeypatch.setattr(T, "affine", zero_key_bias)
        ref_out, ref_weights = attn.forward(q, kv)
        assert keys == [None]
        assert out.data.tobytes() == ref_out.data.tobytes()
        assert weights.data.tobytes() == ref_weights.data.tobytes()


class TestTransformer:
    def test_output_shape(self):
        model = Transformer(tiny_config(output_blocks=3), np.random.default_rng(0))
        out, _ = model.forward(T.tensor(np.random.default_rng(1).normal(size=(4, 2, 3))))
        assert out.data.shape == (4, 3, 3)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            tiny_config(model_width=10, num_heads=4).validate()

    def test_rejects_wrong_input_shape(self):
        model = Transformer(tiny_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward(T.tensor(np.zeros((1, 3, 3))))

    def test_position_embeddings_break_permutation_symmetry(self):
        model = Transformer(tiny_config(input_blocks=3), np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(1, 3, 3))
        base, _ = model.forward(T.tensor(x))
        swapped, _ = model.forward(T.tensor(x[:, [1, 0, 2]]))
        assert not np.allclose(base.data, swapped.data)

    def test_attention_capture_structure(self):
        cfg = tiny_config(input_blocks=4, output_blocks=2, num_encoder_layers=2,
                          num_decoder_layers=3)
        model = Transformer(cfg, np.random.default_rng(6))
        _, traces = model.forward(T.tensor(np.random.default_rng(7).normal(size=(5, 4, 3))))
        # forward order: the encoder layers, then self and cross attention per decoder layer
        assert [tr.stage for tr in traces] == \
            ["encoder"] * 2 + ["decoder_self", "decoder_cross"] * 3
        captured = {stage: [tr.weights.data for tr in traces if tr.stage == stage]
                    for stage in ("encoder", "decoder_self", "decoder_cross")}
        assert captured["encoder"][0].shape == (5, cfg.num_heads, 4, 4)
        # the first decoder layer's queries are shared by every example, so
        # its self-attention runs once; the cross-attention brings in the batch
        assert captured["decoder_self"][0].shape == (1, cfg.num_heads, 2, 2)
        assert [w.shape for w in captured["decoder_self"][1:]] == \
            [(5, cfg.num_heads, 2, 2)] * 2
        assert all(w.shape == (5, cfg.num_heads, 2, 4) for w in captured["decoder_cross"])
        for group in captured.values():
            for w in group:
                assert np.allclose(w.sum(axis=3), 1.0, atol=1e-9)
        assert traces[0].output.shape == (5, 4, cfg.model_width)

    def test_forward_adds_no_attribute(self):
        model = Transformer(tiny_config(), np.random.default_rng(6))
        before = set(vars(model))
        model.forward(T.tensor(np.random.default_rng(7).normal(size=(3, 2, 3))))
        assert set(vars(model)) == before

    def test_deterministic_forward(self):
        model = Transformer(tiny_config(), np.random.default_rng(8))
        x = np.random.default_rng(9).normal(size=(2, 2, 3))
        a, _ = model.forward(T.tensor(x))
        b, _ = model.forward(T.tensor(x))
        assert np.array_equal(a.data, b.data)

    def test_full_model_matches_finite_differences(self):
        model = Transformer(tiny_config(), np.random.default_rng(10))
        params = model.parameters()
        x = np.random.default_rng(11).normal(size=(2, 2, 3))
        w_out = np.random.default_rng(12).normal(size=(2, 1, 3))

        def loss_tensor():
            return T.sum_all(T.mul(model.forward(T.tensor(x))[0], T.tensor(w_out)))

        loss_tensor().backward()
        h = 1e-5
        worst = 0.0
        for p in params.values():
            flat = p.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_tensor().item()
                flat[i] = orig - h
                fm = loss_tensor().item()
                flat[i] = orig
                numeric[i] = (fp - fm) / (2 * h)
            analytic = p.grad.reshape(-1)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
        assert worst < 1e-3


# 1+1 layers as in the algo benchmark, and a deeper stack whose later decoder
# layers carry the batch
INVARIANCE_CONFIGS = {
    "1+1": tiny_config(block_size=10, input_blocks=4, output_blocks=3, model_width=16,
                       num_heads=4, ffn_width=24),
    "2+3": tiny_config(block_size=10, input_blocks=4, output_blocks=3, model_width=16,
                       num_heads=4, ffn_width=24, num_encoder_layers=2,
                       num_decoder_layers=3),
}


@pytest.mark.parametrize("layers", sorted(INVARIANCE_CONFIGS))
class TestBatchInvariance:
    def setup_method(self):
        self.x = np.random.default_rng(21).normal(size=(6, 4, 10))

    def test_each_row_matches_its_single_row_forward(self, layers):
        model = Transformer(INVARIANCE_CONFIGS[layers], np.random.default_rng(20))
        batched, _ = model.forward(T.tensor(self.x))
        for i in range(len(self.x)):
            single, _ = model.forward(T.tensor(self.x[i:i + 1]))
            assert np.array_equal(batched.data[i:i + 1], single.data)

    def test_batch_gradients_are_the_sum_of_row_gradients(self, layers):
        model = Transformer(INVARIANCE_CONFIGS[layers], np.random.default_rng(20))
        params = model.parameters()
        w_out = np.random.default_rng(22).normal(size=(6, 3, 10))

        def grads(rows):
            for p in params.values():
                p.grad[...] = -0.0
            out, _ = model.forward(T.tensor(self.x[rows]))
            T.sum_all(T.mul(out, T.tensor(w_out[rows]))).backward()
            return {name: p.grad.copy() for name, p in params.items()}

        batched = grads(slice(None))
        rows = [grads(slice(i, i + 1)) for i in range(len(self.x))]
        for name, g in batched.items():
            np.testing.assert_allclose(g, sum(r[name] for r in rows), rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_first_decoder_self_attention_runs_once(self, layers, monkeypatch):
        # the decoder queries are shared by every example: tiling them to the
        # batch would run the first self-attention once per row
        model = Transformer(INVARIANCE_CONFIGS[layers], np.random.default_rng(20))
        leading = {}

        def spying(op):
            def spy(x, w, *bias, **residual):
                leading.setdefault(id(w), []).append(x.shape[0])
                return op(x, w, *bias, **residual)
            return spy

        # every projection is an affine, the key projection a bias-free one
        monkeypatch.setattr(T, "affine", spying(T.affine))
        x = np.random.default_rng(23).normal(size=(64, 4, 10))
        model.forward(T.tensor(x))

        def dims(attn, tags="qkvo"):
            weights = attn.parameters()
            return [leading[id(weights[f"{attn.name}.w{tag}"])] for tag in tags]

        assert dims(model.dec_self[0]) == [[1]] * 4
        assert dims(model.dec_cross[0], "q") == [[1]]
        assert dims(model.dec_cross[0], "kvo") == [[64]] * 3
        for attn in model.dec_self[1:] + model.dec_cross[1:]:
            assert dims(attn) == [[64]] * 4
