import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guided_attention.autodiff as ad
from guided_attention.attention import (
    HeadConfig,
    HeadWeights,
    masked_attention,
    multi_head,
    scaled_dot_attention,
)
from guided_attention.autodiff import Tensor
from guided_attention.errors import ConfigError, DegenerateRowError, ShapeMismatchError
from guided_attention.masks import GUIDED_ROLES, relative_position_mask
from oracles import attention_naive, multi_head_per_head

NEG_INF = float("-inf")


def random_head_weights(rng, d_model, heads):
    d_k = d_model // heads
    return HeadWeights(
        wq=[Tensor(rng.normal(size=(d_model, d_k))) for _ in range(heads)],
        wk=[Tensor(rng.normal(size=(d_model, d_k))) for _ in range(heads)],
        wv=[Tensor(rng.normal(size=(d_model, d_k))) for _ in range(heads)],
        wo=Tensor(rng.normal(size=(d_model, d_model))),
    )


class TestHeadConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            HeadConfig(d_model=10, heads=4)

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ConfigError):
            HeadConfig(d_model=8, heads=4, role_assignment=("relpos", "relpos"))

    def test_padding_pseudo_role_may_repeat(self):
        cfg = HeadConfig(d_model=8, heads=4, role_assignment=("padding", "padding"))
        assert cfg.guided == 2

    def test_more_roles_than_heads_rejected(self):
        with pytest.raises(ConfigError):
            HeadConfig(d_model=8, heads=2, role_assignment=("rarew", "seprat", "relpos"))

    def test_five_guided_of_six_heads(self):
        cfg = HeadConfig(d_model=48, heads=6, role_assignment=GUIDED_ROLES)
        assert cfg.guided == 5 and cfg.d_k == 8


class TestScaledDotAttention:
    def test_orthogonal_keys_peak_on_match(self):
        q = np.eye(3) * 8.0
        v = np.arange(9.0).reshape(3, 3)
        out, weights = scaled_dot_attention(Tensor(q), Tensor(q), Tensor(v))
        assert np.all(weights.data.argmax(axis=1) == np.arange(3))

    def test_single_position(self):
        v = np.array([[3.0, 1.0]])
        out, weights = scaled_dot_attention(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))), Tensor(v))
        npt.assert_array_equal(weights.data, [[1.0]])
        npt.assert_array_equal(out.data, v)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out, weights = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        exp_out, exp_w = attention_naive(q, k, v)
        npt.assert_allclose(out.data, exp_out, atol=1e-12)
        npt.assert_allclose(weights.data, exp_w, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            scaled_dot_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))


class TestMaskedAttention:
    def test_zero_mask_bitwise_equals_unmasked(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        base_out, base_w = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        masked_out, masked_w = masked_attention(Tensor(q), Tensor(k), Tensor(v), np.zeros((4, 4)))
        npt.assert_array_equal(masked_out.data, base_out.data)
        npt.assert_array_equal(masked_w.data, base_w.data)

    def test_single_allowed_column_collapses_to_that_value(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(3, 2)) for _ in range(3))
        mask = np.full((3, 3), NEG_INF)
        mask[:, 1] = 0.0
        out, weights = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        for i in range(3):
            npt.assert_allclose(out.data[i], v[1], atol=1e-12)
        npt.assert_array_equal(weights.data[:, 1], 1.0)

    def test_tridiagonal_matches_restricted_softmax_oracle(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = relative_position_mask(4).values
        out, weights = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        exp_out, exp_w = attention_naive(q, k, v, mask)
        npt.assert_allclose(out.data, exp_out, atol=1e-12)
        npt.assert_allclose(weights.data, exp_w, atol=1e-12)

    def test_infeasible_row_raises_degenerate_error(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(2, 2)) for _ in range(3))
        with pytest.raises(DegenerateRowError):
            masked_attention(Tensor(q), Tensor(k), Tensor(v), np.full((2, 2), NEG_INF))

    def test_rows_stochastic_and_support_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
            mask = np.where(rng.random((n, n)) < 0.5, 0.0, NEG_INF)
            mask[np.arange(n), np.arange(n)] = 0.0  # feasibility
            out, weights = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)
            npt.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(weights.data[mask == NEG_INF] == 0.0)

    def test_zero_influence_of_masked_value_rows(self):
        # Perturbing V at a key position masked for every query changes nothing.
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = np.zeros((4, 4))
        mask[:, 2] = NEG_INF
        out, _ = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        v2 = v.copy()
        v2[2] += rng.normal(size=3) * 100
        out2, _ = masked_attention(Tensor(q), Tensor(k), Tensor(v2), mask)
        npt.assert_array_equal(out.data, out2.data)

    def test_zero_influence_of_masked_key_rows(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = np.zeros((4, 4))
        mask[:, 1] = NEG_INF
        out, _ = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)
        k2 = k.copy()
        k2[1] += 42.0
        out2, _ = masked_attention(Tensor(q), Tensor(k2), Tensor(v), mask)
        npt.assert_array_equal(out.data, out2.data)

    def test_zero_gradient_to_masked_rows(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.zeros((4, 4))
        mask[:, 3] = NEG_INF
        out, _ = masked_attention(q, k, v, mask)
        ad.backward(ad.tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape)))))
        npt.assert_array_equal(k.grad[3], np.zeros(3))
        npt.assert_array_equal(v.grad[3], np.zeros(3))
        assert np.any(k.grad[:3] != 0.0)


class TestMultiHead:
    def test_no_guided_heads_equals_baseline_bitwise(self):
        rng = np.random.default_rng(9)
        d_model, n = 8, 5
        x = Tensor(rng.normal(size=(n, d_model)))
        w = random_head_weights(rng, d_model, 2)
        pad = np.zeros((n, n))
        baseline_cfg = HeadConfig(d_model, 2)
        guided_cfg = HeadConfig(d_model, 2, role_assignment=("padding", "padding"))
        base_out, _ = multi_head(x, w, baseline_cfg, {}, pad)
        guided_out, _ = multi_head(x, w, guided_cfg, {"padding": pad}, pad)
        npt.assert_array_equal(base_out.data, guided_out.data)

    def test_single_head_composition_identity(self):
        rng = np.random.default_rng(10)
        d_model, n = 4, 3
        x = Tensor(rng.normal(size=(n, d_model)))
        w = random_head_weights(rng, d_model, 1)
        cfg = HeadConfig(d_model, 1, role_assignment=("relpos",))
        mask = np.zeros((n, n))
        out, _ = multi_head(x, w, cfg, {"relpos": mask}, np.zeros((n, n)))
        q = ad.matmul(x, w.wq[0])
        k = ad.matmul(x, w.wk[0])
        v = ad.matmul(x, w.wv[0])
        direct, _ = scaled_dot_attention(q, k, v)
        npt.assert_array_equal(out.data, ad.matmul(direct, w.wo).data)

    def test_full_role_assignment_head_supports(self, twenty, twenty_vocab):
        from guided_attention.masks import build_role_mask

        rng = np.random.default_rng(11)
        s = next(x for x in twenty if x.sent_id == "s10")
        n, d_model = len(s), 12
        cfg = HeadConfig(d_model, 6, role_assignment=GUIDED_ROLES)
        weights = random_head_weights(rng, d_model, 6)
        role_masks = {r: build_role_mask(r, s, twenty_vocab).values for r in GUIDED_ROLES}
        pad = np.zeros((n, n))
        x = Tensor(rng.normal(size=(n, d_model)))
        _, head_weights = multi_head(x, weights, cfg, role_masks, pad)
        assert len(head_weights) == 6
        for h, role in enumerate(GUIDED_ROLES):
            support = head_weights[h].data > 0.0
            assert np.all(role_masks[role][support] == 0.0)
        assert np.all(head_weights[5].data > 0.0)

    def test_batched_input(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 4, 6)))
        w = random_head_weights(rng, 6, 3)
        cfg = HeadConfig(6, 3, role_assignment=("relpos",))
        masks = {"relpos": np.stack([relative_position_mask(4).values] * 2)}
        pad = np.zeros((2, 4, 4))
        out, head_w = multi_head(x, w, cfg, masks, pad)
        assert out.shape == (2, 4, 6)
        for b in range(2):
            assert np.all(head_w[0].data[b][masks["relpos"][b] == NEG_INF] == 0.0)

    def test_missing_role_mask_rejected(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 4)))
        w = random_head_weights(rng, 4, 2)
        cfg = HeadConfig(4, 2, role_assignment=("seprat",))
        with pytest.raises(ConfigError):
            multi_head(x, w, cfg, {}, np.zeros((3, 3)))

    def test_pad_columns_get_exactly_zero_weight(self, twenty, twenty_vocab):
        from guided_attention.corpus import make_batches

        rng = np.random.default_rng(14)
        batch = make_batches(twenty[:3], twenty_vocab, 3, 10, GUIDED_ROLES, shuffle=False)[0]
        cfg = HeadConfig(12, 6, role_assignment=GUIDED_ROLES)
        weights = random_head_weights(rng, 12, 6)
        x = Tensor(rng.normal(size=(3, 10, 12)))
        _, head_weights = multi_head(x, weights, cfg, batch.role_masks, batch.pad_mask)
        for w in head_weights:
            for row, length in enumerate(batch.lengths):
                assert np.all(w.data[row, :, length:] == 0.0)

    def test_matches_per_head_reference_with_dropout(self, twenty, twenty_vocab):
        """The fused layer equals the head-by-head composition in outputs, gradients and RNG use."""
        from guided_attention.corpus import make_batches

        batch = make_batches(twenty[:4], twenty_vocab, 4, 12, GUIDED_ROLES, shuffle=False)[0]
        cropped = batch.cropped()
        n = cropped.token_ids.shape[1]
        assert n < 12  # the dropout draw is larger than the computed block
        cfg = HeadConfig(12, 6, role_assignment=GUIDED_ROLES)
        rng = np.random.default_rng(15)
        base = random_head_weights(rng, 12, 6)
        x_data = rng.normal(size=(4, n, 12))
        upstream = rng.normal(size=(4, n, 12))

        def fused_layer(*args, **kwargs):
            return multi_head(*args, **kwargs)[0]

        results = []
        for layer in (fused_layer, multi_head_per_head):
            x = Tensor(x_data, requires_grad=True)
            w = HeadWeights(
                wq=[Tensor(t.data, requires_grad=True) for t in base.wq],
                wk=[Tensor(t.data, requires_grad=True) for t in base.wk],
                wv=[Tensor(t.data, requires_grad=True) for t in base.wv],
                wo=Tensor(base.wo.data, requires_grad=True),
            )
            gen = np.random.default_rng(99)
            out = layer(x, w, cfg, cropped.role_masks, cropped.pad_mask,
                        dropout_rate=0.3, rng=gen, draw_shape=batch.pad_mask.shape)
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(upstream))))
            grads = [x.grad, *(t.grad for t in [*w.wq, *w.wk, *w.wv, w.wo])]
            results.append((out.data, grads, gen.bit_generator.state))

        (fused, fused_grads, fused_state), (ref, ref_grads, ref_state) = results
        npt.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for a, b in zip(fused_grads, ref_grads):
            npt.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert fused_state == ref_state
        # Dropout was on: the same layer without it gives other outputs.
        plain, _ = multi_head(Tensor(x_data), base, cfg, cropped.role_masks, cropped.pad_mask)
        assert not np.allclose(plain.data, fused)


@settings(max_examples=80, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    heads=st.integers(1, 4),
    d_k=st.integers(1, 5),
    magnitude=st.sampled_from([1e-3, 1.0, 10.0, 300.0]),
    open_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_weights_are_softmax_rows(lead, n, m, heads, d_k, magnitude, open_share, seed):
    """Kernel weights equal softmax_rows bit for bit, are 0 where masked, and rows sum to 1."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(*lead, n, heads * d_k)) * magnitude
    k = rng.normal(size=(*lead, m, heads * d_k))
    v = rng.normal(size=(*lead, m, heads * 2))
    is_open = rng.random((heads, *lead, n, m)) < open_share
    keys = rng.integers(0, m, size=(heads, *lead, n))
    np.put_along_axis(is_open, keys[..., None], True, axis=-1)  # one open key per row at least
    masks = np.where(is_open, 0.0, NEG_INF)

    _, weights = ad.attention(Tensor(q), Tensor(k), Tensor(v), list(masks))
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2)
        expected = ad.softmax_rows(Tensor((scores + masks[h]) * (1.0 / math.sqrt(d_k)))).data
        npt.assert_array_equal(weights[h], expected)
    assert np.all(weights[~is_open] == 0.0)
    npt.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
