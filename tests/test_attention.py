import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import guided_attention.autodiff as ad
from guided_attention.attention import TIER_CELLS, multi_head, tier_plan
from guided_attention.autodiff import Tensor
from guided_attention.corpus import Sentence, Token, make_batches
from guided_attention.errors import ConfigError, DegenerateRowError, ShapeMismatchError
from guided_attention.masks import GUIDED_ROLES, build_role_mask
from guided_attention.model import ModelConfig, forward_batch, init_params
from oracles import (
    attention_naive, dropout_keep, multi_head_per_head, reshape, softmax_rows, square_plan, tensor_sum,
    tier_cost_bruteforce,
)

NEG_INF = float("-inf")


def additive(allowed: np.ndarray) -> np.ndarray:
    """The {0, -inf} form of a boolean mask, which the kernel adds to its scores."""
    return np.where(allowed, 0.0, NEG_INF)


def relpos_mask(n: int) -> np.ndarray:
    """The ``relpos`` {0, -inf} mask of an n-token sentence."""
    return additive(build_role_mask("relpos", Sentence([Token("w", i + 1) for i in range(n)])).values)


def random_projections(rng, d_model):
    """Random packed ``wq``, ``wk`` and ``wv``, and ``wo``, all (d_model, d_model)."""
    return [Tensor(rng.normal(size=(d_model, d_model))) for _ in range(4)]


class TestTierPlan:
    """``tier_plan``: the tiers of batch rows ``autodiff.attention`` computes at their own widths."""

    @staticmethod
    def cost(lengths, tiers):
        lengths = np.asarray(lengths)
        return sum(len(rows) * int(lengths[rows].max()) ** 2 + TIER_CELLS for rows in tiers)

    @settings(max_examples=150)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40))
    @example(lengths=[1, 40, 13])  # B·n² − Σ l² = 3030 exceeds TIER_CELLS, yet no split pays for its tier
    def test_every_row_lands_in_one_tier_of_least_cost(self, lengths):
        tiers = tier_plan(lengths)
        assert 1 <= len(tiers) <= 3
        assert sorted(np.concatenate(tiers).tolist()) == list(range(len(lengths)))
        if len(tiers) > 1:  # tier after tier, each in length order, stably
            ordered = np.concatenate(tiers)
            assert ordered.tolist() == np.argsort(lengths, kind="stable").tolist()
        else:  # the whole batch in batch order, which the plan leaves uncut and model._draw_keeps draws as is
            assert tiers[0].tolist() == list(range(len(lengths)))
        assert self.cost(lengths, tiers) == tier_cost_bruteforce(lengths, TIER_CELLS)

    @pytest.mark.parametrize("lengths", [[1], [5] * 32, [32] * 32])
    def test_equal_lengths_give_one_tier(self, lengths):
        (rows,) = tier_plan(lengths)
        assert rows.tolist() == list(range(len(lengths)))

    def test_no_search_below_one_tiers_cost(self, monkeypatch):
        """With B·n² − Σ l² ≤ ``TIER_CELLS``, no split can pay for its tier, and none is searched for."""
        assert 55**2 - 5**2 == TIER_CELLS

        def no_search(*args, **kwargs):
            raise AssertionError("tier_plan searched for a split")

        monkeypatch.setattr(np, "argsort", no_search)
        assert [rows.tolist() for rows in tier_plan([55, 5])] == [[0, 1]]
        monkeypatch.undo()
        assert [rows.tolist() for rows in tier_plan([56, 5])] == [[1], [0]]  # saves 111 cells

    def test_two_and_three_tiers(self):
        assert [rows.tolist() for rows in tier_plan([1, 30, 1, 1, 30] + [1] * 7)] == [
            [0, 2, 3, 5, 6, 7, 8, 9, 10, 11], [1, 4]
        ]
        lengths = [40, 1, 20, 1, 20, 1, 20, 1, 20, 40, 1, 20, 1, 1, 1, 1]
        assert [sorted({lengths[i] for i in rows}) for rows in tier_plan(lengths)] == [[1], [20], [40]]


class TestHeadConfig:
    """The head layout of a layer, as ``ModelConfig`` fixes it."""

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="not divisible"):
            ModelConfig(guided_roles=(), extra_regular_heads=4, d_model=10).validate()

    def test_five_guided_of_six_heads(self):
        cfg = ModelConfig(guided_roles=GUIDED_ROLES, extra_regular_heads=1, d_model=48)
        cfg.validate()
        assert cfg.heads == 6 and cfg.guided_heads == 5 and cfg.d_model // cfg.heads == 8


class TestScaledDotAttention:
    """One head with an all-open mask: plain scaled dot-product attention."""

    def test_orthogonal_keys_peak_on_match(self):
        q = np.eye(3) * 8.0
        v = np.arange(9.0).reshape(3, 3)
        _, (weights,) = ad.attention(Tensor(q), Tensor(q), Tensor(v), square_plan(np.ones((3, 3), dtype=bool)))
        assert np.all(weights[0, 0].argmax(axis=1) == np.arange(3))

    def test_single_position(self):
        v = np.array([[3.0, 1.0]])
        out, (weights,) = ad.attention(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))), Tensor(v),
                                       square_plan(np.ones((1, 1), dtype=bool)))
        npt.assert_array_equal(weights, [[[[1.0]]]])
        npt.assert_array_equal(out.data, v)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(np.ones((3, 3), dtype=bool)))
        exp_out, exp_w = attention_naive(q, k, v)
        npt.assert_allclose(out.data, exp_out, atol=1e-12)
        npt.assert_allclose(weights[0, 0], exp_w, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError, match="cannot split"):
            ad.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))),
                         square_plan(np.ones((2, 2), dtype=bool)))


class TestMaskedAttention:
    def test_zero_mask_bitwise_equals_unmasked(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        base_w = softmax_rows(Tensor((q @ k.T) * (1.0 / math.sqrt(3)))).data
        plan = square_plan(np.ones((4, 4), dtype=bool))
        masked_out, (masked_w,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), plan)
        npt.assert_array_equal(masked_w[0, 0], base_w)
        npt.assert_array_equal(masked_out.data, base_w @ v)

    def test_single_allowed_column_collapses_to_that_value(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=(3, 2)) for _ in range(3))
        mask = np.full((3, 3), NEG_INF)
        mask[:, 1] = 0.0
        out, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
        for i in range(3):
            npt.assert_allclose(out.data[i], v[1], atol=1e-12)
        npt.assert_array_equal(weights[0, 0][:, 1], 1.0)

    def test_tridiagonal_matches_restricted_softmax_oracle(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = relpos_mask(4)
        out, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
        exp_out, exp_w = attention_naive(q, k, v, mask)
        npt.assert_allclose(out.data, exp_out, atol=1e-12)
        npt.assert_allclose(weights[0, 0], exp_w, atol=1e-12)

    def test_infeasible_row_raises_degenerate_error(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(2, 2)) for _ in range(3))
        with pytest.raises(DegenerateRowError):
            ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(np.zeros((2, 2), dtype=bool)))

    def test_rows_stochastic_and_support_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
            mask = np.where(rng.random((n, n)) < 0.5, 0.0, NEG_INF)
            mask[np.arange(n), np.arange(n)] = 0.0  # feasibility
            _, (weights,) = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
            npt.assert_allclose(weights[0, 0].sum(axis=1), 1.0, atol=1e-12)
            assert np.all(weights[0, 0][mask == NEG_INF] == 0.0)

    def test_zero_influence_of_masked_value_rows(self):
        # Perturbing V at a key position masked for every query changes nothing.
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = np.zeros((4, 4))
        mask[:, 2] = NEG_INF
        out, _ = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
        v2 = v.copy()
        v2[2] += rng.normal(size=3) * 100
        out2, _ = ad.attention(Tensor(q), Tensor(k), Tensor(v2), square_plan(mask == 0.0))
        npt.assert_array_equal(out.data, out2.data)

    def test_zero_influence_of_masked_key_rows(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = np.zeros((4, 4))
        mask[:, 1] = NEG_INF
        out, _ = ad.attention(Tensor(q), Tensor(k), Tensor(v), square_plan(mask == 0.0))
        k2 = k.copy()
        k2[1] += 42.0
        out2, _ = ad.attention(Tensor(q), Tensor(k2), Tensor(v), square_plan(mask == 0.0))
        npt.assert_array_equal(out.data, out2.data)

    def test_zero_gradient_to_masked_rows(self):
        rng = np.random.default_rng(8)
        q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.zeros((4, 4))
        mask[:, 3] = NEG_INF
        out, _ = ad.attention(q, k, v, square_plan(mask == 0.0))
        ad.backward(tensor_sum(ad.mul(out, Tensor(rng.normal(size=out.shape)))))
        npt.assert_array_equal(k.grad[3], np.zeros(3))
        npt.assert_array_equal(v.grad[3], np.zeros(3))
        assert np.any(k.grad[:3] != 0.0)


class TestMultiHead:
    def test_no_guided_heads_equals_baseline_bitwise(self, twenty, twenty_vocab):
        """Heads guided by the all-open ``padding`` role give the logits of regular heads."""
        unguided = ModelConfig(layers=1, guided_roles=(), extra_regular_heads=2, d_model=8, ff_width=8, max_len=10)
        guided = replace(unguided, guided_roles=("padding", "padding"), extra_regular_heads=0)
        batch = make_batches(twenty[:3], twenty_vocab, 3, 10, guided.mask_roles(), shuffle=False)[0]
        base_out, guided_out = (
            forward_batch(batch, init_params(cfg, len(twenty_vocab), np.random.default_rng(9)), cfg).data
            for cfg in (unguided, guided)
        )
        npt.assert_array_equal(base_out, guided_out)

    def test_single_head_composition_identity(self):
        rng = np.random.default_rng(10)
        d_model, n = 4, 3
        x = Tensor(rng.normal(size=(n, d_model)))
        wq, wk, wv, wo = random_projections(rng, d_model)
        mask = relpos_mask(n)
        out, _ = multi_head(x, wq, wk, wv, wo, square_plan(mask == 0.0))
        direct, _ = attention_naive(x.data @ wq.data, x.data @ wk.data, x.data @ wv.data, mask)
        npt.assert_allclose(out.data, direct @ wo.data, rtol=0, atol=1e-12)

    def test_full_role_assignment_head_supports(self, twenty, twenty_vocab):
        rng = np.random.default_rng(11)
        s = next(x for x in twenty if x.sent_id == "s10")
        n, d_model = len(s), 12
        role_masks = [additive(build_role_mask(r, s, twenty_vocab).values) for r in GUIDED_ROLES]
        x = Tensor(rng.normal(size=(n, d_model)))
        plan = square_plan(*[mask == 0.0 for mask in role_masks], np.ones((n, n), dtype=bool))
        _, (head_weights,) = multi_head(x, *random_projections(rng, d_model), plan)
        assert head_weights.shape == (6, 1, n, n)
        for h, mask in enumerate(role_masks):
            assert np.all(mask[head_weights[h, 0] > 0.0] == 0.0)
        assert np.all(head_weights[5] > 0.0)

    def test_batched_input(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 4, 6)).reshape(8, 6))  # two 4-token sentences' rows
        relpos = np.stack([relpos_mask(4)] * 2)
        pad = np.zeros((2, 4, 4))
        plan = square_plan(relpos == 0.0, pad == 0.0, pad == 0.0)
        out, (head_w,) = multi_head(x, *random_projections(rng, 6), plan)
        assert out.shape == (8, 6) and head_w.shape == (3, 2, 4, 4)
        for b in range(2):
            assert np.all(head_w[0][b][relpos[b] == NEG_INF] == 0.0)

    def test_missing_role_mask_rejected(self, twenty, twenty_vocab):
        cfg = ModelConfig(layers=1, guided_roles=("relpos", "seprat"), extra_regular_heads=0, d_model=4, ff_width=4, max_len=10)
        batch = make_batches(twenty[:2], twenty_vocab, 2, 10, ("relpos",), shuffle=False)[0]
        params = init_params(cfg, len(twenty_vocab), np.random.default_rng(13))
        with pytest.raises(ConfigError, match="'seprat'"):
            forward_batch(batch, params, cfg)

    def test_pad_columns_get_exactly_zero_weight(self, twenty, twenty_vocab):
        rng = np.random.default_rng(14)
        batch = make_batches(twenty[:3], twenty_vocab, 3, 10, GUIDED_ROLES, shuffle=False)[0]
        masks = [batch.role_masks[r] for r in GUIDED_ROLES] + [batch.pad_mask]
        x = Tensor(rng.normal(size=(3, 10, 12)).reshape(30, 12))  # every position of the (3, 10) grid is a row
        plan = square_plan(*[mask == 0.0 for mask in masks])
        _, (head_weights,) = multi_head(x, *random_projections(rng, 12), plan)
        for w in head_weights:
            for row, length in enumerate(batch.lengths):
                assert np.all(w[row, :, length:] == 0.0)

    def test_masks_come_only_in_a_plan(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ShapeMismatchError, match=r"autodiff\.Plan \(Plan\.build\), not a list"):
            multi_head(Tensor(rng.normal(size=(3, 4))), *random_projections(rng, 4), [np.zeros((3, 3))])

    def test_matches_per_head_reference_with_dropout(self, twenty, twenty_vocab):
        """The packed layer equals the head-by-head composition in outputs, gradients and RNG use."""
        batch = make_batches(twenty[:4], twenty_vocab, 4, 12, GUIDED_ROLES, shuffle=False)[0]
        n = int(batch.lengths.max())
        assert n < 12  # the batch is computed, and its dropout drawn, at its longest sentence
        masks = [batch.role_masks[r][:, :n, :n] for r in GUIDED_ROLES] + [batch.pad_mask[:, :n, :n]]
        plan = square_plan(*[mask == 0.0 for mask in masks])
        rng = np.random.default_rng(15)
        per_head = [[rng.normal(size=(12, 2)) for _ in range(6)] for _ in "qkv"]
        wo = rng.normal(size=(12, 12))
        x_data = rng.normal(size=(4, n, 12))
        upstream = rng.normal(size=(4, n, 12))

        def run(layer, projections):
            """Outputs, gradients of x, the packed q/k/v and wo, and the RNG state after the layer."""
            x = Tensor(x_data, requires_grad=True)
            wo_t = Tensor(wo, requires_grad=True)
            gen = np.random.default_rng(99)
            out = layer(x, *projections, wo_t, masks, gen)
            ad.backward(tensor_sum(ad.mul(out, Tensor(upstream))))
            return out.data, [x.grad, wo_t.grad], gen.bit_generator.state

        def fused_layer(x, wq, wk, wv, wo, masks, gen):
            """The packed layer on every position's row, given one (H, B, n, n) draw for all its heads."""
            rows, _ = multi_head(reshape(x, (4 * n, 12)), wq, wk, wv, wo, plan, [dropout_keep((6, 4, n, n), 0.3, gen)])
            return reshape(rows, x.shape)

        def reference_layer(x, wq, wk, wv, wo, masks, gen):
            """The per-head layer, each head drawing its own (B, n, n) multiplier in turn."""
            return multi_head_per_head(x, wq, wk, wv, wo, masks, dropout_rate=0.3, rng=gen)

        packed = [Tensor(np.concatenate(heads, axis=-1), requires_grad=True) for heads in per_head]
        fused, fused_grads, fused_state = run(fused_layer, packed)
        fused_grads += [t.grad for t in packed]
        split = [[Tensor(w, requires_grad=True) for w in heads] for heads in per_head]
        ref, ref_grads, ref_state = run(reference_layer, split)
        ref_grads += [np.concatenate([t.grad for t in heads], axis=-1) for heads in split]

        npt.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for a, b in zip(fused_grads, ref_grads):
            npt.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert fused_state == ref_state
        # Dropout was on: the same layer without it gives other outputs.
        plain, _ = multi_head(Tensor(x_data.reshape(4 * n, 12)), *(Tensor(t.data) for t in packed), Tensor(wo), plan)
        assert not np.allclose(plain.data.reshape(fused.shape), fused)


@settings(max_examples=80)
@given(
    b=st.integers(1, 3),
    n=st.integers(1, 8),
    heads=st.integers(1, 4),
    d_k=st.integers(1, 5),
    magnitude=st.sampled_from([1e-3, 1.0, 10.0, 300.0]),
    open_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_weights_are_softmax_rows(b, n, heads, d_k, magnitude, open_share, seed):
    """Kernel weights equal softmax_rows bit for bit, are 0 where masked, and rows sum to 1."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(b, n, heads * d_k)) * magnitude
    k = rng.normal(size=(b, n, heads * d_k))
    v = rng.normal(size=(b, n, heads * 2))
    is_open = rng.random((heads, b, n, n)) < open_share
    keys = rng.integers(0, n, size=(heads, b, n))
    np.put_along_axis(is_open, keys[..., None], True, axis=-1)  # one open key per row at least
    masks = np.where(is_open, 0.0, NEG_INF)

    rows = [Tensor(a.reshape(b * n, -1)) for a in (q, k, v)]
    _, (weights,) = ad.attention(*rows, square_plan(*is_open))
    for h in range(heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2)
        expected = softmax_rows(Tensor((scores + masks[h]) * (1.0 / math.sqrt(d_k)))).data
        npt.assert_array_equal(weights[h], expected)
    assert np.all(weights[~is_open] == 0.0)
    npt.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
