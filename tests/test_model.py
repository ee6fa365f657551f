import hashlib
import itertools
import json
import math
import random
import threading
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import guided_attention
import guided_attention.autodiff as ad
from guided_attention.autodiff import Tensor
from guided_attention.corpus import Batch, Sentence, Token, build_vocab, label_index, make_batches
from guided_attention.errors import ConfigError, MissingGradientError, ShapeMismatchError, TrainingDivergedError
from guided_attention.harness import ablated_roles
from guided_attention.masks import GUIDED_ROLES
from guided_attention.model import (
    Adam,
    Checkpoint,
    ModelConfig,
    classify,
    diagnose_nonfinite,
    embed,
    evaluate,
    forward_batch,
    forward_stages,
    init_params,
    param_shapes,
    parse_config,
    sinusoidal_encoding,
    train,
)
from guided_attention.model import _draw_keeps
from guided_attention.synthetic import generate_local_pattern_task
from oracles import (
    AdamPerTensor,
    dropout_keep,
    finite_difference_grad,
    format_config,
    forward_padded,
    relative_error,
    tensor_sum,
)


def sent(forms, label=None):
    return Sentence([Token(form=f, index=i + 1) for i, f in enumerate(forms)], label=label)


def toy_separable(n=60, seed=0):
    """Linearly separable: the class token decides the label."""
    rng = np.random.default_rng(seed)
    fillers = [f"f{i}" for i in range(8)]
    out = []
    for i in range(n):
        label = "good" if i % 2 == 0 else "bad"
        forms = [fillers[k] for k in rng.integers(0, len(fillers), size=4)]
        forms[rng.integers(0, 4)] = label
        out.append(sent(forms, label=label))
    return out


TINY = ModelConfig(
    layers=1,
    guided_roles=("relpos",),
    extra_regular_heads=1,
    d_model=8,
    ff_width=12,
    dropout=0.0,
    learning_rate=0.01,
    epochs=3,
    seed=0,
    max_len=6,
    num_classes=2,
    batch_size=8,
)


class TestConfig:
    def test_default_config_shape(self):
        cfg = ModelConfig()
        assert cfg.heads == 6 and cfg.guided_heads == 5
        cfg.validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=50).validate()
        with pytest.raises(ConfigError):
            ModelConfig(d_model=0).validate()

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ModelConfig(guided_roles=("relpos", "relpos"), extra_regular_heads=2, d_model=8).validate()

    def test_padding_pseudo_role_may_repeat(self):
        cfg = ModelConfig(guided_roles=("padding", "padding"), extra_regular_heads=2, d_model=8)
        cfg.validate()
        assert cfg.guided_heads == 2

    def test_unknown_role_rejected(self):
        with pytest.raises(ConfigError, match="'relpoz'"):
            ModelConfig(guided_roles=("rarew", "relpoz"), extra_regular_heads=2, d_model=8).validate()

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(epochs=0).validate()

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1e-3])
    def test_learning_rate_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be finite and >= 0"):
            ModelConfig(learning_rate=rate).validate()

    def test_negative_ff_width_rejected(self):
        with pytest.raises(ConfigError, match="ff_width must be >= 0, got -1"):
            ModelConfig(ff_width=-1).validate()

    def test_key_value_round_trip(self):
        cfg = ModelConfig(layers=4, extra_regular_heads=3, d_model=64, dropout=0.2, seed=7)
        again = parse_config(format_config(cfg))
        assert again == cfg

    def test_parse_comments_and_errors(self):
        cfg = parse_config("layers = 2  # two layers\n\nd_model = 48\n")
        assert cfg.layers == 2
        with pytest.raises(ConfigError):
            parse_config("not a config line\n")
        with pytest.raises(ConfigError):
            parse_config("unknown_key = 3\n")

    def test_overrides_apply_in_order_after_the_text(self):
        overrides = [("epochs", "5"), ("guided_roles", "relpos, seprat"), ("epochs", "7")]
        cfg = parse_config("epochs = 3\nseed = 1\n", overrides)
        assert (cfg.epochs, cfg.seed, cfg.guided_roles) == (7, 1, ("relpos", "seprat"))
        with pytest.raises(ConfigError, match="'epochs' expects int, got 'ten'"):
            parse_config("epochs = ten\n", [("epochs", "2")])
        with pytest.raises(ConfigError, match="unknown config key 'epoch'"):
            parse_config("", [("epoch", "2")])

    def test_empty_roles_round_trip(self):
        cfg = ModelConfig(guided_roles=(), extra_regular_heads=6)
        assert parse_config(format_config(cfg)).guided_roles == ()


@st.composite
def valid_configs(draw):
    """A random ``ModelConfig`` that passes ``validate``."""
    roles = draw(st.lists(st.sampled_from(GUIDED_ROLES), unique=True))
    roles += ["padding"] * draw(st.integers(0, 2))
    roles = draw(st.permutations(roles))
    extra = draw(st.integers(0 if roles else 1, 4))
    positive = st.integers(1, 10**6)
    cfg = ModelConfig(
        layers=draw(st.integers(0, 8)),
        guided_roles=tuple(roles),
        extra_regular_heads=extra,
        d_model=(len(roles) + extra) * draw(st.integers(1, 16)),
        ff_width=draw(positive),
        dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
        learning_rate=draw(st.floats(0.0, 1e3)),
        epochs=draw(positive),
        seed=draw(st.integers(0, 2**63 - 1)),
        max_len=draw(positive),
        num_classes=draw(st.integers(2, 100)),
        batch_size=draw(positive),
    )
    cfg.validate()
    return cfg


@settings(max_examples=100)
@given(valid_configs())
def test_config_file_round_trip(cfg):
    assert parse_config(format_config(cfg)) == cfg


def test_every_export_resolves():
    assert [name for name in guided_attention.__all__ if not hasattr(guided_attention, name)] == []


class TestParams:
    def test_packed_projections_are_per_head_draws_side_by_side(self):
        """Each layer draws head after head, q, k and v, then packs each kind along the last axis."""
        cfg = ModelConfig(layers=1)  # 6 heads of d_k 8
        params = init_params(cfg, 10, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        rng.normal(0.0, 1.0 / math.sqrt(48), size=(10, 48))  # embed.token
        draws = [rng.normal(0.0, math.sqrt(2.0 / (48 + 8)), size=(48, 8)) for _ in range(6 * 3)]
        for j, name in enumerate(("wq", "wk", "wv")):
            npt.assert_array_equal(params[f"layer0.attn.{name}"].data, np.concatenate(draws[j::3], axis=-1))
        npt.assert_array_equal(params["layer0.attn.wo"].data, rng.normal(0.0, math.sqrt(2.0 / 96), size=(48, 48)))

    def test_shape_table_matches_initial_values(self):
        cfg = ModelConfig(layers=2, num_classes=3)
        params = init_params(cfg, 10, np.random.default_rng(0))
        assert {name: p.shape for name, p in params.items()} == param_shapes(cfg, 10)
        assert list(params) == list(param_shapes(cfg, 10))

    def test_default_model_tensor_count(self):
        # embed.token; per layer wq, wk, wv, wo, two norms, four feed-forward; classifier w and b
        assert len(init_params(ModelConfig(), 10, np.random.default_rng(0))) == 1 + 2 * 12 + 2


class TestEmbedding:
    def test_position_encoding_closed_form(self):
        enc = sinusoidal_encoding(5, 6)
        npt.assert_allclose(enc[0], [0, 1, 0, 1, 0, 1], atol=1e-12)
        for pos in range(5):
            for i in range(3):
                angle = pos / 10000 ** (2 * i / 6)
                npt.assert_allclose(enc[pos, 2 * i], math.sin(angle), atol=1e-12)
                npt.assert_allclose(enc[pos, 2 * i + 1], math.cos(angle), atol=1e-12)

    def test_position_encoding_is_computed_once_and_read_only(self):
        first, second = sinusoidal_encoding(7, 6), sinusoidal_encoding(7, 6)
        assert second is first and not second.flags.writeable
        npt.assert_array_equal(second, sinusoidal_encoding.__wrapped__(7, 6))

    def test_deterministic_same_seed(self):
        vocab = build_vocab(toy_separable())
        batch = make_batches(toy_separable()[:4], vocab, 4, 6, (), shuffle=False)[0]
        p1 = init_params(TINY, len(vocab), np.random.default_rng(3))
        p2 = init_params(TINY, len(vocab), np.random.default_rng(3))
        npt.assert_array_equal(embed(batch, p1, TINY).data, embed(batch, p2, TINY).data)

    def test_pad_row_embeds_finite(self):
        vocab = build_vocab([sent(["a"])])
        batch = make_batches([sent(["a"])], vocab, 1, 4, ("relpos",), shuffle=False)[0]
        params = init_params(TINY, len(vocab), np.random.default_rng(0))
        assert np.all(np.isfinite(embed(batch, params, TINY).data))

    def test_out_of_range_id_rejected(self):
        vocab = build_vocab([sent(["a"])])
        batch = make_batches([sent(["a"])], vocab, 1, 4, (), shuffle=False)[0]
        batch.token_ids[0, 0] = 99
        params = init_params(TINY, len(vocab), np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            embed(batch, params, TINY)


class TestEncoderAndClassifier:
    def _batch_and_params(self, cfg, sentences):
        vocab = build_vocab(sentences)
        classes = label_index(sentences)
        batch = make_batches(sentences, vocab, len(sentences), cfg.max_len, cfg.mask_roles(),
                             shuffle=False, labels=classes)[0]
        params = init_params(cfg, len(vocab), np.random.default_rng(cfg.seed))
        return batch, params

    def test_zero_layers_is_identity(self):
        cfg = ModelConfig(**{**TINY.__dict__, "layers": 0})
        batch, params = self._batch_and_params(cfg, toy_separable(8))
        stages = list(forward_stages(batch, params, cfg))
        assert [stage for stage, _ in stages] == ["embed.output", "classifier.logits"]
        # The pass runs on the valid tokens only, one row each (8 sentences of 4 of max_len 6 tokens).
        x = embed(batch, params, cfg)
        assert x.shape == (8 * 4, cfg.d_model)
        npt.assert_array_equal(stages[0][1].data, x.data)
        npt.assert_array_equal(stages[1][1].data, classify(x, batch.lengths, params).data)

    def test_stage_names_in_order(self):
        cfg = ModelConfig(**{**TINY.__dict__, "layers": 2})
        batch, params = self._batch_and_params(cfg, toy_separable(8))
        stages = [stage for stage, _ in forward_stages(batch, params, cfg)]
        per_layer = ["attention", "norm1", "ff", "norm2"]
        assert stages == [
            "embed.output",
            *[f"layer{i}.{part}.output" for i in range(2) for part in per_layer],
            "classifier.logits",
        ]

    def test_forward_hash_stable(self):
        cfg = ModelConfig(**{**TINY.__dict__, "layers": 2})
        sentences = toy_separable(8)
        outs = []
        for _ in range(2):
            batch, params = self._batch_and_params(cfg, sentences)
            outs.append(forward_batch(batch, params, cfg).data)
        npt.assert_array_equal(outs[0], outs[1])

    def test_constant_encodings_pool_to_that_vector(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=8)
        encoded = Tensor(np.tile(vec, (5 + 2, 1)))
        params = {"classifier.w": Tensor(np.eye(8)[:, :2]), "classifier.b": Tensor(np.zeros(2))}
        scores = classify(encoded, np.array([5, 2]), params)
        npt.assert_allclose(scores.data[0], vec[:2], atol=1e-12)
        npt.assert_allclose(scores.data[1], vec[:2], atol=1e-12)

    def test_pad_positions_excluded_from_pool(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(1 + 3, 8))
        data[1:] = 1e6  # the next sentence's rows
        params = {"classifier.w": Tensor(np.eye(8)[:, :2]), "classifier.b": Tensor(np.zeros(2))}
        scores = classify(Tensor(data), np.array([1, 3]), params)
        npt.assert_allclose(scores.data[0], data[0, :2], atol=1e-12)

    def test_pooled_matches_masked_mean_oracle(self):
        rng = np.random.default_rng(6)
        lengths = np.array([5, 3, 1])
        data = rng.normal(size=(lengths.sum(), 4))
        params = {"classifier.w": Tensor(np.eye(4)), "classifier.b": Tensor(np.zeros(4))}
        scores = classify(Tensor(data), lengths, params)
        starts = np.cumsum(lengths) - lengths
        for b, (start, n) in enumerate(zip(starts, lengths)):
            npt.assert_allclose(scores.data[b], data[start : start + n].mean(axis=0), atol=1e-12)


class TestBatchCrop:
    """The forward pass runs on each batch cut to its longest sentence."""

    # Two layers and all five roles; twenty.conllu's s15 (11 tokens) fills max_len.
    CFG = ModelConfig(
        layers=2, guided_roles=GUIDED_ROLES, extra_regular_heads=1, d_model=12, ff_width=16,
        dropout=0.2, seed=3, max_len=11, num_classes=2, batch_size=4,
    )

    def _batch(self, twenty, vocab, sent_ids):
        by_id = {s.sent_id: s for s in twenty}
        cfg = self.CFG
        return make_batches([by_id[i] for i in sent_ids], vocab, cfg.batch_size, cfg.max_len,
                            cfg.mask_roles(), shuffle=False)[0]

    def _forward(self, twenty, vocab, sent_ids):
        batch = self._batch(twenty, vocab, sent_ids)
        params = init_params(self.CFG, len(vocab), np.random.default_rng(self.CFG.seed))
        return batch, forward_batch(batch, params, self.CFG).data

    def test_logits_do_not_depend_on_batch_mates(self, twenty, twenty_vocab):
        """To within rounding: a sentence's softmax rows are summed at its tier's width, which its batch-mates set."""
        # s03 (5 tokens) alone, beside the 10-token s19, and beside s15 (no crop).
        widths, logits = [], []
        for sent_ids in (["s03"], ["s03", "s19"], ["s03", "s15"]):
            batch, out = self._forward(twenty, twenty_vocab, sent_ids)
            widths.append(int(batch.lengths.max()))
            logits.append(out[0])
        assert widths == [5, 10, 11]
        for other in logits[1:]:
            npt.assert_allclose(other, logits[0], rtol=0, atol=1e-12)

    def _keep_batch(self, twenty, vocab, sent_ids):
        """The batch of ``sent_ids`` under :attr:`CFG`, one tier; for None, a batch of 1- and 30-token
        sentences under ``max_len`` 32, which ``tier_plan`` cuts into two tiers."""
        if sent_ids is not None:
            return self._batch(twenty, vocab, sent_ids), self.CFG
        cfg = replace(self.CFG, max_len=32)
        sentences = [sent([f"w{i}" for i in range(n)], "x") for n in [1, 30, 1, 1, 30] + [1] * 7]
        batch = make_batches(sentences, build_vocab(sentences), 12, cfg.max_len, cfg.mask_roles(), shuffle=False)[0]
        assert len(batch.tiers) == 2
        return batch, cfg

    def test_training_forward_draws_dropout_at_the_computed_width(self, twenty, twenty_vocab):
        """The full (H, B, n, n) and (B, n, ff_width) draws of each layer, at n the longest sentence; the
        multipliers are one (H, count, width, width) block per tier and the feed-forward units' valid rows."""
        for sent_ids in (["s03", "s08"], ["s19", "s03", "s05"], None):  # longest 5, 10 and 30 tokens
            batch, cfg = self._keep_batch(twenty, twenty_vocab, sent_ids)
            rng = np.random.default_rng(11)
            keeps = _draw_keeps(batch, cfg, rng)
            b, n = batch.size, int(batch.lengths.max())
            assert n < cfg.max_len
            count = cfg.layers * (cfg.heads * b * n**2 + b * n * cfg.ff_width)
            reference = np.random.default_rng(11)
            reference.random(count)
            assert rng.bit_generator.state == reference.bit_generator.state, batch.sent_ids
            tiers = [(cfg.heads, len(rows), int(batch.lengths[rows].max()), int(batch.lengths[rows].max()))
                     for rows in batch.tiers]
            shapes = [([block.shape for block in attn_keep], ff_keep.shape) for attn_keep, ff_keep in keeps]
            assert shapes == [(tiers, (int(batch.lengths.sum()), cfg.ff_width))] * cfg.layers

    @pytest.mark.parametrize("sent_ids", [["s03", "s08"], ["s19", "s03", "s05"], ["s15"], None])
    def test_drawn_multipliers_equal_sequential_draws_bitwise(self, twenty, twenty_vocab, sent_ids):
        """Per layer, the attention block then the feed-forward units, each as one oracle draw: each tier's
        block is the cut of the attention draw at its rows and ``[:width, :width]`` pairs, bit for bit."""
        batch, cfg = self._keep_batch(twenty, twenty_vocab, sent_ids)
        valid = np.arange(int(batch.lengths.max())) < batch.lengths[:, None]
        rng, reference = np.random.default_rng(17), np.random.default_rng(17)
        keeps = _draw_keeps(batch, cfg, rng)
        assert len(keeps) == cfg.layers
        for attn_keep, ff_keep in keeps:
            expected_attn = dropout_keep((cfg.heads, *valid.shape, valid.shape[1]), cfg.dropout, reference)
            expected_ff = dropout_keep((*valid.shape, cfg.ff_width), cfg.dropout, reference)[valid]
            assert len(attn_keep) == len(batch.tiers)
            for rows, block in zip(batch.tiers, attn_keep):
                width = int(batch.lengths[rows].max())
                cut = expected_attn[:, rows, :width, :width]
                assert (block.dtype, block.shape, block.tobytes()) == (cut.dtype, cut.shape, cut.tobytes())
            npt.assert_array_equal(ff_keep, expected_ff)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_training_pass_under_dropout_needs_its_multipliers(self, twenty, twenty_vocab):
        cfg = self.CFG
        batch = self._batch(twenty, twenty_vocab, ["s03", "s08"])
        params = init_params(cfg, len(twenty_vocab), np.random.default_rng(cfg.seed))
        keeps = _draw_keeps(batch, cfg, np.random.default_rng(0))
        for wrong in (None, keeps[:1]):
            with pytest.raises(ConfigError, match="pair of multipliers for each of 2 layers"):
                forward_batch(batch, params, cfg, wrong, training=True)
        # A pass that is not training ignores them.
        npt.assert_array_equal(forward_batch(batch, params, cfg, keeps).data, forward_batch(batch, params, cfg).data)

    def test_an_ablated_config_batches_no_padding_block(self, twenty, twenty_vocab):
        """A ``padding`` head reads the row of valid keys, as a regular head does, so no batch carries its block."""
        cfg = replace(self.CFG, guided_roles=ablated_roles(GUIDED_ROLES, "relpos"), dropout=0.0)
        assert cfg.guided_roles[-1] == "padding" and cfg.mask_roles() == GUIDED_ROLES[:4]
        params = init_params(cfg, len(twenty_vocab), np.random.default_rng(cfg.seed))
        for batch in make_batches(twenty, twenty_vocab, cfg.batch_size, cfg.max_len, cfg.mask_roles(), shuffle=False):
            assert list(batch.allowed) == list(GUIDED_ROLES[:4])
            npt.assert_allclose(forward_batch(batch, params, cfg).data, forward_padded(batch, params, cfg).data,
                                rtol=0, atol=1e-12)

    @settings(max_examples=40)
    @given(
        order=st.permutations(range(20)),
        size=st.integers(min_value=1, max_value=20),
        batch_size=st.integers(min_value=1, max_value=8),
    )
    def test_logits_equal_those_of_a_batch_of_one(self, twenty, twenty_vocab, order, size, batch_size):
        cfg = replace(self.CFG, dropout=0.0)
        params = init_params(cfg, len(twenty_vocab), np.random.default_rng(cfg.seed))
        chosen = [twenty[i] for i in order[:size]]

        def logits(sentences, width):
            batches = make_batches(sentences, twenty_vocab, width, cfg.max_len, cfg.mask_roles(), shuffle=False)
            return np.concatenate([forward_batch(batch, params, cfg).data for batch in batches])

        alone = np.concatenate([logits([s], 1) for s in chosen])
        npt.assert_allclose(logits(chosen, batch_size), alone, rtol=0, atol=1e-12)


class TestPackedRows:
    """Every stage but attention computes on the valid tokens only, packed as rows."""

    CFG = TestBatchCrop.CFG

    @settings(max_examples=30)
    @given(
        chosen=st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True),
        batch_size=st.integers(min_value=1, max_value=8),
        dropout=st.sampled_from([0.0, 0.2]),
    )
    @example(chosen=[1, 8, 10, 15], batch_size=4, dropout=0.0)  # s02, s09, s11, s16: 6 tokens each
    @example(chosen=[4, 7, 0], batch_size=3, dropout=0.0)  # s08 is 1 token
    def test_logits_and_gradients_equal_the_padded_forward(
        self, twenty, twenty_vocab, chosen, batch_size, dropout
    ):
        cfg = replace(self.CFG, dropout=dropout)
        params = init_params(cfg, len(twenty_vocab), np.random.default_rng(cfg.seed))
        batches = make_batches([twenty[i] for i in chosen], twenty_vocab, batch_size, cfg.max_len,
                               cfg.mask_roles(), shuffle=False)
        for batch in batches:
            labels = np.arange(batch.size) % cfg.num_classes
            runs = []
            for layout in ("packed", "padded"):
                ad.zero_grads(params)
                rng = np.random.default_rng(21)
                if layout == "packed":
                    keeps = _draw_keeps(batch, cfg, rng) if cfg.dropout > 0.0 else None
                    logits = forward_batch(batch, params, cfg, keeps, training=True)
                else:
                    logits = forward_padded(batch, params, cfg, rng=rng, training=True)
                ad.backward(ad.cross_entropy(logits, labels), params)
                runs.append((logits.data, {name: p.grad for name, p in params.items()}, rng.bit_generator.state))
            (packed, packed_grads, packed_state), (padded, padded_grads, padded_state) = runs
            npt.assert_allclose(packed, padded, rtol=0, atol=1e-12)
            for name in params:
                npt.assert_allclose(packed_grads[name], padded_grads[name], rtol=0, atol=1e-12, err_msg=name)
            assert packed_state == padded_state  # feed-forward dropout keeps its (B, n, ff_width) draw

    @pytest.mark.parametrize("sent_ids, dense", [(["s02", "s09", "s11", "s16"], True), (["s02", "s08"], False)])
    def test_a_batch_without_padding_is_laid_out_without_copies(
        self, twenty, twenty_vocab, monkeypatch, sent_ids, dense
    ):
        by_id = {s.sent_id: s for s in twenty}
        cfg = replace(self.CFG, guided_roles=ablated_roles(GUIDED_ROLES, "relpos"))  # two heads read the key row
        batch = make_batches([by_id[i] for i in sent_ids], twenty_vocab, cfg.batch_size, cfg.max_len,
                             cfg.mask_roles(), shuffle=False)[0]
        assert np.all(batch.lengths == batch.lengths.max()) == dense
        laid_out, plans, lay_out, attention = [], [], ad.Plan.lay_out, ad.attention

        def spy(plan, rows):
            laid_out.append((rows, lay_out(plan, rows)))
            return laid_out[-1][1]

        def attention_spy(q, k, v, plan, keep=None):
            plans.append(plan)
            return attention(q, k, v, plan, keep)

        monkeypatch.setattr(ad.Plan, "lay_out", spy)
        monkeypatch.setattr(ad, "attention", attention_spy)
        forward_batch(batch, init_params(cfg, len(twenty_vocab), np.random.default_rng(0)), cfg)
        assert len(plans) == cfg.layers and all(plan is plans[0] for plan in plans)  # both layers share the masks
        (tier,) = plans[0].tiers
        n = int(batch.lengths.max())
        heads = [*cfg.guided_roles, *["padding"] * cfg.extra_regular_heads]  # a regular head reads the key row
        for role, mask in zip(heads, tier.masks, strict=True):  # no mask is cut: each keeps its block's shape
            assert mask.shape == ((batch.size, 1, n) if role == "padding" else (batch.size, n, n))
        for (role, mask), (other, other_mask) in itertools.combinations(zip(heads, tier.masks), 2):
            assert (mask is other_mask) == (role == other)  # one additive array per distinct block
        assert len({id(mask) for mask in tier.masks}) == len(cfg.mask_roles()) + 1
        assert len(laid_out) == 3 * cfg.layers  # q, k and v of each layer
        for rows, out in laid_out:
            assert out.shape == (batch.size * int(batch.lengths.max()), rows.shape[1])
            assert np.shares_memory(out, rows) == dense

    def test_the_layout_is_planned_once_per_pass(self, monkeypatch):
        """Two layers over a two-tier batch: one ``tier_plan`` call, both nodes read one plan and its mask cuts, and
        each returns one (H, count, width, width) weight block per tier."""
        import guided_attention.corpus as corpus_module

        cfg = replace(self.CFG, layers=2, guided_roles=("relpos", "seprat"), extra_regular_heads=2, max_len=30)
        sentences = [sent([f"w{i}" for i in range(n)], "x") for n in [1, 30, 1, 1, 30] + [1] * 7]
        vocab = build_vocab(sentences)
        batch = make_batches(sentences, vocab, len(sentences), cfg.max_len, cfg.mask_roles(), shuffle=False)[0]
        tiers, plans, tier_plan, attention = [], [], corpus_module.tier_plan, ad.attention

        def tier_spy(lengths):
            tiers.append(tier_plan(lengths))
            return tiers[-1]

        def attention_spy(q, k, v, plan, keep=None):
            out, blocks = attention(q, k, v, plan, keep)
            plans.append((plan, [tier.masks for tier in plan.tiers], blocks))
            return out, blocks

        monkeypatch.setattr(corpus_module, "tier_plan", tier_spy)
        monkeypatch.setattr(ad, "attention", attention_spy)
        params = init_params(cfg, len(vocab), np.random.default_rng(0))
        forward_batch(batch, params, cfg)
        assert [[rows.tolist() for rows in plan] for plan in tiers] == [[[0, 2, 3, 5, 6, 7, 8, 9, 10, 11], [1, 4]]]
        assert batch.tiers is tiers[0]
        (plan, masks, blocks), (second_plan, second_masks, second_blocks) = plans
        assert second_plan is plan
        for tier, cuts, second_cuts in zip(plan.tiers, masks, second_masks):
            assert len(cuts) == cfg.heads and all(a is b for a, b in zip(cuts, second_cuts))
            assert cuts[2] is cuts[3]  # the regular heads share one cut of the key row
            count = len(tier.rows)
            blocks_then_rows = [(count, tier.width, tier.width)] * 2 + [(count, 1, tier.width)] * 2
            assert [cut.shape for cut in cuts] == blocks_then_rows  # each role's block, then the key row as a row
        for weights in (blocks, second_blocks):  # one weight block per tier, no padded (H, B, n, n) grid
            assert [block.shape for block in weights] == [(cfg.heads, len(t.rows), t.width, t.width) for t in plan.tiers]
        forward_batch(batch, params, cfg)  # the batch keeps its tiers: a second pass plans none
        assert len(tiers) == 1 and plans[-1][0].tiers[1].rows is tiers[0][1]


class TestEndToEndGradients:
    def test_gradcheck_tiny_model(self):
        # L=1, H=2 (1 guided), d_model=8, n=4, dropout 0
        cfg = ModelConfig(
            layers=1, guided_roles=("relpos",), extra_regular_heads=1, d_model=8,
            ff_width=10, dropout=0.0, max_len=4, num_classes=2, batch_size=2, seed=1,
        )
        sentences = [sent(["a", "b", "c"], "x"), sent(["d", "b"], "y")]
        vocab = build_vocab(sentences)
        classes = label_index(sentences)
        batch = make_batches(sentences, vocab, 2, 4, cfg.mask_roles(), shuffle=False, labels=classes)[0]
        params = init_params(cfg, len(vocab), np.random.default_rng(cfg.seed))

        def loss_value():
            logits = forward_batch(batch, params, cfg)
            return ad.cross_entropy(logits, batch.labels).item()

        loss = ad.cross_entropy(forward_batch(batch, params, cfg), batch.labels)
        ad.backward(loss, params)
        for name, p in params.items():
            (numeric,) = finite_difference_grad(loss_value, [p.data], h=1e-5)
            err = relative_error(p.grad, numeric)
            assert err < 1e-4, f"{name}: relative error {err}"


class TestTraining:
    def test_separable_toy_reaches_high_accuracy(self):
        data = toy_separable(60)
        cfg = ModelConfig(**{**TINY.__dict__, "epochs": 50, "learning_rate": 0.02})
        ckpt = train(cfg, data, data)
        metrics = evaluate(ckpt, data)
        assert metrics.accuracy >= 99.0

    def test_fixed_seed_identical_history(self):
        data = toy_separable(24)
        a = train(TINY, data, data)
        b = train(TINY, data, data)
        assert a.metadata["history"] == b.metadata["history"]
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])

    def test_zero_learning_rate_keeps_parameters(self):
        data = toy_separable(16)
        cfg = ModelConfig(**{**TINY.__dict__, "learning_rate": 0.0, "epochs": 3})
        vocab = build_vocab(data)
        reference = init_params(cfg, len(vocab), np.random.default_rng(cfg.seed))
        ckpt = train(cfg, data, data, vocab=vocab)
        for name, p in reference.items():
            npt.assert_array_equal(ckpt.params[name], p.data)
        losses = [row["train_loss"] for row in ckpt.metadata["history"]]
        assert losses[0] == losses[1] == losses[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up is the point
    def test_nan_loss_aborts_with_diagnostic(self):
        data = toy_separable(16)
        cfg = ModelConfig(**{**TINY.__dict__, "learning_rate": 1e200, "epochs": 4})
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(cfg, data, data)
        assert "tensor" in str(excinfo.value)

    # The diverging run overflows float64 in matmuls on its way to the NaN loss.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_starts_no_thread(self, monkeypatch):
        """With or without dropout, and when training diverges, ``train`` runs on the caller's thread alone."""
        def refuse(thread):
            raise AssertionError(f"train started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        data = toy_separable(20)
        for dropout in (0.0, 0.1):
            train(replace(TINY, dropout=dropout), data, data)
        with pytest.raises(TrainingDivergedError):
            train(replace(TINY, learning_rate=1e200, epochs=4, dropout=0.1), data, data)

    @staticmethod
    def mixed_lengths(count, seed):
        """Labelled sentences of 1 to 30 tokens, so most batches of 8 are cut into two or three tiers."""
        rng = np.random.default_rng(seed)
        return [sent([f"w{j}" for j in rng.integers(0, 9, size=n)], "ab"[i % 2])
                for i, n in enumerate(rng.choice([1, 2, 3, 30], size=count))]

    def test_tiers_are_planned_once_per_batch_per_train_call(self, monkeypatch):
        """Over every epoch and dev pass of ``train``, each training and dev batch is planned exactly once."""
        import guided_attention.corpus as corpus_module

        planned, tier_plan = [], corpus_module.tier_plan

        def spy(lengths):
            planned.append(id(lengths))
            return tier_plan(lengths)

        train_data, dev_data = self.mixed_lengths(40, 1), self.mixed_lengths(20, 2)
        cfg = replace(TINY, max_len=30, epochs=3, dropout=0.1)
        monkeypatch.setattr(corpus_module, "tier_plan", spy)
        train(cfg, train_data, dev_data)
        assert len(planned) == len(set(planned)) == math.ceil(40 / cfg.batch_size) + math.ceil(20 / cfg.batch_size)

    def test_best_dev_epoch_retained(self):
        data = toy_separable(40)
        cfg = ModelConfig(**{**TINY.__dict__, "epochs": 12, "learning_rate": 0.02})
        ckpt = train(cfg, data, data)
        history = ckpt.metadata["history"]
        best = ckpt.metadata["best_epoch"]
        best_acc = max(row["dev_acc"] for row in history)
        assert history[best - 1]["dev_acc"] == best_acc
        assert all(row["dev_acc"] < best_acc for row in history[: best - 1])
        # The kept parameters are those after epoch `best`: a run stopped there ends with them.
        assert best < cfg.epochs
        stopped = train(replace(cfg, epochs=best), data, data)
        for name in ckpt.params:
            npt.assert_array_equal(ckpt.params[name], stopped.params[name])

    def test_loss_decreases_on_local_pattern_task(self):
        train_set, _ = generate_local_pattern_task(n_train=200, n_test=10, seq_len=8, seed=3)
        cfg = ModelConfig(
            layers=1, guided_roles=("relpos",), extra_regular_heads=1, d_model=16,
            ff_width=24, dropout=0.0, learning_rate=0.01, epochs=5, seed=0,
            max_len=8, num_classes=2, batch_size=16,
        )
        ckpt = train(cfg, train_set, train_set[:40])
        losses = [row["train_loss"] for row in ckpt.metadata["history"]]
        best_so_far = np.minimum.accumulate(losses)
        assert np.all(np.diff(best_so_far) <= 0)
        assert losses[-1] < losses[0]

    def test_dev_evaluation_records_no_tape(self, monkeypatch):
        import guided_attention.model as model_module

        calls = []
        original = model_module.forward_batch

        def spy(*args, training=False, **kwargs):
            logits = original(*args, training=training, **kwargs)
            calls.append((training, logits.requires_grad))
            return logits

        monkeypatch.setattr(model_module, "forward_batch", spy)
        train(TINY, toy_separable(20), toy_separable(10, seed=1))
        dev = [requires_grad for training, requires_grad in calls if not training]
        assert len(dev) == TINY.epochs * 2  # 10 dev sentences in batches of 8
        assert not any(dev)
        assert all(requires_grad for training, requires_grad in calls if training)

    def test_train_and_evaluate_build_no_float_mask_grid(self, twenty, monkeypatch):
        def refuse(batch):
            raise AssertionError("a (B, max_len, max_len) float mask grid was built")

        monkeypatch.setattr(Batch, "role_masks", property(refuse))
        monkeypatch.setattr(Batch, "pad_mask", property(refuse))
        ckpt = train(replace(TestGoldenTraining.CFG, epochs=1), twenty, twenty[:12])
        assert evaluate(ckpt, twenty).total == len(twenty)

    def test_unlabeled_training_data_rejected(self):
        data = toy_separable(8)
        data[3] = sent(["no", "label"])
        with pytest.raises(ConfigError):
            train(TINY, data, data)


class TestBaselineEquivalence:
    def test_all_zero_mask_guided_matches_regular(self):
        data = toy_separable(24)
        base = dict(TINY.__dict__)
        n0 = ModelConfig(**{**base, "guided_roles": (), "extra_regular_heads": 2})
        zero_mask = ModelConfig(**{**base, "guided_roles": ("padding", "padding"), "extra_regular_heads": 0})
        a = train(n0, data, data)
        b = train(zero_mask, data, data)
        assert a.metadata["history"] == b.metadata["history"]
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])


class TestEvaluate:
    def test_perfect_predictions_score_100(self):
        data = toy_separable(30)
        cfg = ModelConfig(**{**TINY.__dict__, "epochs": 50, "learning_rate": 0.02})
        ckpt = train(cfg, data, data)
        metrics = evaluate(ckpt, data)
        if metrics.correct == metrics.total:
            assert metrics.accuracy == 100.0
        assert metrics.total == 30

    def test_untrained_model_near_chance_on_random_labels(self):
        rng = np.random.default_rng(9)
        fillers = [f"t{i}" for i in range(20)]
        data = [
            sent([fillers[k] for k in rng.integers(0, 20, size=5)], label=str(rng.integers(0, 2)))
            for _ in range(400)
        ]
        vocab = build_vocab(data)
        params = init_params(TINY, len(vocab), np.random.default_rng(0))
        ckpt = Checkpoint(
            config=TINY,
            params={k: p.data for k, p in params.items()},
            vocab=vocab,
            class_names=["0", "1"],
        )
        metrics = evaluate(ckpt, data)
        assert 40.0 <= metrics.accuracy <= 60.0

    def test_matches_hand_scored_confusion_count(self):
        data = toy_separable(20)
        ckpt = train(TINY, data, data)
        metrics = evaluate(ckpt, data)
        # hand scoring: per-sentence forward through single-example batches
        classes = {name: i for i, name in enumerate(ckpt.class_names)}
        params = ckpt.param_tensors()
        correct = 0
        for s in data:
            batch = make_batches([s], ckpt.vocab, 1, TINY.max_len, TINY.mask_roles(),
                                 shuffle=False, labels=classes)[0]
            pred = int(forward_batch(batch, params, TINY).data[0].argmax())
            correct += int(pred == classes[s.label])
        assert metrics.correct == correct
        npt.assert_allclose(metrics.accuracy, 100.0 * correct / len(data), atol=1e-12)

    def test_unknown_label_rejected(self):
        data = toy_separable(12)
        ckpt = train(TINY, data, data)
        with pytest.raises(ConfigError):
            evaluate(ckpt, [sent(["a"], label="mystery")])

    def test_vocab_swap_refused(self):
        data = toy_separable(12)
        ckpt = train(TINY, data, data)
        ckpt.vocab = build_vocab([sent(["other", "words"])])
        with pytest.raises(ConfigError):
            evaluate(ckpt, data)


class TestLengthOrder:
    """Forward-only passes run their sentences in length order; ``evaluate`` builds one batch at a time."""

    CFG = ModelConfig(
        layers=1, guided_roles=GUIDED_ROLES, extra_regular_heads=1, d_model=12, ff_width=16,
        dropout=0.1, learning_rate=0.01, epochs=3, seed=2, max_len=11, num_classes=2, batch_size=4,
    )

    @pytest.fixture(scope="class")
    def ckpt(self, twenty):
        return train(self.CFG, twenty, twenty)

    @staticmethod
    def shuffled(sentences, seed=5):
        copy = list(sentences)
        random.Random(seed).shuffle(copy)
        return copy

    def test_evaluate_builds_and_runs_one_sorted_chunk_at_a_time(self, ckpt, twenty, monkeypatch):
        import guided_attention.model as model_module

        events = []
        make, forward = model_module.make_batches, model_module.forward_batch

        def make_spy(sentences, *args, **kwargs):
            events.append([len(s) for s in sentences])
            return make(sentences, *args, **kwargs)

        def forward_spy(*args, **kwargs):
            events.append("forward")
            return forward(*args, **kwargs)

        monkeypatch.setattr(model_module, "make_batches", make_spy)
        monkeypatch.setattr(model_module, "forward_batch", forward_spy)
        evaluate(ckpt, self.shuffled(twenty))
        built = [lengths for lengths in events if lengths != "forward"]
        # Each chunk is evaluated before the next is built.
        assert events == [e for lengths in built for e in (lengths, "forward")]
        assert [len(lengths) for lengths in built] == [4] * 5
        flat = [n for lengths in built for n in lengths]
        assert flat == sorted(len(s) for s in twenty)

    def test_evaluate_does_not_depend_on_input_order(self, ckpt, twenty):
        from guided_attention.model import _evaluate_batches

        cfg = ckpt.config
        classes = {name: i for i, name in enumerate(ckpt.class_names)}
        in_input_order = _evaluate_batches(
            make_batches(twenty, ckpt.vocab, cfg.batch_size, cfg.max_len, cfg.mask_roles(),
                         shuffle=False, labels=classes),
            ckpt.param_tensors(), cfg,
        )
        for sentences in (twenty, self.shuffled(twenty)):
            metrics = evaluate(ckpt, sentences)
            assert (metrics.correct, metrics.total, metrics.accuracy) == (
                in_input_order.correct, in_input_order.total, in_input_order.accuracy
            )
            npt.assert_allclose(metrics.loss, in_input_order.loss, rtol=0, atol=1e-12)

    def test_dev_order_does_not_move_training(self, ckpt, twenty):
        again = train(self.CFG, twenty, self.shuffled(twenty))
        assert list(again.params) == list(ckpt.params)
        for name in ckpt.params:
            npt.assert_array_equal(again.params[name], ckpt.params[name])
        history, other = ckpt.metadata["history"], again.metadata["history"]
        assert [row["dev_acc"] for row in other] == [row["dev_acc"] for row in history]
        assert [row["train_loss"] for row in other] == [row["train_loss"] for row in history]
        npt.assert_allclose([row["dev_loss"] for row in other], [row["dev_loss"] for row in history],
                            rtol=0, atol=1e-12)

    def test_dev_batches_built_once_per_call(self, twenty, monkeypatch):
        import guided_attention.model as model_module

        calls = []
        make = model_module.make_batches

        def spy(sentences, *args, **kwargs):
            calls.append(len(sentences))
            return make(sentences, *args, **kwargs)

        monkeypatch.setattr(model_module, "make_batches", spy)
        train(self.CFG, twenty, twenty[:10])
        assert calls == [20, 4, 4, 2]  # the training split, then the dev split in chunks, for all 3 epochs

    @pytest.mark.parametrize("data", [[], [sent(["a", "b"]), sent(["c"])]], ids=["empty", "unlabeled"])
    def test_evaluate_without_labels_rejected(self, ckpt, data):
        with pytest.raises(ConfigError, match="evaluation data carries no labels"):
            evaluate(ckpt, data)


class TestAdam:
    def test_moves_toward_minimum(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True, name="p")
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(200):
            ad.zero_grads({"p": p})
            loss = tensor_sum(ad.mul(p, p))
            ad.backward(loss)
            opt.step()
        assert np.all(np.abs(p.data) < 1e-2)

    @settings(max_examples=40)
    @given(
        shapes=st.lists(
            st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple), min_size=1, max_size=6
        ),
        steps=st.integers(1, 20),
        lr=st.sampled_from([0.0, 1e-3, 0.05, 3.0]),
        zero_every=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_step_bit_identical_to_per_tensor_adam(self, shapes, steps, lr, zero_every, seed):
        """Parameters and moments equal those of per-tensor Adam after every step, for any mix of shapes."""
        rng = np.random.default_rng(seed)
        start = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        flat = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
        ref = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
        opt, oracle = Adam(flat, lr=lr), AdamPerTensor(ref, lr=lr)
        for step in range(steps):
            for i, name in enumerate(start):
                g = np.zeros(start[name].shape) if (step + i) % zero_every == 0 else rng.normal(size=start[name].shape)
                flat[name].grad, ref[name].grad = g, g.copy()
            opt.step()
            oracle.step()
            for name in start:
                npt.assert_array_equal(flat[name].data, ref[name].data)
            for mine, theirs in ((opt.m, oracle.m), (opt.v, oracle.v)):
                for name, view in opt.views(mine).items():
                    npt.assert_array_equal(view, theirs[name])

    def test_parameters_become_views_of_one_buffer(self):
        params = init_params(TINY, 10, np.random.default_rng(0))
        before = {name: p.data.copy() for name, p in params.items()}
        opt = Adam(params, lr=0.1)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.flat)
            npt.assert_array_equal(p.data, before[name])
        assert opt.flat.size == sum(a.size for a in before.values())

    def test_parameter_without_gradient_named(self):
        params = init_params(TINY, 10, np.random.default_rng(0))
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        params["layer0.ff.b1"].grad = None
        flat = opt.flat.copy()
        with pytest.raises(MissingGradientError, match="'layer0.ff.b1'") as excinfo:
            opt.step()
        assert excinfo.value.param_name == "layer0.ff.b1"
        assert opt.t == 0
        npt.assert_array_equal(opt.flat, flat)

    def test_checkpoint_parameters_are_views_of_one_snapshot(self, twenty):
        ckpt = train(replace(TINY, epochs=2), twenty, twenty)
        (snapshot,) = {id(a.base): a.base for a in ckpt.params.values()}.values()
        assert snapshot is not None and snapshot.size == sum(a.size for a in ckpt.params.values())
        assert list(ckpt.params) == list(param_shapes(TINY, len(ckpt.vocab)))


class TestDivergenceDiagnosis:
    """``diagnose_nonfinite`` names the parameter or forward stage that first goes non-finite."""

    CFG = ModelConfig(**{**TINY.__dict__, "layers": 2})

    def _diagnose(self, name, value):
        sentences = toy_separable(8)
        vocab = build_vocab(sentences)
        batch = make_batches(sentences, vocab, 8, self.CFG.max_len, self.CFG.mask_roles(),
                             shuffle=False, labels=label_index(sentences))[0]
        params = init_params(self.CFG, len(vocab), np.random.default_rng(0))
        params[name].data[...] = value
        return diagnose_nonfinite(batch, params, self.CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_huge_embeddings_blow_up_first_attention(self):
        assert self._diagnose("embed.token", 1e200) == "layer0.attention.output"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_norm_gain_blows_up_next_attention(self):
        assert self._diagnose("layer0.norm2.gain", 1e200) == "layer1.attention.output"

    def test_nan_parameter_names_itself(self):
        assert self._diagnose("layer1.ff.w1", np.nan) == "layer1.ff.w1"

    def test_finite_forward_falls_through_to_loss(self):
        assert self._diagnose("classifier.b", 0.0) == "loss"


class TestGoldenTraining:
    """SHA-256 of what ``train`` returns on the fixture, pinned as literals.

    A change meant to leave training bit-identical (a faster kernel, a new
    optimizer layout) must leave these digests as they are.
    """

    CFG = ModelConfig(
        layers=2, guided_roles=GUIDED_ROLES, extra_regular_heads=1, d_model=12, ff_width=16,
        dropout=0.1, learning_rate=0.01, epochs=2, seed=4, max_len=11, num_classes=2, batch_size=4,
    )

    @pytest.mark.parametrize(
        "dropout, expected",
        [
            (0.1, "a76b5324bf22e65af045ceb82042629a4adcdb7a89354181afa4db0c71d118ef"),
            (0.0, "509b95cb42c9e0835071fba2236de9f1c2bee34d57e7bec3b352530cf9b69736"),
        ],
    )
    def test_parameters_history_and_evaluation_match_the_golden_digest(self, twenty, dropout, expected):
        ckpt = train(replace(self.CFG, dropout=dropout), twenty, twenty[:12])
        digest = hashlib.sha256()
        for name, array in ckpt.params.items():
            digest.update(f"{name}{array.dtype}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(json.dumps(ckpt.metadata, sort_keys=True).encode())
        metrics = evaluate(ckpt, twenty)
        digest.update(repr((metrics.loss, metrics.correct, metrics.total)).encode())
        assert digest.hexdigest() == expected
