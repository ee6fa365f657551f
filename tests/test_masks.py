import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guided_attention.corpus import Sentence, Token, build_vocab, label_index, make_batches
from guided_attention import masks as masks_mod
from guided_attention.autodiff import NEG_INF
from guided_attention.errors import ShapeMismatchError
from guided_attention.masks import (
    ALL_ROLES,
    GUIDED_ROLES,
    RoleMask,
    apply_fallback,
    build_role_mask,
    dump_record,
)
from oracles import (
    columns_to_pairs,
    edge_pairs_bruteforce,
    make_batches_per_sentence,
    mask_open_pairs,
    pairs_with_fallback,
    parse_dump,
    rare_columns_bruteforce,
    sentences,
    separator_columns_bruteforce,
    tridiagonal_pairs,
)


def sent(forms, heads=None, deprels=None, label=None):
    heads = heads or [None] * len(forms)
    deprels = deprels or [None] * len(forms)
    tokens = [
        Token(form=f, index=i + 1, head=h, deprel=d)
        for i, (f, h, d) in enumerate(zip(forms, heads, deprels))
    ]
    return Sentence(tokens, label=label)


def batch_of(sentences, max_len, roles):
    """One unshuffled batch holding ``sentences`` padded to ``max_len``."""
    vocab = build_vocab(sentences)
    (batch,) = make_batches(sentences, vocab, len(sentences), max_len, roles, shuffle=False)
    return batch, vocab


def assert_binary(mask: RoleMask):
    assert mask.values.dtype == bool and mask.values.shape == (mask.n, mask.n)


class TestRareWordsMask:
    def test_single_rarest_column(self):
        vocab = build_vocab(
            [sent(["a", "b", "c", "d", "rare"])]
            + [sent(["a", "b", "c", "d"]) for _ in range(3)]
        )
        mask = build_role_mask("rarew", sent(["a", "b", "rare", "c", "d"]), vocab)
        assert np.all(mask.values[:, 2])
        other = np.delete(mask.values, 2, axis=1)
        assert not np.any(other)

    def test_all_identical_tokens_tie_break(self):
        vocab = build_vocab([sent(["x", "x", "x"])])
        mask = build_role_mask("rarew", sent(["x", "x", "x"]), vocab)
        assert np.all(mask.values[:, 0])
        assert not np.any(mask.values[:, 1:])

    def test_fixture_matches_bruteforce(self, twenty, twenty_vocab):
        for s in twenty:
            mask = build_role_mask("rarew", s, twenty_vocab)
            expected = columns_to_pairs(rare_columns_bruteforce(s, twenty_vocab), len(s))
            assert mask_open_pairs(mask.values) == expected
            assert_binary(mask)


class TestSeparatorMask:
    def test_hello_comma_world_dot(self):
        mask = build_role_mask("seprat", sent(["Hello", ",", "world", "."]))
        for col, open_ in [(0, False), (1, True), (2, False), (3, True)]:
            assert np.all(mask.values[:, col] == open_)

    def test_no_punctuation_falls_back_to_diagonal(self):
        mask = build_role_mask("seprat", sent(["just", "plain", "words"]))
        npt.assert_array_equal(mask.values, np.eye(3, dtype=bool))

    def test_question_mark_mid_sentence(self, twenty):
        s17 = next(s for s in twenty if s.sent_id == "s17")
        mask = build_role_mask("seprat", s17)
        assert s17.tokens[6].form == "?"
        assert np.all(mask.values[:, 6])

    def test_reserved_markers_count(self):
        mask = build_role_mask("seprat", sent(["[START]", "body", "[SEP]", "tail", "[END]"]))
        for col in (0, 2, 4):
            assert np.all(mask.values[:, col])
        for col in (1, 3):
            assert not np.any(mask.values[:, col])

    def test_fixture_matches_bruteforce(self, twenty):
        for s in twenty:
            expected = columns_to_pairs(separator_columns_bruteforce(s), len(s))
            assert mask_open_pairs(build_role_mask("seprat", s).values) == expected


class TestDependencyMasks:
    def test_single_edge_symmetric(self):
        s = sent(["She", "runs"], heads=[2, 0], deprels=["nsubj", "root"])
        mask = build_role_mask("depsyn", s)
        assert mask.values[0, 1]
        assert mask.values[1, 0]
        # both rows feasible via the edge, so diagonals stay closed
        assert not mask.values[0, 0]
        assert not mask.values[1, 1]

    def test_single_token_diagonal_fallback(self):
        mask = build_role_mask("depsyn", sent(["Run"], heads=[0], deprels=["root"]))
        npt.assert_array_equal(mask.values, [[True]])

    def test_root_edge_contributes_nothing(self):
        s = sent(["a", "b"], heads=[0, 1], deprels=["root", "obj"])
        mask = build_role_mask("depsyn", s)
        assert mask_open_pairs(mask.values) == {(0, 1), (1, 0)}

    def test_fixture_matches_edge_list_oracle(self, twenty):
        for s in twenty:
            expected = pairs_with_fallback(edge_pairs_bruteforce(s), len(s))
            assert mask_open_pairs(build_role_mask("depsyn", s).values) == expected

    def test_majrel_qualifying_edge(self):
        s = sent(["She", "runs"], heads=[2, 0], deprels=["nsubj", "root"])
        mask = build_role_mask("majrel", s)
        assert mask.values[0, 1] and mask.values[1, 0]

    def test_majrel_non_qualifying_edge_all_fallback(self):
        s = sent(["the", "cat"], heads=[2, 0], deprels=["det", "root"])
        mask = build_role_mask("majrel", s)
        npt.assert_array_equal(mask.values, np.eye(2, dtype=bool))

    def test_majrel_accepts_obj_and_dobj(self, twenty):
        s02 = next(s for s in twenty if s.sent_id == "s02")  # uses obj
        s11 = next(s for s in twenty if s.sent_id == "s11")  # uses dobj
        assert (2, 4) in mask_open_pairs(build_role_mask("majrel", s02).values)
        assert (2, 4) in mask_open_pairs(build_role_mask("majrel", s11).values)

    def test_fixture_majrel_matches_filtered_oracle(self, twenty):
        rel = {"nsubj", "dobj", "obj", "amod", "advmod"}
        for s in twenty:
            expected = pairs_with_fallback(edge_pairs_bruteforce(s, rel), len(s))
            assert mask_open_pairs(build_role_mask("majrel", s).values) == expected

    def test_majrel_subset_of_depsyn_prefallback(self, twenty):
        rel = {"nsubj", "dobj", "obj", "amod", "advmod"}
        for s in twenty:
            assert edge_pairs_bruteforce(s, rel) <= edge_pairs_bruteforce(s)

    def test_unparsed_sentence_degrades_to_diagonal(self):
        s = sent(["no", "parse", "here"])
        for role in ("depsyn", "majrel"):
            npt.assert_array_equal(build_role_mask(role, s).values, np.eye(3, dtype=bool))

    def test_symmetry_and_subset_on_random_trees(self):
        # head != index and edges never touch the diagonal, so removing the
        # diagonal recovers the pre-fallback open set exactly
        rng = np.random.default_rng(7)
        deprels = ["nsubj", "obj", "det", "amod", "advmod", "case", "conj"]
        for _ in range(100):
            n = int(rng.integers(1, 10))
            tokens = [Token(f"w{rng.integers(0, 8)}", 1, head=0, deprel="root")]
            for i in range(2, n + 1):
                tokens.append(
                    Token(
                        f"w{rng.integers(0, 8)}", i,
                        head=int(rng.integers(1, i)), deprel=str(rng.choice(deprels)),
                    )
                )
            s = Sentence(tokens)
            diagonal = {(i, i) for i in range(n)}
            dep_open = mask_open_pairs(build_role_mask("depsyn", s).values)
            maj_open = mask_open_pairs(build_role_mask("majrel", s).values)
            dep_edges = dep_open - diagonal
            maj_edges = maj_open - diagonal
            assert {(j, i) for i, j in dep_edges} == dep_edges
            assert {(j, i) for i, j in maj_edges} == maj_edges
            assert maj_edges <= dep_edges


class TestRelativePositionMask:
    def test_n4_tridiagonal(self):
        mask = build_role_mask("relpos", sent(["w"] * 4))
        assert mask_open_pairs(mask.values) == tridiagonal_pairs(4)

    def test_n1_single_entry(self):
        npt.assert_array_equal(build_role_mask("relpos", sent(["w"] * 1)).values, [[True]])

    def test_n10_zero_count_formula(self):
        assert len(mask_open_pairs(build_role_mask("relpos", sent(["w"] * 10)).values)) == 3 * 10 - 2

    def test_symmetric(self):
        values = build_role_mask("relpos", sent(["w"] * 7)).values
        npt.assert_array_equal(values, values.T)


class TestPaddingMask:
    """The padding grid that ``make_batches`` builds for each row."""

    def test_columns_beyond_valid_closed(self):
        batch, _ = batch_of([sent(["a", "b", "c"])], 5, ("padding",))
        assert np.all(batch.pad_mask[0][:, 3:] == NEG_INF)
        assert np.all(batch.pad_mask[0][:, :3] == 0.0)

    def test_no_padding_all_zero(self):
        batch, _ = batch_of([sent(["a", "b", "c", "d"])], 4, ("padding",))
        npt.assert_array_equal(batch.pad_mask[0], np.zeros((4, 4)))


class TestFallbackAndCombine:
    def test_full_fallback_gives_identity_diagonal(self):
        out = apply_fallback(np.zeros((3, 3), dtype=bool), 3)
        npt.assert_array_equal(out, np.eye(3, dtype=bool))

    def test_feasible_mask_unchanged(self):
        allowed = np.eye(3, dtype=bool)
        out = apply_fallback(allowed.copy(), 3)
        npt.assert_array_equal(out, allowed)

    def test_only_infeasible_rows_gain_diagonal(self):
        allowed = np.zeros((4, 4), dtype=bool)
        allowed[0, 2] = True
        allowed[3, 1] = True
        out = apply_fallback(allowed, 4)
        assert mask_open_pairs(out) == {(0, 2), (3, 1), (1, 1), (2, 2)}

    def test_batched_rows_use_their_own_valid_count(self):
        allowed = np.zeros((2, 3, 3), dtype=bool)
        allowed[0, 0, 1] = True
        out = apply_fallback(allowed, np.array([3, 1]))
        assert mask_open_pairs(out[0]) == {(0, 1), (1, 1), (2, 2)}
        assert mask_open_pairs(out[1]) == {(0, 0)}

    def test_input_mask_left_unchanged(self):
        allowed = np.zeros((2, 3, 3), dtype=bool)
        out = apply_fallback(allowed, np.array([3, 2]))
        assert out is not allowed
        assert not allowed.any()
        assert mask_open_pairs(out[1]) == {(0, 0), (1, 1)}

    def test_open_and_padded_rows_kept_as_they_are(self):
        allowed = np.zeros((2, 3, 3), dtype=bool)
        allowed[0, 0, 1] = True  # a valid row that is already open
        allowed[1, 2, 0] = True  # a padded row of the second grid, which has one valid row
        before = allowed.copy()
        out = apply_fallback(allowed, np.array([3, 1]))
        assert out.dtype == bool
        npt.assert_array_equal(allowed, before)
        assert [mask_open_pairs(grid) for grid in out] == [{(0, 1), (1, 1), (2, 2)}, {(0, 0), (2, 0)}]

    def test_any_rows_equals_numpy_any(self):
        """The transposed reduction under ``apply_fallback`` is ``np.any`` over the last axis, widths 0-40."""
        rng = np.random.default_rng(5)
        for width in range(41):
            for share in (0.0, 0.05, 0.5):
                for shape in ((3, 7, width), (7, width)):
                    allowed = rng.random(shape) < share
                    got, want = masks_mod._any_rows(allowed), allowed.any(axis=-1)
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_batches_get_the_fallback_only_from_apply_fallback(self, monkeypatch):
        monkeypatch.setattr(masks_mod, "apply_fallback", lambda mask, n_valid: mask)
        batch, _ = batch_of([sent(["no", "parse", "here"])], 4, ("depsyn",))
        opened = batch.role_masks["depsyn"][0] == 0.0
        assert not opened[:3].any()
        assert opened[3, :3].all() and not opened[3, 3]

    def test_all_zero_pad_is_identity(self):
        batch, _ = batch_of([sent(["a", "b", "c", "d"])], 4, ("relpos",))
        relpos = build_role_mask("relpos", sent(["w"] * 4))
        npt.assert_array_equal(batch.role_masks["relpos"][0] == 0.0, relpos.values)

    def test_random_combine_matches_set_intersection(self):
        rng = np.random.default_rng(0)
        alphabet = ["a", "b", "c", ",", "."]
        roles = ("rarew", "seprat", "relpos")
        n = 6
        for _ in range(50):
            sentences = [
                sent([str(f) for f in rng.choice(alphabet, size=int(rng.integers(1, n + 1)))])
                for _ in range(3)
            ]
            batch, vocab = batch_of(sentences, n, roles)
            for row, sentence in enumerate(sentences):
                n_valid = len(sentence)
                pad_pairs = mask_open_pairs(batch.pad_mask[row] == 0.0)
                assert pad_pairs == {(i, j) for i in range(n) for j in range(n_valid)}
                for role in roles:
                    role_pairs = mask_open_pairs(build_role_mask(role, sentence, vocab).values)
                    padded_rows = {(i, j) for i in range(n_valid, n) for j in range(n_valid)}
                    placed = batch.role_masks[role][row]
                    assert mask_open_pairs(placed == 0.0) == (role_pairs | padded_rows) & pad_pairs
                    assert np.all((placed == 0.0).any(axis=1))

    def test_expand_then_combine_keeps_pad_rows_feasible(self):
        batch, _ = batch_of([sent(["a", "b"])], 5, ("seprat",))
        placed = batch.role_masks["seprat"][0]
        assert np.all((placed == 0.0).any(axis=1))
        assert np.all(placed[:, 2:] == NEG_INF)


class TestPurityAndStructure:
    def test_construction_is_bit_identical(self, twenty, twenty_vocab):
        for s in twenty[:5]:
            for role in GUIDED_ROLES:
                a = build_role_mask(role, s, twenty_vocab)
                b = build_role_mask(role, s, twenty_vocab)
                npt.assert_array_equal(a.values, b.values)

    def test_every_mask_is_binary_and_feasible(self, twenty, twenty_vocab):
        for s in twenty:
            for role in GUIDED_ROLES:
                mask = build_role_mask(role, s, twenty_vocab)
                assert_binary(mask)
                assert np.all(mask.values.any(axis=1))

    def test_column_constant_roles(self, twenty, twenty_vocab):
        for s in twenty:
            for role in ("rarew", "seprat"):
                values = build_role_mask(role, s, twenty_vocab).values
                if len(s) > 1 and not np.all(values == np.eye(len(s), dtype=bool)):
                    npt.assert_array_equal(values, np.tile(values[0], (len(s), 1)))

    def test_unknown_role_rejected(self, twenty, twenty_vocab):
        with pytest.raises(ShapeMismatchError):
            build_role_mask("coref", twenty[0], twenty_vocab)


class TestDumpFormat:
    def test_round_trip(self, twenty, twenty_vocab):
        s = twenty[1]
        mask = build_role_mask("majrel", s, twenty_vocab)
        ((sid, role, n, pairs),) = parse_dump(dump_record(s.sent_id, mask))
        assert (sid, role, n) == (s.sent_id, "majrel", len(s))
        assert pairs == mask.open_coordinates()

    def test_coordinates_sorted_one_based(self):
        mask = build_role_mask("relpos", sent(["w"] * 3))
        assert mask.open_coordinates() == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]


# Forms the vocabulary sees, and forms it never sees (scored as maximally rare).
KNOWN_FORMS = ["the", "cat", "dog", "runs", "fast", ",", ".", "?", "[SEP]"]
UNKNOWN_FORMS = ["zebra", "!", ";"]


@st.composite
def batching_inputs(draw):
    max_len = draw(st.integers(1, 24))
    corpus = draw(st.lists(sentences(KNOWN_FORMS + UNKNOWN_FORMS, max_len + 4), min_size=1, max_size=12))
    vocab = build_vocab(draw(st.lists(sentences(KNOWN_FORMS, 6), min_size=1, max_size=6)))
    roles = tuple(draw(st.lists(st.sampled_from(ALL_ROLES), unique=True, max_size=len(ALL_ROLES))))
    kwargs = dict(
        batch_size=draw(st.integers(1, 8)), max_len=max_len, roles=roles,
        seed=draw(st.integers(0, 3)), shuffle=draw(st.booleans()), labels=label_index(corpus) or None,
    )
    return corpus, vocab, kwargs


def _arrays(batch):
    arrays = {"token_ids": batch.token_ids, "lengths": batch.lengths, "labels": batch.labels, "pad_mask": batch.pad_mask}
    return {**arrays, **{f"role_masks[{r}]": m for r, m in batch.role_masks.items()}}


@settings(max_examples=150)
@given(batching_inputs())
def test_batch_masks_equal_the_per_sentence_reference(inputs):
    corpus, vocab, kwargs = inputs
    got = make_batches(corpus, vocab, **kwargs)
    want = make_batches_per_sentence(corpus, vocab, **kwargs)
    assert len(got) == len(want)
    for batch, reference in zip(got, want):
        assert batch.sent_ids == reference.sent_ids
        arrays, expected = _arrays(batch), _arrays(reference)
        assert arrays.keys() == expected.keys()
        for name, array in arrays.items():
            assert (array.dtype, array.shape) == (expected[name].dtype, expected[name].shape), name
            assert array.tobytes() == expected[name].tobytes(), name

        width = kwargs["max_len"]
        valid = np.arange(width) < batch.lengths[:, None]
        pair_valid = valid[:, :, None] & valid[:, None, :]
        for role, values in [*batch.role_masks.items(), ("pad", batch.pad_mask)]:
            allowed = values == 0.0
            assert np.all(allowed | (values == NEG_INF)), role
            assert not np.any(allowed & ~valid[:, None, :]), f"{role}: padded key column open"
            assert np.all(np.any(allowed & pair_valid, axis=-1)[valid]), f"{role}: valid row with no open key"
            if role in ("depsyn", "majrel"):
                assert not np.any(pair_valid & (allowed != allowed.swapaxes(1, 2))), f"{role}: not symmetric"
