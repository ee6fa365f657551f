import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guided_attention.corpus import (
    Sentence,
    Token,
    attach_labels,
    build_vocab,
    label_index,
    load_corpus,
    make_batches,
    parse_conllu,
    parse_plain_text,
    read_labels_tsv,
    serialize_conllu,
    truncate,
    vocabulary_hash,
    PAD_ID,
)
from guided_attention.errors import ConlluError, ShapeMismatchError
from guided_attention import masks as masks_mod
from guided_attention.masks import ALL_ROLES, GUIDED_ROLES, build_role_mask, rare_columns, rare_token_count
from oracles import TWENTY_TOKEN_COUNTS, rare_columns_bruteforce, sentences


def sent(forms, label=None):
    return Sentence([Token(form=f, index=i + 1) for i, f in enumerate(forms)], label=label)


class TestParseConllu:
    def test_minimal_two_token_block(self):
        text = "1\tShe\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\truns\t_\t_\t_\t_\t0\troot\t_\t_\n"
        (s,) = parse_conllu(text)
        assert len(s) == 2
        assert s.tokens[0].form == "She"
        assert s.tokens[0].head == 2
        assert s.tokens[0].deprel == "nsubj"
        assert s.tokens[1].head == 0

    def test_non_integer_head_reports_line(self):
        text = "1\tShe\t_\t_\t_\t_\tx\tnsubj\t_\t_\n"
        errors: list[ConlluError] = []
        assert parse_conllu(text, errors=errors) == []
        assert len(errors) == 1
        assert "line 1" in str(errors[0])
        assert "HEAD" in str(errors[0])

    def test_malformed_sentence_skipped_not_fatal(self):
        good = "1\tok\t_\t_\t_\t_\t0\troot\t_\t_\n"
        bad = "1\tbroken\t_\t_\n"
        errors = []
        sentences = parse_conllu(good + "\n" + bad + "\n" + good, errors=errors)
        assert len(sentences) == 2
        assert len(errors) == 1
        assert errors[0].line_number == 3

    def test_fixture_counts_match_hand_count(self, twenty):
        assert len(twenty) == 20
        for s in twenty:
            assert len(s) == TWENTY_TOKEN_COUNTS[s.sent_id]

    def test_deprel_subtype_stripped(self, twenty):
        s06 = next(s for s in twenty if s.sent_id == "s06")
        assert s06.tokens[2].deprel == "nsubj"  # from nsubj:pass
        assert s06.tokens[3].deprel == "aux"

    def test_labels_from_comments(self, twenty):
        assert {s.label for s in twenty} == {"pos", "neg"}

    def test_multiword_and_empty_nodes_skipped(self):
        text = (
            "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tcan\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        (s,) = parse_conllu(text)
        assert s.forms == ["can", "not"]

    def test_underscore_head_means_unparsed(self):
        text = "1\thello\t_\t_\t_\t_\t_\t_\t_\t_\n2\tworld\t_\t_\t_\t_\t_\t_\t_\t_\n"
        (s,) = parse_conllu(text)
        assert not s.has_parse

    def test_self_loop_rejected(self):
        errors = []
        parse_conllu("1\ta\t_\t_\t_\t_\t1\tdep\t_\t_\n", errors=errors)
        assert len(errors) == 1

    def test_two_roots_rejected(self):
        text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        errors = []
        assert parse_conllu(text, errors=errors) == []
        assert "root" in str(errors[0])

    def test_serialize_round_trip_identity(self, twenty):
        again = parse_conllu(serialize_conllu(twenty))
        assert len(again) == len(twenty)
        for a, b in zip(twenty, again):
            assert a.sent_id == b.sent_id
            assert a.label == b.label
            assert a.tokens == b.tokens


@settings(max_examples=100, deadline=None)
@given(st.lists(sentences(["the", "cat", ",", "naïve", "日本", "[SEP]", "a_b", "#"], 12), max_size=5))
def test_conllu_round_trip_over_random_trees(corpus):
    again = parse_conllu(serialize_conllu(corpus))
    assert [s.tokens for s in again] == [s.tokens for s in corpus]
    assert [s.label for s in again] == [s.label for s in corpus]
    # A sentence without an id gets its 1-based ordinal.
    assert [s.sent_id for s in again] == [s.sent_id or str(i) for i, s in enumerate(corpus, start=1)]


class TestPlainText:
    def test_tokenization_and_ids(self):
        sentences = parse_plain_text("hello world\n\nsecond line here\n")
        assert [s.forms for s in sentences] == [["hello", "world"], ["second", "line", "here"]]
        assert [s.sent_id for s in sentences] == ["1", "2"]
        assert not sentences[0].has_parse

    def test_sidecar_labels(self):
        sentences = parse_plain_text("a b\nc d\n")
        labels = read_labels_tsv("1\tpos\n2\tneg\n")
        labeled = attach_labels(sentences, labels)
        assert [s.label for s in labeled] == ["pos", "neg"]

    def test_bad_sidecar_row(self):
        with pytest.raises(ConlluError):
            read_labels_tsv("1 pos\n")


class TestLoadCorpusErrorsNameTheirFile:
    """``load_corpus`` errors say which file they come from, as ``line N: <path>: …``."""

    GOOD = "# sent_id = a\n1\tok\t_\t_\t_\t_\t0\troot\t_\t_\n"

    def test_corpus_block_error(self, tmp_path):
        data = tmp_path / "bad.conllu"
        data.write_text(self.GOOD + "\n# sent_id = b\n1\tno\t_\t_\t_\t_\tzz\troot\t_\t_\n")
        errors: list[ConlluError] = []
        sentences = load_corpus(data, errors=errors)
        assert [s.sent_id for s in sentences] == ["a"]  # the malformed block is still skipped
        (err,) = errors
        assert err.line_number == 5
        assert str(err) == f"line 5: {data}: non-integer HEAD 'zz'"

    def test_sidecar_row_error(self, tmp_path):
        data, labels = tmp_path / "ok.conllu", tmp_path / "q.tsv"
        data.write_text(self.GOOD)
        labels.write_text("a\tpos\nb\n")
        with pytest.raises(ConlluError) as excinfo:
            load_corpus(data, labels_path=labels)
        assert excinfo.value.line_number == 2
        assert str(excinfo.value) == f"line 2: {labels}: label row needs exactly 2 tab-separated fields, got 1"


class TestVocabulary:
    def test_idf_token_in_one_of_three(self):
        vocab = build_vocab([sent(["a", "b"]), sent(["b"]), sent(["b", "c"])])
        assert vocab.df("a") == 1
        npt.assert_allclose(vocab.idf("a"), math.log(3), atol=1e-12)

    def test_idf_zero_when_everywhere(self):
        vocab = build_vocab([sent(["b", "x"]), sent(["b"]), sent(["b", "b"])])
        assert vocab.df("b") == 3
        assert vocab.idf("b") == 0.0

    def test_df_matches_bruteforce_recount(self, twenty, twenty_vocab):
        for form in twenty_vocab.doc_freq:
            manual = sum(1 for s in twenty if form in set(s.forms))
            assert twenty_vocab.df(form) == manual

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeMismatchError):
            build_vocab([])

    def test_oov_is_maximally_rare(self, twenty_vocab):
        assert twenty_vocab.idf("zzz-unseen") == math.log(twenty_vocab.total_docs)

    def test_id_round_trip(self, twenty_vocab):
        for form in twenty_vocab.doc_freq:
            assert twenty_vocab.form(twenty_vocab.id(form)) == form

    def test_hash_changes_with_content(self, twenty_vocab):
        other = build_vocab([sent(["altered"])])
        assert vocabulary_hash(twenty_vocab) != vocabulary_hash(other)

    def test_order_free(self, twenty):
        fwd = build_vocab(twenty)
        rev = build_vocab(list(reversed(twenty)))
        assert fwd.doc_freq == rev.doc_freq
        assert rare_positions(twenty[3], fwd) == rare_positions(twenty[3], rev)


def rare_positions(sentence, vocab) -> set[int]:
    """0-based positions that ``rare_columns`` picks in a batch of this one sentence."""
    valid = np.ones((1, len(sentence)), dtype=bool)
    return set(np.flatnonzero(rare_columns(sentence.tokens, vocab, valid)[0]).tolist())


class TestRareTokens:
    def test_k_forced_to_one_for_short_sentences(self):
        vocab = build_vocab([sent(["a"]), sent(["a", "b"]), sent(["a", "b", "c", "d", "e"])])
        s = sent(["a", "b", "c", "d", "e"])
        # c, d, e tie at df = 1; k = 1 and the earliest position wins
        assert rare_positions(s, vocab) == {2}

    def test_k_two_for_twenty_tokens(self):
        assert rare_token_count(20) == 2
        vocab = build_vocab([sent([f"t{i}" for i in range(20)]), sent(["t0"] * 3)])
        s = sent([f"t{i}" for i in range(20)])
        picked = rare_positions(s, vocab)
        assert len(picked) == 2
        assert 0 not in picked  # t0 is the only common token

    def test_tie_break_earlier_position(self):
        vocab = build_vocab([sent(["x", "y", "x", "y"])])
        s = sent(["x", "y", "x", "y"])  # all idf 0, k = 1
        assert rare_positions(s, vocab) == {0}

    def test_duplicated_rare_token_ranking(self, twenty, twenty_vocab):
        for s in twenty:
            assert rare_positions(s, twenty_vocab) == rare_columns_bruteforce(s, twenty_vocab)

    def test_count_invariant(self, twenty, twenty_vocab):
        for s in twenty:
            k = rare_token_count(len(s))
            assert len(rare_positions(s, twenty_vocab)) == k == max(1, math.ceil(0.1 * len(s)))


class TestBatches:
    def test_partition_sizes(self, twenty, twenty_vocab):
        batches = make_batches(twenty[:5], twenty_vocab, 2, 12, (), shuffle=False)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_padding_positions_masked_everywhere(self, twenty_vocab):
        s = sent(["a", "b", "c"])
        (batch,) = make_batches([s], twenty_vocab, 1, 6, GUIDED_ROLES, shuffle=False)
        assert batch.lengths[0] == 3
        npt.assert_array_equal(batch.token_ids[0, 3:], PAD_ID)
        for role in GUIDED_ROLES:
            assert np.all(batch.role_masks[role][0][:, 3:] == -np.inf)
        assert np.all(batch.pad_mask[0][:, 3:] == -np.inf)

    def test_token_ids_round_trip(self, twenty, twenty_vocab):
        batches = make_batches(twenty, twenty_vocab, 4, 16, (), shuffle=False)
        flat = [form for s in twenty for form in s.forms]
        recovered = []
        for b in batches:
            for row, length in zip(b.token_ids, b.lengths):
                recovered.extend(twenty_vocab.form(t) for t in row[:length])
        assert recovered == flat

    def test_shuffle_deterministic(self, twenty, twenty_vocab):
        a = make_batches(twenty, twenty_vocab, 4, 16, (), seed=5)
        b = make_batches(twenty, twenty_vocab, 4, 16, (), seed=5)
        c = make_batches(twenty, twenty_vocab, 4, 16, (), seed=6)
        npt.assert_array_equal(a[0].token_ids, b[0].token_ids)
        assert any(
            not np.array_equal(x.token_ids, y.token_ids) for x, y in zip(a, c)
        )

    def test_truncation_drops_crossing_edges(self):
        tokens = [
            Token("a", 1, head=4, deprel="obj"),
            Token("b", 2, head=0, deprel="root"),
            Token("c", 3, head=2, deprel="obj"),
            Token("d", 4, head=2, deprel="nsubj"),
        ]
        cut = truncate(Sentence(tokens), 3)
        assert len(cut) == 3
        assert cut.tokens[0].head is None  # edge to token 4 dropped
        assert cut.tokens[2].head == 2

    def test_overlong_sentence_truncated_with_feasible_masks(self, twenty_vocab):
        s = sent(list("abcdefgh"))
        (batch,) = make_batches([s], twenty_vocab, 1, 5, GUIDED_ROLES, shuffle=False)
        assert batch.token_ids.shape == (1, 5)
        assert batch.lengths[0] == 5
        for role in GUIDED_ROLES:
            assert np.all((batch.role_masks[role][0] == 0.0).any(axis=1))

    def test_labels_mapped(self, twenty, twenty_vocab):
        classes = label_index(twenty)
        assert classes == {"neg": 0, "pos": 1}
        batches = make_batches(twenty, twenty_vocab, 32, 16, (), shuffle=False, labels=classes)
        labels = np.concatenate([b.labels for b in batches])
        assert set(labels.tolist()) == {0, 1}


class TestBatchMaskLayout:
    """Exact float layout of a batch's masks on the fixture, untruncated (16) and truncated (4)."""

    def _rows(self, twenty, vocab):
        for max_len in (16, 4):
            batches = make_batches(twenty, vocab, 8, max_len, ALL_ROLES, shuffle=False)
            rows = [(batch, row) for batch in batches for row in range(batch.size)]
            assert len(rows) == len(twenty)
            for (batch, row), sentence in zip(rows, twenty):
                yield max_len, batch, row, truncate(sentence, max_len)

    def test_pad_mask_opens_exactly_valid_columns(self, twenty, twenty_vocab):
        for max_len, batch, row, cut in self._rows(twenty, twenty_vocab):
            n = len(cut)
            assert batch.lengths[row] == n
            grid = batch.pad_mask[row]
            assert grid.shape == (max_len, max_len)
            npt.assert_array_equal(grid[:, :n], 0.0)
            npt.assert_array_equal(grid[:, n:], -np.inf)

    def test_role_masks_are_pad_grid_with_sentence_block(self, twenty, twenty_vocab):
        for _, batch, row, cut in self._rows(twenty, twenty_vocab):
            n = len(cut)
            for role in ALL_ROLES:
                expected = batch.pad_mask[row].copy()
                expected[:n, :n] = np.where(build_role_mask(role, cut, twenty_vocab).values, 0.0, -np.inf)
                npt.assert_array_equal(batch.role_masks[role][row], expected)

    def test_masks_are_boolean_blocks_at_the_batch_width(self, twenty, twenty_vocab):
        roles = ("relpos", "padding", "rarew")
        for batch in make_batches(twenty, twenty_vocab, 8, 32, roles, seed=3):
            n = int(batch.lengths.max())
            assert n < 32
            assert list(batch.allowed) == list(roles)
            for role, block in batch.allowed.items():
                assert (block.dtype, block.shape) == (np.dtype(bool), (batch.size, n, n)), role
            assert list(batch.role_masks) == list(roles)

    def test_batch_bytes_match_the_golden_digest(self, twenty, twenty_vocab):
        """SHA-256 of every array ``make_batches`` returns on the fixture, pinned as a literal.

        The per-sentence reference in ``oracles`` follows the builder's
        layout, so a change that moved both would pass that comparison but
        not this one.
        """
        digest = hashlib.sha256()
        for max_len in (8, 11):
            for shuffle in (True, False):
                batches = make_batches(
                    twenty, twenty_vocab, 8, max_len, ALL_ROLES, seed=3, shuffle=shuffle, labels=label_index(twenty)
                )
                for batch in batches:
                    arrays = (batch.token_ids, batch.lengths, batch.labels, batch.pad_mask)
                    for array in (*arrays, *(batch.role_masks[role] for role in ALL_ROLES)):
                        digest.update(f"{array.dtype}{array.shape}".encode())
                        digest.update(array.tobytes())
                    digest.update(",".join(batch.sent_ids).encode())
        assert digest.hexdigest() == "ae509d741f825f03a991a1bb26e11d6ed4a013192ed0da84a5b6d99ee4a7ed23"

    def test_masks_built_per_batch_not_per_sentence(self, twenty, twenty_vocab, monkeypatch):
        def per_sentence(*args, **kwargs):
            raise AssertionError("make_batches built a mask for one sentence")

        monkeypatch.setattr(masks_mod, "build_role_mask", per_sentence)
        assert len(make_batches(twenty, twenty_vocab, 8, 16, ALL_ROLES)) == 3
