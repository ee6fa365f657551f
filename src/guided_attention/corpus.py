"""Parsed-text ingestion, vocabulary/IDF statistics, and batch assembly.

Input formats:

* CoNLL-U: ten tab-separated columns, blank-line sentence separation,
  ``#`` comment lines. Only ID, FORM, HEAD and DEPREL are retained.
  Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are skipped.
  ``HEAD = _`` marks a token without parse annotation.
* Plain text: one whitespace-tokenized sentence per line, no parse.

Classification labels come from ``# label = X`` comment lines or from a
sidecar TSV mapping sentence id to label; the sidecar wins when both are
present.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import masks as masks_mod
from .attention import tier_plan
from .autodiff import NEG_INF
from .errors import ConlluError, ShapeMismatchError

PAD_ID = 0
UNK_ID = 1
RESERVED_FORMS = ("<pad>", "<unk>")


@dataclass(frozen=True)
class Token:
    """One token: 1-based position, optional head index (0 = root) and relation."""

    form: str
    index: int
    head: int | None = None
    deprel: str | None = None


@dataclass
class Sentence:
    tokens: list[Token]
    label: str | None = None
    sent_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    @property
    def has_parse(self) -> bool:
        return any(t.head is not None for t in self.tokens)


def strip_deprel(raw: str) -> str:
    """Lowercase and drop the subtype suffix: ``nsubj:pass`` -> ``nsubj``."""
    return raw.lower().split(":", 1)[0]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_conllu(text: str, errors: list[ConlluError] | None = None) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Malformed sentence blocks are skipped, not fatal; their line-numbered
    errors are appended to ``errors`` when a list is supplied.
    """
    sentences: list[Sentence] = []
    block: list[tuple[int, str]] = []
    comments: dict[str, str] = {}
    ordinal = 0

    def flush():
        nonlocal ordinal, block, comments
        if block:
            ordinal += 1
            try:
                sentence = _parse_block(block, comments, default_id=str(ordinal))
                if sentence is not None:
                    sentences.append(sentence)
            except ConlluError as err:
                if errors is not None:
                    errors.append(err)
        block = []
        comments = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                comments[key.strip()] = value.strip()
            continue
        block.append((lineno, line))
    flush()
    return sentences


def _parse_block(block: list[tuple[int, str]], comments: dict[str, str], default_id: str) -> Sentence | None:
    tokens: list[Token] = []
    for lineno, line in block:
        cols = line.split("\t")
        if len(cols) < 8:
            raise ConlluError(lineno, f"expected at least 8 tab-separated columns, got {len(cols)}")
        tok_id, form, head_col, deprel_col = cols[0], cols[1], cols[6], cols[7]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword-token range or empty node
        try:
            index = int(tok_id)
        except ValueError:
            raise ConlluError(lineno, f"non-integer token ID {tok_id!r}") from None
        if index != len(tokens) + 1:
            raise ConlluError(lineno, f"token IDs not contiguous: expected {len(tokens) + 1}, got {index}")
        if head_col == "_":
            head, deprel = None, None
        else:
            try:
                head = int(head_col)
            except ValueError:
                raise ConlluError(lineno, f"non-integer HEAD {head_col!r}") from None
            deprel = strip_deprel(deprel_col) if deprel_col != "_" else None
        tokens.append(Token(form=form, index=index, head=head, deprel=deprel))
    if not tokens:
        return None
    first_line = block[0][0]
    n = len(tokens)
    roots = 0
    for t in tokens:
        if t.head is None:
            continue
        if t.head < 0 or t.head > n:
            raise ConlluError(first_line, f"HEAD {t.head} of token {t.index} outside [0, {n}]")
        if t.head == t.index:
            raise ConlluError(first_line, f"token {t.index} is its own head")
        if t.head == 0:
            roots += 1
    if any(t.head is not None for t in tokens) and roots != 1:
        raise ConlluError(first_line, f"expected exactly one root, found {roots}")
    return Sentence(
        tokens=tokens,
        label=comments.get("label"),
        sent_id=comments.get("sent_id", default_id),
    )


def serialize_conllu(sentences: list[Sentence]) -> str:
    """Render sentences back to CoNLL-U (retained columns only, rest ``_``)."""
    out: list[str] = []
    for sentence in sentences:
        if sentence.sent_id is not None:
            out.append(f"# sent_id = {sentence.sent_id}")
        if sentence.label is not None:
            out.append(f"# label = {sentence.label}")
        for t in sentence.tokens:
            head = "_" if t.head is None else str(t.head)
            deprel = t.deprel if t.deprel is not None else "_"
            out.append(f"{t.index}\t{t.form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_")
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


def parse_plain_text(text: str) -> list[Sentence]:
    """One whitespace-tokenized sentence per non-empty line, no parse."""
    sentences = []
    for line in text.splitlines():
        forms = line.split()
        if not forms:
            continue
        tokens = [Token(form=f, index=i + 1) for i, f in enumerate(forms)]
        sentences.append(Sentence(tokens=tokens, sent_id=str(len(sentences) + 1)))
    return sentences


def read_labels_tsv(text: str) -> dict[str, str]:
    """Sidecar label file: one ``sentence-id<TAB>label`` row per line."""
    labels = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConlluError(lineno, f"label row needs exactly 2 tab-separated fields, got {len(parts)}")
        labels[parts[0].strip()] = parts[1].strip()
    return labels


def attach_labels(sentences: list[Sentence], labels: dict[str, str]) -> list[Sentence]:
    return [replace(s, label=labels[s.sent_id]) if s.sent_id in labels else s for s in sentences]


def _read_utf8(path) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ConlluError naming the file and line.

    Line endings are left as they are: every parser splits with ``splitlines``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConlluError(line, f"{path} is not UTF-8 text (byte {data[exc.start]:#04x})") from None


def load_corpus(path, labels_path=None, errors: list[ConlluError] | None = None) -> list[Sentence]:
    """Load a ``.conllu`` file (by extension) or plain text, plus optional sidecar labels.

    Every error names its file, ``line N: <path>: …``: the skipped blocks'
    errors appended to ``errors`` and a malformed label row's, which raises.
    """
    text = _read_utf8(path)
    if str(path).endswith(".conllu"):
        found: list[ConlluError] = []
        sentences = parse_conllu(text, errors=found)
        if errors is not None:
            errors.extend(err.in_file(path) for err in found)
    else:
        sentences = parse_plain_text(text)
    if labels_path is not None:
        text = _read_utf8(labels_path)
        try:
            labels = read_labels_tsv(text)
        except ConlluError as err:
            raise err.in_file(labels_path) from None
        sentences = attach_labels(sentences, labels)
    return sentences


# ---------------------------------------------------------------------------
# Vocabulary and IDF
# ---------------------------------------------------------------------------


class Vocabulary:
    """Token form -> document frequency; one sentence counts as one document.

    Ids 0 and 1 are reserved for padding and unknown forms. Unknown forms are
    treated as maximally rare (df = 1) when scored.
    """

    def __init__(self, doc_freq: dict[str, int], total_docs: int):
        if total_docs < 1:
            raise ShapeMismatchError("vocabulary needs at least one document")
        for form, df in doc_freq.items():
            if not 1 <= df <= total_docs:
                raise ShapeMismatchError(f"df({form!r}) = {df} outside [1, {total_docs}]")
        self.doc_freq = dict(doc_freq)
        self.total_docs = total_docs
        self._forms = RESERVED_FORMS + tuple(sorted(doc_freq))
        self._ids = {form: i for i, form in enumerate(self._forms)}
        # df of each id: the reserved ids, which stand for unknown forms, read 1.
        self.df_by_id = np.array([1] * len(RESERVED_FORMS) + [doc_freq[f] for f in self._forms[len(RESERVED_FORMS):]])
        self.df_by_id.flags.writeable = False

    def __len__(self) -> int:
        return len(RESERVED_FORMS) + len(self.doc_freq)

    def df(self, form: str) -> int:
        return self.doc_freq.get(form, 1)

    def id(self, form: str) -> int:
        return self._ids.get(form, UNK_ID)

    def form(self, token_id: int) -> str:
        return self._forms[token_id]


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Stable content hash used to tie a checkpoint to its training vocabulary."""
    payload = {"total_docs": vocab.total_docs, "doc_freq": vocab.doc_freq}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_vocab(sentences: list[Sentence]) -> Vocabulary:
    """Sentence-level document frequencies and IDF over a training split."""
    if not sentences:
        raise ShapeMismatchError("build_vocab needs at least one sentence")
    doc_freq: dict[str, int] = {}
    for sentence in sentences:
        for form in set(sentence.forms):
            doc_freq[form] = doc_freq.get(form, 0) + 1
    return Vocabulary(doc_freq, total_docs=len(sentences))


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """Padded model input with each role's boolean allow-block at the batch's width.

    ``allowed`` maps each requested role, in order, to its ``(B, n, n)`` boolean
    block, ``n = lengths.max()``, a view of one ``masks.stack_role_masks`` stack:
    True where a query may attend to a key. ``token_ids`` stay padded to
    ``max_len``; ``model.embed`` reads only the valid positions.
    :attr:`tiers` is computed on first use and kept.

    :attr:`role_masks` and :attr:`pad_mask` give the same masks as additive
    ``{0, -inf}`` float grids padded to the width of ``token_ids``, built
    afresh on each access. They serve readers of that layout (mask checks
    and tests); batching, training and evaluation never touch them, and they
    go once the benchmark reads the boolean blocks.
    """

    token_ids: np.ndarray  # (B, max_len) int64
    lengths: np.ndarray  # (B,) int64
    allowed: dict[str, np.ndarray]  # role -> (B, n, n) bool, n = lengths.max()
    labels: np.ndarray  # (B,) int64, -1 where unlabeled
    sent_ids: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @cached_property
    def tiers(self) -> tuple[np.ndarray, ...]:
        """The batch rows of each attention tier, ``attention.tier_plan(lengths)``, shared by every pass."""
        return tier_plan(self.lengths)

    @property
    def pad_mask(self) -> np.ndarray:
        """``(B, width, width)`` grid opening exactly the valid key columns on every row."""
        width = self.token_ids.shape[1]
        valid = np.arange(width) < self.lengths[:, None]
        return np.repeat(np.where(valid, 0.0, NEG_INF)[:, None, :], width, axis=1)

    @property
    def role_masks(self) -> dict[str, np.ndarray]:
        """Each role's ``(B, width, width)`` grid: :attr:`pad_mask` with the role's block top left."""
        pad = self.pad_mask
        n = int(self.lengths.max())
        grids = {}
        for role, block in self.allowed.items():
            grid = pad.copy()
            grid[:, :n, :n] = np.where(block, 0.0, NEG_INF)
            grids[role] = grid
        return grids


def truncate(sentence: Sentence, max_len: int) -> Sentence:
    """Drop tokens beyond ``max_len``; parse edges crossing the cut are dropped."""
    if len(sentence.tokens) <= max_len:
        return sentence
    kept = []
    for t in sentence.tokens[:max_len]:
        if t.head is not None and t.head > max_len:
            kept.append(replace(t, head=None, deprel=None))
        else:
            kept.append(t)
    return replace(sentence, tokens=kept)


def label_index(sentences: list[Sentence]) -> dict[str, int]:
    """Deterministic label -> class id mapping (sorted label strings)."""
    return {label: i for i, label in enumerate(sorted({s.label for s in sentences if s.label is not None}))}


def make_batches(
    sentences: list[Sentence],
    vocab: Vocabulary,
    batch_size: int,
    max_len: int,
    roles: tuple[str, ...],
    seed: int = 0,
    shuffle: bool = True,
    labels: dict[str, int] | None = None,
) -> list[Batch]:
    """Assemble padded batches, each with every role's boolean allow-block.

    Per batch, the lengths, ``(B, max_len)`` validity grid and flat token list
    are built once; one dict lookup per token fills ``token_ids``, whose ids
    index ``vocab.df_by_id`` for ``rarew``; and one ``masks.stack_role_masks``
    call gives every role's block as a view of one stack, with one fallback pass.
    """
    if batch_size < 1:
        raise ShapeMismatchError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(sentences))
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(sentences))
    kept = [truncate(sentences[i], max_len) for i in order]
    id_of = vocab._ids.get

    batches = []
    for start in range(0, len(kept), batch_size):
        chunk = kept[start : start + batch_size]
        lengths = np.array([len(sentence.tokens) for sentence in chunk], dtype=np.int64)
        valid = np.arange(max_len) < lengths[:, None]
        tokens = [token for sentence in chunk for token in sentence.tokens]
        ids = np.full(valid.shape, PAD_ID, dtype=np.int64)
        ids[valid] = [id_of(token.form, UNK_ID) for token in tokens]
        n = int(lengths.max())
        label_arr = np.full(len(chunk), -1, dtype=np.int64)
        sent_ids = []
        for row, sentence in enumerate(chunk):
            if labels is not None and sentence.label is not None:
                if sentence.label not in labels:
                    raise ShapeMismatchError(
                        f"label {sentence.label!r} missing from the class index {sorted(labels)}"
                    )
                label_arr[row] = labels[sentence.label]
            sent_ids.append(sentence.sent_id or str(start + row))
        allowed = masks_mod.stack_role_masks(roles, lengths, valid[:, :n], tokens, vocab.df_by_id[ids[valid]])
        batches.append(Batch(token_ids=ids, lengths=lengths, allowed=allowed, labels=label_arr, sent_ids=sent_ids))
    return batches
