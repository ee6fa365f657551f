"""Construction of the five role-specific additive attention masks.

Every mask is a float64 grid whose entries are exactly 0.0 (attend) or
``-inf`` (ignore), indexed query row x key column. Each role opens:

* ``rarew``  - columns of the top-10%-IDF token positions,
* ``seprat`` - columns of separator/punctuation tokens,
* ``depsyn`` - undirected dependency-parse adjacency,
* ``majrel`` - dependency adjacency restricted to nsubj/dobj/amod/advmod,
* ``relpos`` - a centered window of size 3 (self and both neighbours),
* ``padding`` - no restriction (opens everything).

:func:`build_batch_mask` builds one role's masks for a whole batch in one
vectorised pass: the role's pattern as a boolean array at the batch's
longest sentence, cut to each sentence's valid positions and placed into
the padding grid, whose padded query rows keep the valid key columns open.
A valid query row that ends up fully masked would make softmax undefined,
so :func:`apply_fallback` opens its diagonal. :func:`build_role_mask` is
the same pass on a batch of one sentence, at the sentence's own length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

NEG_INF = float("-inf")

ROLE_RARE_WORDS = "rarew"
ROLE_SEPARATOR = "seprat"
ROLE_DEP_SYNTAX = "depsyn"
ROLE_MAJOR_RELATIONS = "majrel"
ROLE_RELATIVE_POSITION = "relpos"
ROLE_PADDING = "padding"

GUIDED_ROLES = (
    ROLE_RARE_WORDS,
    ROLE_SEPARATOR,
    ROLE_DEP_SYNTAX,
    ROLE_MAJOR_RELATIONS,
    ROLE_RELATIVE_POSITION,
)
ALL_ROLES = GUIDED_ROLES + (ROLE_PADDING,)

SEPARATOR_FORMS = frozenset({",", ";", ".", "?", "!", "[SEP]", "[START]", "[END]"})
MAJOR_RELATIONS = frozenset({"nsubj", "dobj", "obj", "amod", "advmod"})


@dataclass
class RoleMask:
    role: str
    values: np.ndarray  # (n, n) float64 over {0, -inf}; (B, n, n) while a batch is built

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def zero_coordinates(self) -> list[tuple[int, int]]:
        """Sorted 1-based (query, key) coordinates of allowed positions."""
        rows, cols = np.nonzero(self.values == 0.0)
        return [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]


def rare_words_mask(sentence, vocab) -> RoleMask:
    """Open the columns of the sentence's rarest (highest-IDF) token positions."""
    return build_role_mask(ROLE_RARE_WORDS, sentence, vocab)


def separator_mask(sentence) -> RoleMask:
    """Open separator/punctuation columns; diagonal fallback when none exist."""
    return build_role_mask(ROLE_SEPARATOR, sentence)


def dep_syntax_mask(sentence) -> RoleMask:
    """Undirected parse adjacency: token attends to its head and dependents."""
    return build_role_mask(ROLE_DEP_SYNTAX, sentence)


def major_relations_mask(sentence) -> RoleMask:
    """Parse adjacency restricted to nsubj/dobj(obj)/amod/advmod edges."""
    return build_role_mask(ROLE_MAJOR_RELATIONS, sentence)


def relative_position_mask(n: int) -> RoleMask:
    """Centered window of size 3: (i, j) open iff |i - j| <= 1."""
    if n < 1:
        raise ShapeMismatchError(f"mask size must be >= 1, got {n}")
    return RoleMask(ROLE_RELATIVE_POSITION, np.where(_band(n), 0.0, NEG_INF))


def apply_fallback(mask: RoleMask, n_valid) -> RoleMask:
    """Give every fully-masked valid query row a diagonal self-attention zero.

    ``mask.values`` is ``(..., n, n)``; ``n_valid`` counts the valid rows of
    each grid, as one int or an array over the leading axes. Returns a new
    mask; ``mask`` is left as it is.
    """
    values = mask.values.copy()
    valid_rows = np.arange(values.shape[-1]) < np.asarray(n_valid)[..., None]
    *grid, rows = np.nonzero(valid_rows & ~(values == 0.0).any(axis=-1))
    values[(*grid, rows, rows)] = 0.0
    return RoleMask(mask.role, values)


def build_batch_mask(role: str, sentences, vocab, width: int) -> np.ndarray:
    """One role's ``(B, width, width)`` masks for a batch of truncated sentences.

    For row ``b`` with ``n_b`` tokens, a valid query row (``i < n_b``) opens
    the role's keys among the valid columns, or its diagonal if there are
    none; a padded query row opens every valid column; padded key columns
    (``j >= n_b``) stay closed.
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    n = int(lengths.max(initial=0))
    if n > width:
        raise ShapeMismatchError(f"a {n}-token sentence does not fit a mask of width {width}")
    valid = np.arange(width) < lengths[:, None]  # (B, width) valid key columns
    allow = _pattern(role, sentences, vocab, valid[:, :n])
    grid = np.repeat(valid[:, None, :], width, axis=1)
    grid[:, :n, :n] &= allow | ~valid[:, :n, None]
    out = np.where(grid, 0.0, NEG_INF)
    # Only the (n, n) block holds valid rows, so only it can need the fallback.
    out[:, :n, :n] = apply_fallback(RoleMask(role, out[:, :n, :n]), lengths).values
    return out


def build_role_mask(role: str, sentence, vocab=None) -> RoleMask:
    """One role's mask for one sentence at its own length: a batch of one.

    The ``padding`` pseudo-role places no restriction of its own; placed
    into a padded grid it leaves that grid's padding mask as it is, which is
    how an ablated head is given "just the padding mask".
    """
    return RoleMask(role, build_batch_mask(role, [sentence], vocab, len(sentence))[0])


def _pattern(role: str, sentences, vocab, valid: np.ndarray) -> np.ndarray:
    """The role's open (query, key) pairs, broadcastable to ``(B, n, n)``.

    ``valid`` is the ``(B, n)`` grid of token positions at the batch's
    longest sentence; pairs outside it may be open and are cut later.
    """
    n = valid.shape[1]
    if role == ROLE_RARE_WORDS:
        if vocab is None:
            raise ShapeMismatchError("rare-words mask needs a vocabulary")
        return rare_columns(sentences, vocab, valid)[:, None, :]
    if role == ROLE_SEPARATOR:
        return _per_token(sentences, valid, lambda t: t.form in SEPARATOR_FORMS, False)[:, None, :]
    if role == ROLE_DEP_SYNTAX:
        return _edges(sentences, n, None)
    if role == ROLE_MAJOR_RELATIONS:
        return _edges(sentences, n, MAJOR_RELATIONS)
    if role == ROLE_RELATIVE_POSITION:
        return _band(n)
    if role == ROLE_PADDING:
        return np.ones((n, n), dtype=bool)
    raise ShapeMismatchError(f"unknown role {role!r}; expected one of {ALL_ROLES}")


def _per_token(sentences, valid: np.ndarray, value, fill) -> np.ndarray:
    """``value(token)`` at each valid position of ``valid``, ``fill`` elsewhere."""
    out = np.full(valid.shape, fill)
    out[valid] = [value(t) for s in sentences for t in s.tokens]
    return out


def rare_columns(sentences, vocab, valid: np.ndarray) -> np.ndarray:
    """Each row's top-10%-IDF positions; a stable sort sends ties to the earlier position.

    ``valid`` is the ``(B, n)`` grid of token positions; the result is a
    boolean grid of the same shape. This is the one home of the rare-token
    rule: ``corpus.rare_token_indices`` is it on one sentence.

    IDF = log(total_docs / df) falls strictly as df rises, so ranking by df
    ascending ranks by IDF descending, ties included, with no log per token.
    """
    from .corpus import rare_token_count

    df = _per_token(sentences, valid, lambda t: vocab.df(t.form), vocab.total_docs + 1)
    order = np.argsort(df, axis=1, kind="stable")
    ranked_in = np.arange(valid.shape[1]) < rare_token_count(valid.sum(axis=1))[:, None]
    picked = np.zeros_like(valid)
    np.put_along_axis(picked, order, ranked_in, axis=1)
    return picked


def _edges(sentences, n: int, relations: frozenset[str] | None) -> np.ndarray:
    """Scatter each (row, dependent, head) parse edge in both directions.

    Unparsed tokens and edges to the virtual root (head 0) open nothing.
    """
    edges = [
        (row, t.index - 1, t.head - 1)
        for row, s in enumerate(sentences)
        for t in s.tokens
        if t.head and (relations is None or (t.deprel or "") in relations)
    ]
    rows, dependents, heads = np.array(edges, dtype=np.intp).reshape(-1, 3).T
    allow = np.zeros((len(sentences), n, n), dtype=bool)
    allow[rows, dependents, heads] = True
    allow[rows, heads, dependents] = True
    return allow


def _band(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) <= 1


# ---------------------------------------------------------------------------
# Sparse dump format
# ---------------------------------------------------------------------------


def dump_record(sent_id: str, mask: RoleMask) -> str:
    """One diffable record: header line, then sorted 1-based ``i j`` pairs."""
    lines = [f"sentence={sent_id} role={mask.role} n={mask.n}"]
    lines.extend(f"{i} {j}" for i, j in mask.zero_coordinates())
    lines.append("")
    return "\n".join(lines)


def parse_dump(text: str) -> list[tuple[str, str, int, list[tuple[int, int]]]]:
    """Inverse of :func:`dump_record` over a concatenated dump file."""
    records = []
    current = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("sentence="):
            fields = dict(part.split("=", 1) for part in line.split())
            current = (fields["sentence"], fields["role"], int(fields["n"]), [])
            records.append(current)
        else:
            i, j = line.split()
            current[3].append((int(i), int(j)))
    return records
