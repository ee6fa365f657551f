"""Construction of the five role-specific attention masks.

A mask is indexed query row x key column and is boolean, True where the
query may attend to the key: a batch carries each role's mask as a
``(B, n, n)`` block, and a single sentence's :class:`RoleMask` holds an
``(n, n)`` one. ``autodiff.Plan.build`` turns each block, once per pass,
into the additive {0, -inf} form that the attention kernel adds to its scores.
Each role opens:

* ``rarew``  - columns of the top-10%-IDF token positions,
* ``seprat`` - columns of separator/punctuation tokens,
* ``depsyn`` - undirected dependency-parse adjacency,
* ``majrel`` - dependency adjacency restricted to nsubj/dobj/amod/advmod,
* ``relpos`` - a centered window of size 3 (self and both neighbours),
* ``padding`` - no restriction (opens everything).

:func:`build_batch_masks` builds every role's masks for a whole batch in
one pass, as boolean blocks at the batch's longest sentence: only the
valid key columns open, and a padded query row opens all of them. A valid
query row left with no open key would make softmax undefined, so
:func:`apply_fallback` opens its diagonal. :func:`build_role_mask` is the
same pass on a batch of one sentence.
"""

from __future__ import annotations

import math
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
    values: np.ndarray  # (n, n) bool, True = attend

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    def open_coordinates(self) -> list[tuple[int, int]]:
        """Sorted 1-based (query, key) coordinates of allowed positions."""
        rows, cols = np.nonzero(self.values)
        return [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]


def apply_fallback(allowed: np.ndarray, n_valid) -> np.ndarray:
    """``allowed`` with the diagonal of every fully-closed valid query row opened.

    ``allowed`` is a boolean ``(..., n, n)`` array, left as it is; ``n_valid``
    counts each grid's valid rows, as one int or an array over the leading axes.
    """
    allowed = allowed.copy()
    valid_rows = np.arange(allowed.shape[-1]) < np.asarray(n_valid)[..., None]
    *grid, rows = np.nonzero(valid_rows & ~_any_rows(allowed))
    allowed[(*grid, rows, rows)] = True
    return allowed


def _any_rows(a: np.ndarray) -> np.ndarray:
    """``a.any(axis=-1)`` of a boolean ``a``, taken down the columns of a transposed copy.

    numpy reduces each short row in a call of its own, about twice as slow on a (32, 19, 19) block.
    """
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    return np.ascontiguousarray(rows.T).any(axis=0).reshape(a.shape[:-1])


def build_batch_masks(roles, sentences, vocab) -> dict[str, np.ndarray]:
    """Each role's boolean ``(B, n, n)`` allow-block for a batch of sentences.

    ``n`` is the longest sentence's length. For row ``b`` with ``n_b``
    tokens, a valid query row (``i < n_b``) opens the role's keys among the
    valid columns, or its diagonal if there are none; a padded query row
    opens every valid column; padded key columns (``j >= n_b``) stay closed.
    """
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]  # (B, n) valid key columns
    tokens = [t for s in sentences for t in s.tokens]  # one per True of valid, in row order
    key_valid, row_padded = valid[:, None, :], ~valid[:, :, None]
    out = {}
    for role in roles:
        if role == ROLE_PADDING:
            out[role] = np.repeat(key_valid, valid.shape[1], axis=1)
            continue
        block = key_valid & (_pattern(role, tokens, vocab, valid) | row_padded)
        out[role] = apply_fallback(block, lengths)
    return out


def build_role_mask(role: str, sentence, vocab=None) -> RoleMask:
    """One role's boolean ``(n, n)`` mask for one sentence at its own length: a batch of one.

    The ``padding`` pseudo-role places no restriction of its own; it opens
    every key, which is how an ablated head is given "just the padding mask".
    """
    return RoleMask(role, build_batch_masks((role,), [sentence], vocab)[role][0])


def _pattern(role: str, tokens, vocab, valid: np.ndarray) -> np.ndarray:
    """A guided role's open (query, key) pairs, broadcastable to ``(B, n, n)``.

    ``tokens`` holds one token per True of ``valid``, the ``(B, n)`` grid of
    token positions, in row order; pairs outside ``valid`` are cut later.
    """
    if role == ROLE_RARE_WORDS:
        if vocab is None:
            raise ShapeMismatchError("rare-words mask needs a vocabulary")
        return rare_columns(tokens, vocab, valid)[:, None, :]
    if role == ROLE_SEPARATOR:
        return _scatter(valid, [t.form in SEPARATOR_FORMS for t in tokens], False)[:, None, :]
    if role == ROLE_DEP_SYNTAX:
        return _edges(valid, [t.head or 0 for t in tokens])
    if role == ROLE_MAJOR_RELATIONS:
        return _edges(valid, [(t.head or 0) if t.deprel in MAJOR_RELATIONS else 0 for t in tokens])
    if role == ROLE_RELATIVE_POSITION:
        return _band(valid.shape[1])
    raise ShapeMismatchError(f"unknown role {role!r}; expected one of {ALL_ROLES}")


def _scatter(valid: np.ndarray, values: list, fill) -> np.ndarray:
    """``values`` at the True positions of ``valid``, in row order; ``fill`` elsewhere."""
    out = np.full(valid.shape, fill)
    out[valid] = values
    return out


def rare_token_count(n):
    """How many of ``n`` tokens count as rare: 10%, rounded up, at least one; elementwise on arrays."""
    return np.maximum(1, np.ceil(0.10 * np.asarray(n))).astype(np.int64)


def rare_columns(tokens, vocab, valid: np.ndarray) -> np.ndarray:
    """Each row's top-10%-IDF positions; a stable sort sends ties to the earlier position.

    ``tokens`` holds one token per True of ``valid``, the ``(B, n)`` grid of
    token positions, in row order; the result is a boolean grid shaped like
    ``valid``. This is the one home of the rare-token rule.

    IDF = log(total_docs / df) falls strictly as df rises, so ranking by df
    ascending ranks by IDF descending, ties included, with no log per token.
    """
    df = _scatter(valid, [vocab.df(t.form) for t in tokens], vocab.total_docs + 1)
    order = np.argsort(df, axis=1, kind="stable")
    ranked_in = np.arange(valid.shape[1]) < rare_token_count(valid.sum(axis=1))[:, None]
    picked = np.zeros_like(valid)
    np.put_along_axis(picked, order, ranked_in, axis=1)
    return picked


def _edges(valid: np.ndarray, heads: list[int]) -> np.ndarray:
    """Open each token's parse edge to its 1-based head, in both directions.

    ``heads`` holds one head per True of ``valid``; a head of 0 (the
    virtual root, an unparsed token or a filtered-out relation) opens nothing.
    """
    head_of = _scatter(valid, heads, 0)
    rows, dependents = np.nonzero(head_of)
    heads = head_of[rows, dependents] - 1
    allow = np.zeros((*valid.shape, valid.shape[1]), dtype=bool)
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
    lines.extend(f"{i} {j}" for i, j in mask.open_coordinates())
    lines.append("")
    return "\n".join(lines)
