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

:func:`stack_role_masks` writes every role of a batch into one boolean
``(R, B, n, n)`` stack at the longest sentence; each role's block is its view
of it. Then, once for the stack, padded query rows open all keys, only valid
key columns stay open, and :func:`apply_fallback` opens the diagonal of each
valid query row left with no open key, as softmax over no key is undefined.
:func:`build_batch_masks` runs it on sentences, :func:`build_role_mask` on one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

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
    """Each role's boolean ``(B, n, n)`` allow-block for a batch of sentences; ``vocab`` serves ``rarew``."""
    tokens = [t for s in sentences for t in s.tokens]
    lengths = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    df = None if vocab is None else [vocab.df(t.form) for t in tokens]
    return stack_role_masks(roles, lengths, valid, tokens, df)


def build_role_mask(role: str, sentence, vocab=None) -> RoleMask:
    """One role's boolean ``(n, n)`` mask for one sentence at its own length: a batch of one.

    The ``padding`` pseudo-role places no restriction of its own; it opens
    every key, which is how an ablated head is given "just the padding mask".
    """
    return RoleMask(role, build_batch_masks((role,), [sentence], vocab)[role][0])


def stack_role_masks(roles, lengths, valid, tokens, df) -> dict[str, np.ndarray]:
    """Each distinct role's boolean ``(B, n, n)`` allow-block: its view of one ``(R, B, n, n)`` stack.

    ``valid`` is the ``(B, n)`` grid of token positions and ``lengths`` its row counts; ``tokens`` and
    their document frequencies ``df`` (None without a vocabulary) hold one entry per True of it, in row
    order. A valid query row opens the role's valid keys, or its diagonal if there are none; a padded
    query row opens every valid key; padded key columns stay closed.
    """
    roles = tuple(dict.fromkeys(roles))
    stack = np.zeros((len(roles), *valid.shape, valid.shape[1]), dtype=bool)
    rows, positions = np.nonzero(valid)  # each token's batch row and position
    if {ROLE_DEP_SYNTAX, ROLE_MAJOR_RELATIONS} & set(roles):
        edges = _parse_edges(lengths, rows, positions, tokens)
    for role, block in zip(roles, stack):
        if role == ROLE_RARE_WORDS:
            if df is None:
                raise ShapeMismatchError("rare-words mask needs a vocabulary")
            block[:] = rare_columns(df, valid)[:, None, :]
        elif role == ROLE_SEPARATOR:
            seps = [k for k, t in enumerate(tokens) if t.form in SEPARATOR_FORMS]
            block[rows[seps], :, positions[seps]] = True
        elif role in (ROLE_DEP_SYNTAX, ROLE_MAJOR_RELATIONS):
            row, dependent, head, major = edges
            kept = major if role == ROLE_MAJOR_RELATIONS else slice(None)
            block[row[kept], dependent[kept], head[kept]] = block[row[kept], head[kept], dependent[kept]] = True
        elif role == ROLE_RELATIVE_POSITION:
            block[:] = _band(valid.shape[1])
        elif role == ROLE_PADDING:
            block[:] = True
        else:
            raise ShapeMismatchError(f"unknown role {role!r}; expected one of {ALL_ROLES}")
    stack |= ~valid[:, :, None]
    stack &= valid[:, None, :]
    return dict(zip(roles, apply_fallback(stack, lengths)))


def rare_token_count(n):
    """How many of ``n`` tokens count as rare: 10%, rounded up, at least one; elementwise on arrays."""
    return np.maximum(1, np.ceil(0.10 * np.asarray(n))).astype(np.int64)


def rare_columns(df, valid: np.ndarray) -> np.ndarray:
    """Each row's top-10%-IDF positions; a stable sort sends ties to the earlier position.

    ``df`` holds one document frequency per True of ``valid``, the ``(B, n)``
    grid of token positions, in row order; the result is a boolean grid
    shaped like ``valid``. This is the one home of the rare-token rule.

    IDF = log(total_docs / df) falls strictly as df rises, so ranking by df
    ascending ranks by IDF descending, ties included, with no log per token.
    """
    ranked = np.full(valid.shape, np.iinfo(np.int64).max)  # padding ranks last
    ranked[valid] = df
    order = np.argsort(ranked, axis=1, kind="stable")
    ranked_in = np.arange(valid.shape[1]) < rare_token_count(valid.sum(axis=1))[:, None]
    picked = np.zeros_like(valid)
    np.put_along_axis(picked, order, ranked_in, axis=1)
    return picked


def _parse_edges(lengths: np.ndarray, rows: np.ndarray, positions: np.ndarray, tokens):
    """Each parse edge's batch row, 0-based dependent and head positions, and whether its relation is major.

    ``rows`` and ``positions`` place each of ``tokens``. A head of 0 (the root) or None makes no edge; one that is
    not an int (a bool is not) or lies outside its sentence raises ShapeMismatchError naming the batch row and token.
    """
    heads = [0 if (head := t.head) is None else head for t in tokens]
    if set(map(type, heads)) - {int}:
        k = next(k for k, head in enumerate(heads) if type(head) is not int)
        raise ShapeMismatchError(f"batch row {rows[k]}, token {positions[k] + 1}: head {heads[k]!r} is not an int")
    try:
        heads = np.array(heads, dtype=np.int64)
    except OverflowError:  # such a head is outside any sentence; compare it as a Python int
        heads = np.array(heads, dtype=object)
    if (bad := (heads < 0) | (heads > lengths[rows])).any():
        k = int(np.argmax(bad))
        raise ShapeMismatchError(
            f"batch row {rows[k]}, token {positions[k] + 1}: head {heads[k]} outside [0, {lengths[rows[k]]}]"
        )
    edge = np.flatnonzero(heads)
    major = np.array([tokens[k].deprel in MAJOR_RELATIONS for k in edge.tolist()], dtype=bool)
    return rows[edge], positions[edge], heads[edge] - 1, major


@functools.cache
def _band(n: int) -> np.ndarray:
    """The ``relpos`` window ``|i - j| <= 1`` at width ``n``, computed once per width and shared: read-only."""
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    band.flags.writeable = False
    return band


# ---------------------------------------------------------------------------
# Sparse dump format
# ---------------------------------------------------------------------------


def dump_record(sent_id: str, mask: RoleMask) -> str:
    """One diffable record: header line, then sorted 1-based ``i j`` pairs."""
    lines = [f"sentence={sent_id} role={mask.role} n={mask.n}"]
    lines.extend(f"{i} {j}" for i, j in mask.open_coordinates())
    lines.append("")
    return "\n".join(lines)
