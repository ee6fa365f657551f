"""Construction of the five role-specific additive attention masks.

Every mask is an n-by-n float64 matrix whose entries are exactly 0.0
(attend) or ``-inf`` (ignore), indexed query row x key column. Construction
starts from an all ``-inf`` grid and opens positions according to the role:

* ``rarew``  - columns of the top-10%-IDF token positions,
* ``seprat`` - columns of separator/punctuation tokens,
* ``depsyn`` - undirected dependency-parse adjacency,
* ``majrel`` - dependency adjacency restricted to nsubj/dobj/amod/advmod,
* ``relpos`` - a centered window of size 3 (self and both neighbours),
* ``padding`` - no restriction (opens everything).

A query row that ends up fully masked would make softmax undefined, so a
diagonal self-attention fallback is applied to infeasible rows. Masks are
built at the sentence's own length; batching places each one into the
top-left block of its padded grid (see ``corpus.make_batches``).
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
    values: np.ndarray  # (n, n) float64 over {0, -inf}

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def zero_coordinates(self) -> list[tuple[int, int]]:
        """Sorted 1-based (query, key) coordinates of allowed positions."""
        rows, cols = np.nonzero(self.values == 0.0)
        return [(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)]


def _blocked(n: int) -> np.ndarray:
    return np.full((n, n), NEG_INF)


def _columns_mask(role: str, n: int, allowed_columns) -> RoleMask:
    values = _blocked(n)
    cols = sorted(allowed_columns)
    if cols:
        values[:, cols] = 0.0
    return apply_fallback(RoleMask(role, values), n)


def rare_words_mask(sentence, vocab) -> RoleMask:
    """Open the columns of the sentence's rarest (highest-IDF) token positions."""
    from .corpus import rare_token_indices

    return _columns_mask(ROLE_RARE_WORDS, len(sentence), rare_token_indices(sentence, vocab))


def separator_mask(sentence) -> RoleMask:
    """Open separator/punctuation columns; diagonal fallback when none exist."""
    allowed = [i for i, t in enumerate(sentence.tokens) if t.form in SEPARATOR_FORMS]
    return _columns_mask(ROLE_SEPARATOR, len(sentence), allowed)


def _edge_mask(role: str, sentence, relations: frozenset[str] | None) -> RoleMask:
    n = len(sentence)
    values = _blocked(n)
    for t in sentence.tokens:
        if t.head is None or t.head == 0:
            continue  # unparsed token or edge to the virtual root
        if relations is not None and (t.deprel or "") not in relations:
            continue
        i, j = t.index - 1, t.head - 1
        values[i, j] = 0.0
        values[j, i] = 0.0
    return apply_fallback(RoleMask(role, values), n)


def dep_syntax_mask(sentence) -> RoleMask:
    """Undirected parse adjacency: token attends to its head and dependents."""
    return _edge_mask(ROLE_DEP_SYNTAX, sentence, None)


def major_relations_mask(sentence) -> RoleMask:
    """Parse adjacency restricted to nsubj/dobj(obj)/amod/advmod edges."""
    return _edge_mask(ROLE_MAJOR_RELATIONS, sentence, MAJOR_RELATIONS)


def relative_position_mask(n: int) -> RoleMask:
    """Centered window of size 3: (i, j) open iff |i - j| <= 1."""
    if n < 1:
        raise ShapeMismatchError(f"mask size must be >= 1, got {n}")
    idx = np.arange(n)
    values = np.where(np.abs(idx[:, None] - idx[None, :]) <= 1, 0.0, NEG_INF)
    return RoleMask(ROLE_RELATIVE_POSITION, values)


def apply_fallback(mask: RoleMask, n_valid: int) -> RoleMask:
    """Give every fully-masked valid query row a diagonal self-attention zero."""
    values = mask.values.copy()
    feasible = (values[:n_valid] == 0.0).any(axis=1)
    for i in np.nonzero(~feasible)[0]:
        values[i, i] = 0.0
    return RoleMask(mask.role, values)


def build_role_mask(role: str, sentence, vocab=None) -> RoleMask:
    """Construct one role's mask for a sentence (at the sentence's length).

    The ``padding`` pseudo-role places no restriction of its own; placed
    into a padded grid it leaves that grid's padding mask as it is, which is
    how an ablated head is given "just the padding mask".
    """
    n = len(sentence)
    if role == ROLE_RARE_WORDS:
        if vocab is None:
            raise ShapeMismatchError("rare-words mask needs a vocabulary")
        return rare_words_mask(sentence, vocab)
    if role == ROLE_SEPARATOR:
        return separator_mask(sentence)
    if role == ROLE_DEP_SYNTAX:
        return dep_syntax_mask(sentence)
    if role == ROLE_MAJOR_RELATIONS:
        return major_relations_mask(sentence)
    if role == ROLE_RELATIVE_POSITION:
        return relative_position_mask(n)
    if role == ROLE_PADDING:
        return RoleMask(ROLE_PADDING, np.zeros((n, n)))
    raise ShapeMismatchError(f"unknown role {role!r}; expected one of {ALL_ROLES}")


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
