"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is computed at 64-bit precision on CPU. A fresh computation
graph is recorded per forward pass; calling :func:`backward` on a scalar
loss walks it once in reverse topological order. Leaves with
``requires_grad`` set, such as parameters, accumulate their gradients;
each interior node's gradient is freed once its own backward step has used
it, so it reads ``None`` afterwards.

The only non-finite value that may legally appear in a forward pass is
``-inf``, introduced by additive attention masks. :func:`attention`, the
one softmax of the runtime, maps ``-inf`` entries to exactly 0, which in
turn makes the gradient through masked positions exactly 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateRowError, ShapeMismatchError

NEG_INF = float("-inf")
# exp(EXP_FLOOR) is a normal number, inside numpy's fast exp path (it ends near -708),
# and exp of anything below UNDERFLOW rounds to exactly 0 (the cut is near -745.13).
EXP_FLOOR, UNDERFLOW = -700.0, -746.0


class Tensor:
    """A numpy float64 array plus an optional gradient and tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # backward_fn gets out's gradient as its argument and holds no reference to
    # out, so a graph has no reference cycle and is freed without the cyclic GC.
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    # Gradients are never mutated in place, so aliasing the incoming array is safe.
    if not t.requires_grad:
        return
    grad = _unbroadcast(grad, t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; 2-D operands or batched 3-D with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _record(out, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"add cannot broadcast {a.shape} + {b.shape}") from exc
    out = Tensor(data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"mul cannot broadcast {a.shape} * {b.shape}") from exc
    out = Tensor(data)

    def backward(g):
        # The requires_grad guards also avoid 0 * -inf = NaN against constant
        # mask operands, whose gradient is never needed.
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record(out, (a, b), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record(out, (x,), backward)


class Tier(NamedTuple):
    """The batch ``rows`` laid out at ``width`` in ``span`` of a :class:`Plan`, with the masks cut to fit."""

    rows: np.ndarray  # the tier's batch rows in layout order, as many as its count
    width: int
    span: slice
    masks: tuple[np.ndarray, ...]  # one per head, its block cut to the tier: broadcasts to (count, width, width)

    def view(self, laid_out: np.ndarray) -> np.ndarray:
        return laid_out[self.span].reshape(len(self.rows), self.width, -1)


class Plan(NamedTuple):
    """How :func:`attention` lays out a batch's packed rows: tier after tier, zeros at padding."""

    lengths: np.ndarray  # (B,): the packed rows of each sentence
    tiers: tuple[Tier, ...]
    at: np.ndarray | None  # each packed row's laid-out position; None if the layout is the packed order

    @classmethod
    def build(cls, lengths: np.ndarray, allowed: list[np.ndarray]) -> Plan:
        """The plan of a batch's packed rows and its heads' additive masks, built once for every layer of a pass.

        ``lengths`` are the batch's (B,) sentence lengths, each at least 1, and ``allowed`` each head's boolean
        block, broadcastable to (B, n, n), n = ``lengths.max()``. The rows are cut into tiers by length (see
        :func:`_tiers`), each laid out at its longest sentence, and each distinct block becomes one {0, -inf} mask
        per tier, cut to the tier along the axes it has: a (B, 1, n) key row becomes a (count, 1, width) row, and a
        shared (n, n) block a (width, width) one. A lone tier is the whole batch in batch order and cuts nothing.
        Any other input raises :class:`ShapeMismatchError`.
        """
        if not allowed:
            raise ShapeMismatchError("attention needs at least one mask block, one per head")
        if any(a.dtype != bool for a in allowed):  # an additive {0, -inf} mask would come out inverted
            raise ShapeMismatchError(f"attention mask blocks must be boolean, got {[str(a.dtype) for a in allowed]}")
        lengths = np.asarray(lengths)
        low = lengths.min() if lengths.ndim == 1 and lengths.size and lengths.dtype.kind == "i" else 0
        if low < 1:
            raise ShapeMismatchError(f"batch lengths must be a vector of signed integers >= 1, got {lengths.tolist()}")
        b, n = lengths.size, int(lengths.max())
        try:
            shape = np.broadcast_shapes((b, n, n), *{a.shape for a in allowed})
        except ValueError:
            shape = None
        if shape != (b, n, n):
            raise ShapeMismatchError(f"attention masks {[a.shape for a in allowed]} vs {(b, n, n)}")
        tiers = _tiers(lengths)
        whole = len(tiers) == 1  # a lone tier is the batch as it is: no block is cut
        distinct = {id(a): a for a in allowed}
        first = np.empty(b, dtype=np.intp)  # each batch row's first position in the layout
        placed, stop = [], 0
        for rows in tiers:
            count = len(rows)
            width = n if whole else int(lengths[rows].max())
            first[rows] = np.arange(stop, stop + count * width, width)
            cuts = {key: np.where(a if whole else a[_cut(a.shape, rows, width)], 0.0, NEG_INF)
                    for key, a in distinct.items()}
            span = slice(stop, stop + count * width)
            placed.append(Tier(rows, width, span, tuple([cuts[id(a)] for a in allowed])))
            stop = span.stop
        at = None if whole and low == n else (first + lengths - lengths.cumsum()).repeat(lengths)
        if at is not None:  # row r's tokens go to first[r] onwards
            at += np.arange(at.size)
        return cls(lengths, tuple(placed), at)

    def lay_out(self, rows: np.ndarray) -> np.ndarray:
        """Packed (T, c) ``rows`` at their positions of the layout, zeros elsewhere; ``rows`` if ``at`` is None."""
        if rows.ndim != 2 or rows.shape[0] != (self.tiers[-1].span.stop if self.at is None else self.at.size):
            raise ShapeMismatchError(f"packed rows {rows.shape} do not fill the {self.lengths.sum()} valid positions")
        if self.at is None:
            return rows
        out = np.zeros((self.tiers[-1].span.stop, rows.shape[1]))
        out[self.at] = rows
        return out


# What a tier costs :func:`attention` beyond its score cells, in cells. Timing the node's
# forward and backward passes (H = 6, d_k = 8) gave about 70-100 µs per call and
# 0.12-0.15 µs per score cell (B·n²): a tier breaks even at 500-800 cells.
# Tier widths move the rounding of softmax sums: a new value needs a paired-seed study.
TIER_CELLS = 3000


def _tiers(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """The batch rows of each tier of a :class:`Plan` for sentences of ``lengths``, a vector of integers >= 1.

    The rows, sorted by length stably, are cut into at most three tiers that minimise Σ B_t·n_t² +
    ``TIER_CELLS`` per tier, tier t holding B_t rows of at most n_t tokens, in length order; of equal
    costs, the first cut pair in row-major order wins. A lone tier is ``np.arange(B)``, the whole batch
    in batch order. Cuts are sought only where the sorted length changes: a cut inside a run of equal
    lengths costs more than one at the run's end, so the search is O(B log B + K²) for K distinct lengths.
    """
    lengths = lengths.astype(np.int64, copy=False)
    b, top = len(lengths), int(lengths.max()) ** 2
    # No split computes fewer than Σ l² cells, and any split adds a tier.
    if b * top - int(lengths @ lengths) <= TIER_CELLS:
        return (np.arange(b),)
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True)) + 1  # each run's end, the last one b
    square = ordered[ends - 1] ** 2
    i, j = np.triu_indices(ends.size)  # tiers [0, ends[i]), [ends[i], ends[j]) and [ends[j], b), empty ones dropped
    cost = (ends[i] * square[i] + (ends[j] - ends[i]) * square[j] + (b - ends[j]) * top
            + TIER_CELLS * (1 + (j > i) + (ends[j] < b)))
    best = int(np.argmin(cost))
    tiers = tuple(part for part in np.split(order, [ends[i[best]], ends[j[best]]]) if part.size)
    return tiers if len(tiers) > 1 else (np.arange(b),)


def _cut(shape: tuple[int, ...], rows: np.ndarray, width: int) -> tuple:
    """A tier's index into a block of ``shape``: ``rows`` on a batch axis of B, ``[:width]`` on query and key axes."""
    batch = rows if len(shape) == 3 and shape[0] > 1 else slice(None)
    return (batch, slice(width), slice(width))[3 - len(shape) :]


def attention(q, k, v, plan: Plan, drop=None) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """Masked scaled dot-product attention of H heads over a batch's packed rows, as one tape node.

    ``q`` and ``k`` are (T, H·d_k) and ``v`` (T, H·d_v), one row per token of ``plan``'s batch,
    T = ``plan.lengths.sum()``, with the heads packed along the last axis. ``plan``, from
    :meth:`Plan.build`, holds the batch's tiers and one {0, -inf} mask per head and tier.
    Head ``h`` computes ``softmax((Q_h K_hᵀ + M_h) / sqrt(d_k)) V_h`` within each sentence;
    ``drop``, if given, is called once per tier, in tier order, as ``drop((H, count, width, width))``,
    and returns the tier's inverted-dropout multipliers (0 or ``1 / (1 - rate)``) for its rows
    and its ``[:width, :width]`` pairs, which scale the weights before they meet ``V_h``. A
    single sentence's (n, ·) operands under boolean (n, n) blocks ``allowed`` are the packed
    rows of the one-tier plan ``Plan.build([n], allowed)``.

    Returns the head outputs concatenated along the last axis, (T, H·d_v), and the
    weights before dropout, one (H, count, width, width) block per tier: off the tape, and
    read-only because the backward pass reads them. The node scatters q, k and v once
    into the plan's layout, computes each tier, and gathers once.

    All heads of a tier are computed at once, on (H, count, width, d) views of the operands.
    The weights are computed in place as ``p = Q_h K_hᵀ · scale + masks[h]``,
    ``p -= row_max``, ``exp`` and normalisation: an open entry minus the row
    maximum is at most 0, and a masked entry is ``-inf`` whatever its finite
    score, so ``exp`` maps it to exactly 0 without overflow. The row maximum and
    ``exp`` keep off numpy's slow paths, bit for bit (:func:`_row_max`, :func:`_exp`).
    A row whose maximum is ``-inf`` (every key masked) raises :class:`DegenerateRowError`
    naming the first such head and its (batch row, token); a row holding a NaN
    or +inf score, open or masked, comes out entirely NaN.
    """
    if not isinstance(plan, Plan):
        raise ShapeMismatchError(f"attention takes a batch's autodiff.Plan (Plan.build), not a {type(plan).__name__}")
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    laid_out = [plan.lay_out(t.data) for t in (q, k, v)]
    out = np.empty(laid_out[2].shape)
    runs = []
    for tier in plan.tiers:
        keep = None if drop is None else drop((len(tier.masks), len(tier.rows), tier.width, tier.width))
        runs.append(_heads(*map(tier.view, laid_out), tier.masks, keep, tier.rows, tier.view(out)))
    _, weights, tier_grads = zip(*runs)

    def backward(g):
        g, into = plan.lay_out(g), [np.empty(a.shape) for a in laid_out]
        for tier, grads in zip(plan.tiers, tier_grads):
            grads(tier.view(g), [tier.view(d) for d in into])
        for t, grad in zip((q, k, v), into):
            _accumulate(t, grad if plan.at is None else grad.take(plan.at, axis=0))

    return _record(Tensor(out if plan.at is None else out.take(plan.at, axis=0)), (q, k, v), backward), weights


def _heads(qd, kd, vd, masks, keep, rows, out=None):
    """The kernel of :func:`attention` on one tier: its output, weights and the map from the output's gradient
    to those of qd, kd and vd, into ``out``/``into`` if set. The operands are (count, width, ·), each of the
    ``masks`` broadcasts to (count, width, width), and row (i, j) is named (rows[i], j).

    Its softmax avoids two slow numpy paths on sparse masks, without changing a bit: :func:`_row_max`
    replaces the per-row reduce, and :func:`_exp` keeps masked lanes off ``np.exp``'s non-SIMD path."""
    heads = len(masks)
    if qd.shape[-1] != kd.shape[-1] or qd.shape[-1] % heads or vd.shape[-1] % heads:
        raise ShapeMismatchError(
            f"attention cannot split query/key/value {qd.shape}, {kd.shape}, {vd.shape} into {heads} heads"
        )
    count, width = qd.shape[:2]
    if keep is not None and keep.shape != (heads, count, width, width):
        raise ShapeMismatchError(f"attention keep shape {keep.shape} vs weights {(heads, count, width, width)}")
    scale = 1.0 / math.sqrt(qd.shape[-1] // heads)
    qh, kh, vh = (_split_heads(a, heads) for a in (qd, kd, vd))
    p = np.matmul(qh, np.swapaxes(kh, -1, -2), out=np.empty((heads, count, width, width)))
    p *= scale  # for a {0, -inf} mask, p + mask equals (QKᵀ + M) * scale
    for h, mask in enumerate(masks):
        p[h] += mask
    row_max = _row_max(p)
    closed = row_max[..., 0] == NEG_INF  # not row_max.min(): a NaN row would hide this one
    if closed.any():
        h, i, j = (int(i) for i in np.argwhere(closed)[0])
        raise DegenerateRowError(f"attention head {h}: every key of row {(int(rows[i]), j)} is masked")
    p -= row_max
    _exp(p)
    p /= p.sum(axis=-1, keepdims=True)
    p.flags.writeable = False  # the backward pass reads these weights
    out = np.empty((count, width, vd.shape[-1])) if out is None else out
    held = [] if keep is None else [p * keep]  # the first backward pass reads it, then writes dP over it
    np.matmul(held[0] if held else p, vh, out=_split_heads(out, heads))

    def grads(g, into=None):
        dq, dk, dv = into or [np.empty((count, width, a.shape[-1])) for a in (qd, kd, vd)]
        gh = _split_heads(g, heads)
        dropped = held.pop() if held else (p if keep is None else p * keep)
        np.matmul(np.swapaxes(dropped, -1, -2), gh, out=_split_heads(dv, heads))
        ds = np.matmul(gh, np.swapaxes(vh, -1, -2), out=None if keep is None else dropped)  # reuses a spent block
        if keep is not None:
            ds *= keep
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        np.matmul(ds, kh, out=_split_heads(dq, heads))
        np.matmul(np.swapaxes(ds, -1, -2), qh, out=_split_heads(dk, heads))
        return dq, dk, dv

    return out, p, grads


def _row_max(p: np.ndarray) -> np.ndarray:
    """``p.max(axis=-1, keepdims=True)`` of a C-contiguous ``p``, taken down its columns.

    numpy reduces each short row in a call of its own, about 7× slower on a
    (6, 32, 8, 8) block. Max is exact in any order, but numpy picks among a
    row's NaNs in its own way, so NaN rows are reduced again by numpy. A row
    holding both +0 and -0 as its maximum may get either; ``_heads`` never
    sees one, since adding a {0, -inf} mask turns -0 into +0. A row with no
    keys reads ``-inf``.
    """
    rows = p.reshape(math.prod(p.shape[:-1]), p.shape[-1])
    out = np.full(rows.shape[0], NEG_INF)
    for column in rows.T:
        np.maximum(out, column, out=out)
    nan = np.isnan(out)
    if nan.any():
        out[nan] = rows[nan].max(axis=-1)
    return out.reshape(*p.shape[:-1], 1)


def _exp(p: np.ndarray) -> None:
    """``np.exp(p, out=p)``, bit for bit, with no lane below ``EXP_FLOOR`` reaching ``np.exp``.

    numpy's exp leaves its SIMD path for any lane whose result is not a normal
    number, about 6× slower on a (6, 32, 8, 8) block with 70% of lanes ``-inf``.
    A lane below ``UNDERFLOW`` gives exactly 0 either way, so such lanes are
    raised to the floor and their results multiplied by 0. A block with a lane
    in [``UNDERFLOW``, ``EXP_FLOOR``), whose tiny result the floor would zero,
    or with no lane below the floor, takes plain ``np.exp``. NaN lanes stay NaN.
    """
    keep = p >= EXP_FLOOR
    kept = np.count_nonzero(keep)
    if kept == p.size or kept != np.count_nonzero(p >= UNDERFLOW):
        np.exp(p, out=p)
        return
    np.maximum(p, EXP_FLOOR, out=p)
    np.exp(p, out=p)
    p *= keep


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(count, r, H·d) ``a`` as an (H, count, r, d) view."""
    return a.reshape(*a.shape[:-1], heads, -1, copy=False).transpose(2, 0, 1, 3)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    # Sums over d are what np.mean and np.var compute inside, so the bits are
    # theirs; this skips their Python wrappers and centres each row once.
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centred * inv_std
    out = Tensor(x_hat * gain.data + bias.data)

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            m1 = gy.sum(axis=-1, keepdims=True) / d
            m2 = (gy * x_hat).sum(axis=-1, keepdims=True) / d
            _accumulate(x, (gy - m1 - x_hat * m2) * inv_std)
        if gain.requires_grad:
            _accumulate(gain, (g * x_hat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))

    return _record(out, (x, gain, bias), backward)


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup: ``out[..., :] = table[ids[...], :]``."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatchError(
            f"embedding id out of range [0, {table.shape[0]}): min={ids.min()} max={ids.max()}"
        )
    out = Tensor(table.data[ids])

    def backward(g):
        rows = np.zeros_like(table.data)
        np.add.at(rows, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        _accumulate(table, rows)

    return _record(out, (table,), backward)


def packed_mean(x, lengths: np.ndarray) -> Tensor:
    """Mean of each sentence's rows of packed (T, d) ``x``, giving (B, d).

    Sentence ``i`` owns the ``lengths[i]`` rows after those of sentences
    ``0..i-1``; every length must be at least 1 and they must sum to T.
    """
    x = as_tensor(x)
    lengths = np.asarray(lengths)
    if x.ndim != 2 or lengths.ndim != 1 or lengths.sum() != x.shape[0]:
        raise ShapeMismatchError(f"packed_mean lengths {lengths.tolist()} vs rows {x.shape}")
    if np.any(lengths < 1):  # reduceat would give an empty segment the next row
        raise ShapeMismatchError("packed_mean: an example has no valid positions")
    counts = lengths[:, None].astype(np.float64)
    out = Tensor(np.add.reduceat(x.data, np.cumsum(lengths) - lengths, axis=0) / counts)

    def backward(g):
        _accumulate(x, np.repeat(g / counts, lengths, axis=0))

    return _record(out, (x,), backward)


def cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of (B, C) logits against int labels (B,)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeMismatchError(f"cross_entropy got logits {logits.shape}, labels {labels.shape}")
    n, c = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ShapeMismatchError(f"cross_entropy label out of range [0, {c})")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    out = Tensor((lse[:, 0] - z[np.arange(n), labels]).mean())

    def backward(g):
        p = np.exp(z - lse)
        p[np.arange(n), labels] -= 1.0
        _accumulate(logits, p * (g / n))

    return _record(out, (logits,), backward)


# ---------------------------------------------------------------------------
# Reverse pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor, params: dict[str, Tensor] | None = None) -> None:
    """Add the gradient of a scalar loss to every leaf it reaches that has ``requires_grad``.

    Interior nodes hold their gradient only until their backward step has
    used it and read ``None`` afterwards, so a second call on the same loss
    starts clean and adds the same leaf gradients again. When ``params`` is
    given, parameters the loss does not depend on get an explicit zero
    gradient instead of ``None``.
    """
    if loss.data.size != 1:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:  # an interior node: free its gradient as it is used
            grad, node.grad = node.grad, None
            node._backward(grad)

    if params is not None:
        for p in params.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
