"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is computed at 64-bit precision on CPU. A fresh computation
graph is recorded per forward pass; calling :func:`backward` on a scalar
loss walks it once in reverse topological order and accumulates gradients
into every reachable tensor that has ``requires_grad`` set.

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
    """``count`` batch ``rows`` laid out at ``width`` in ``span`` of a :class:`Plan`, with the masks cut to fit."""

    rows: np.ndarray | slice  # ``slice(None)`` for a lone tier: the whole batch, in batch order
    count: int
    width: int
    span: slice
    masks: tuple[np.ndarray, ...]

    def view(self, laid_out: np.ndarray) -> np.ndarray:
        return laid_out[self.span].reshape(self.count, self.width, -1)


class Plan(NamedTuple):
    """How :func:`attention` lays out a (B, n) batch's packed rows: tier after tier, zeros at padding."""

    valid: np.ndarray  # (B, n): a packed row for each True, in row-major order
    tiers: tuple[Tier, ...]
    at: np.ndarray | None  # each packed row's laid-out position; None if the layout is the packed order

    @classmethod
    def build(cls, valid: np.ndarray, tiers: tuple[np.ndarray, ...], masks: list[np.ndarray]) -> Plan:
        """The plan of a batch's packed rows, built once for every layer of a pass.

        ``valid`` is the batch's (B, n) grid of real tokens, ``tiers`` its rows
        per tier from ``attention.tier_plan``, and ``masks`` the heads' additive
        masks. Under two or more tiers, each distinct mask is cut to each tier's
        block here, once.
        """
        b, n = valid.shape
        if len(tiers) == 1:
            at = None if valid.all() else np.flatnonzero(valid)
            return cls(valid, (Tier(slice(None), b, n, slice(0, b * n), tuple(masks)),), at)
        try:
            distinct = {id(m): np.broadcast_to(m, (b, n, n)) for m in masks}
        except ValueError as exc:
            raise ShapeMismatchError(f"attention masks {[np.shape(m) for m in masks]} vs {(b, n, n)}") from exc
        first = np.empty(b, dtype=np.intp)  # each batch row's first position in the layout
        placed, stop = [], 0
        for rows in tiers:
            count, width = len(rows), int(valid[rows].sum(axis=1).max())
            first[rows] = stop + width * np.arange(count)
            cuts = {key: m[rows, :width, :width] for key, m in distinct.items()}
            span = slice(stop, stop + count * width)
            placed.append(Tier(rows, count, width, span, tuple(cuts[id(m)] for m in masks)))
            stop = span.stop
        return cls(valid, tuple(placed), (first[:, None] + np.arange(n))[valid])

    def lay_out(self, rows: np.ndarray) -> np.ndarray:
        """Packed (T, c) ``rows`` at their positions of the layout, zeros elsewhere; ``rows`` if ``at`` is None."""
        if rows.ndim != 2 or rows.shape[0] != (self.tiers[-1].span.stop if self.at is None else self.at.size):
            raise ShapeMismatchError(f"packed rows {rows.shape} do not fill the {self.valid.sum()} valid positions")
        if self.at is None:
            return rows
        out = np.zeros((self.tiers[-1].span.stop, rows.shape[1]))
        out[self.at] = rows
        return out


def attention(q, k, v, masks, keep: np.ndarray | None = None, plan: Plan | None = None) -> tuple[Tensor, np.ndarray]:
    """Masked scaled dot-product attention of H heads, as one tape node.

    ``q`` is (..., n, H·d_k), ``k`` (..., m, H·d_k) and ``v`` (..., m, H·d_v),
    with the heads packed along the last axis, and ``masks`` holds one
    additive {0, -inf} mask per head, each broadcastable to (..., n, m).
    Head ``h`` computes ``softmax((Q_h K_hᵀ + masks[h]) / sqrt(d_k)) V_h``
    over the last axis; ``keep``, an (H, ..., n, m) inverted-dropout multiplier
    (0 or ``1 / (1 - rate)``), scales the weights before they meet ``V_h``.

    Returns the head outputs concatenated along the last axis, (..., n, H·d_v),
    and the (H, ..., n, m) weights before dropout, which are not on the tape.

    With a :class:`Plan` of a (B, n) batch, from :meth:`Plan.build`,
    q, k, v, the output and the gradients are packed (T, ·) rows instead. The
    node scatters q, k and v once into the plan's layout, computes each tier
    on the plan's cuts of ``masks`` and on ``keep[:, rows, :width, :width]``,
    and gathers once. The weights stay (H, B, n, n), 0 outside each row's tier.

    The weights are computed in place as ``p = Q_h K_hᵀ · scale + masks[h]``,
    ``p -= row_max``, ``exp`` and normalisation: an open entry minus the row
    maximum is at most 0, and a masked entry is ``-inf`` whatever its finite
    score, so ``exp`` maps it to exactly 0 without overflow. A row whose
    maximum is ``-inf`` (every key masked) raises :class:`DegenerateRowError`
    naming the head and the row; a row holding a NaN or +inf score, open or
    masked, comes out entirely NaN.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if plan is None:
        out, weights, grads = _heads(q.data, k.data, v.data, masks, keep)

        def backward(g):
            for t, grad in zip((q, k, v), grads(g)):
                _accumulate(t, grad)

        return _record(Tensor(out), (q, k, v), backward), weights

    (b, n), heads = plan.valid.shape, len(masks)
    if keep is not None and keep.shape != (heads, b, n, n):
        raise ShapeMismatchError(f"attention keep shape {keep.shape} vs weights {(heads, b, n, n)}")
    laid_out = [plan.lay_out(t.data) for t in (q, k, v)]
    out = np.empty(laid_out[2].shape)
    weights = np.zeros((heads, b, n, n)) if len(plan.tiers) > 1 else None
    tier_grads = []
    for tier in plan.tiers:
        tier_keep = None if keep is None else keep[:, tier.rows, :tier.width, :tier.width]
        _, tier_weights, grads = _heads(*map(tier.view, laid_out), tier.masks, tier_keep, tier.rows, tier.view(out))
        if weights is None:  # a lone tier's weights are the batch's
            weights = tier_weights
        else:
            weights[:, tier.rows, :tier.width, :tier.width] = tier_weights
        tier_grads.append(grads)

    def backward(g):
        g, into = plan.lay_out(g), [np.empty(a.shape) for a in laid_out]
        for tier, grads in zip(plan.tiers, tier_grads):
            grads(tier.view(g), [tier.view(d) for d in into])
        for t, grad in zip((q, k, v), into):
            _accumulate(t, grad if plan.at is None else grad.take(plan.at, axis=0))

    return _record(Tensor(out if plan.at is None else out.take(plan.at, axis=0)), (q, k, v), backward), weights


def _heads(qd, kd, vd, masks, keep, rows=None, out=None):
    """The per-head kernel of :func:`attention` on laid-out operands: its output, weights and the map from the
    output's gradient to those of qd, kd and vd, into ``out``/``into`` if set. Row (i, ...) is named (rows[i], ...)."""
    heads = len(masks)
    if heads < 1 or qd.ndim < 2 or kd.ndim < 2 or vd.ndim < 2:
        raise ShapeMismatchError("attention needs at least one mask and operands of >=2-D")
    if qd.shape[-1] != kd.shape[-1] or qd.shape[-1] % heads or vd.shape[-1] % heads:
        raise ShapeMismatchError(
            f"attention cannot split query/key/value {qd.shape}, {kd.shape}, {vd.shape} into {heads} heads"
        )
    if kd.shape[-2] != vd.shape[-2]:
        raise ShapeMismatchError(f"key/value length mismatch: {kd.shape} vs {vd.shape}")
    try:
        lead = np.broadcast_shapes(qd.shape[:-2], kd.shape[:-2], vd.shape[:-2])
    except ValueError as exc:
        raise ShapeMismatchError(f"attention cannot broadcast {qd.shape}, {kd.shape}, {vd.shape}") from exc
    d_k, d_v = qd.shape[-1] // heads, vd.shape[-1] // heads
    n, m = qd.shape[-2], kd.shape[-2]
    if keep is not None and keep.shape != (heads, *lead, n, m):
        raise ShapeMismatchError(f"attention keep shape {keep.shape} vs weights {(heads, *lead, n, m)}")
    scale = 1.0 / math.sqrt(d_k)
    weights = np.empty((heads, *lead, n, m))
    out = np.empty((*lead, n, heads * d_v)) if out is None else out
    for h in range(heads):
        qk, vh = slice(h * d_k, (h + 1) * d_k), slice(h * d_v, (h + 1) * d_v)
        p = weights[h]
        np.matmul(qd[..., qk], np.swapaxes(kd[..., qk], -1, -2), out=p)
        p *= scale  # for a {0, -inf} mask, p + mask equals (QKᵀ + M) * scale
        try:
            p += masks[h]
        except ValueError as exc:
            raise ShapeMismatchError(f"mask shape {np.shape(masks[h])} does not broadcast to {p.shape}") from exc
        row_max = p.max(axis=-1, keepdims=True)
        closed = row_max[..., 0] == NEG_INF  # not row_max.min(): a NaN row would hide this one
        if closed.any():
            row = tuple(int(i) for i in np.argwhere(closed)[0])
            if isinstance(rows, np.ndarray):
                row = (int(rows[row[0]]), *row[1:])
            raise DegenerateRowError(f"attention head {h}: every key of row {row} is masked")
        p -= row_max
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p if keep is None else p * keep[h], vd[..., vh], out=out[..., vh])

    def grads(g, into=None):
        dq, dk, dv = into or (np.empty((*lead, n, qd.shape[-1])), np.empty((*lead, m, kd.shape[-1])),
                              np.empty((*lead, m, vd.shape[-1])))
        for h in range(heads):
            qk, vh = slice(h * d_k, (h + 1) * d_k), slice(h * d_v, (h + 1) * d_v)
            p, g_h = weights[h], g[..., vh]
            np.matmul(np.swapaxes(p if keep is None else p * keep[h], -1, -2), g_h, out=dv[..., vh])
            dp = g_h @ np.swapaxes(vd[..., vh], -1, -2)
            if keep is not None:
                dp *= keep[h]
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            np.matmul(ds, kd[..., qk], out=dq[..., qk])
            np.matmul(np.swapaxes(ds, -1, -2), qd[..., qk], out=dk[..., qk])
        return dq, dk, dv

    return out, weights, grads


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
    """Populate gradients of everything reachable from a scalar loss.

    When ``params`` is given, parameters the loss does not depend on get an
    explicit zero gradient instead of ``None``.
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
        if node._backward is not None:
            node._backward(node.grad)

    if params is not None:
        for p in params.values():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
