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


def attention(
    q, k, v, masks, keep: np.ndarray | None = None, valid: np.ndarray | None = None, tiers=()
) -> tuple[Tensor, np.ndarray]:
    """Masked scaled dot-product attention of H heads, as one tape node.

    ``q`` is (..., n, H·d_k), ``k`` (..., m, H·d_k) and ``v`` (..., m, H·d_v),
    with the heads packed along the last axis, and ``masks`` holds one
    additive {0, -inf} mask per head, each broadcastable to (..., n, m).
    Head ``h`` computes ``softmax((Q_h K_hᵀ + masks[h]) / sqrt(d_k)) V_h``
    over the last axis; ``keep``, an (H, ..., n, m) multiplier from
    :func:`dropout_keep`, scales the weights before they meet ``V_h``.

    Returns the head outputs concatenated along the last axis, (..., n, H·d_v),
    and the (H, ..., n, m) weights before dropout, which are not on the tape.

    With a (B, n) boolean ``valid``, q, k, v, the output and the gradients
    are instead packed (T, ·) rows of its True positions in row-major order;
    the node lays them out at (B, n, ·), zeros elsewhere, only inside itself.
    Two or more ``tiers`` of batch rows, from ``attention.tier_plan``, are each
    laid out and computed at their longest sentence n_t, with the masks and
    ``keep`` sliced ``[rows, :n_t, :n_t]``; the weights stay (H, B, n, n), each
    row's ``[:n_t, :n_t]`` block in place and zeros elsewhere.

    The weights are computed in place as ``p = Q_h K_hᵀ · scale + masks[h]``,
    ``p -= row_max``, ``exp`` and normalisation: an open entry minus the row
    maximum is at most 0, and a masked entry is ``-inf`` whatever its finite
    score, so ``exp`` maps it to exactly 0 without overflow. A row whose
    maximum is ``-inf`` (every key masked) raises :class:`DegenerateRowError`
    naming the head and the row; a row holding a NaN or +inf score, open or
    masked, comes out entirely NaN.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if valid is not None and len(tiers) > 1:
        return _tiered(q, k, v, masks, keep, valid, tiers)
    at = None if valid is None else np.flatnonzero(valid)
    qd, kd, vd = (t.data if at is None else _padded(t.data, at, valid.shape) for t in (q, k, v))
    out, weights, grads = _heads(qd, kd, vd, masks, keep)

    def backward(g):
        for t, grad in zip((q, k, v), grads(g if at is None else _padded(g, at, valid.shape))):
            _accumulate(t, grad if at is None else _packed(grad, at))

    return _record(Tensor(out if at is None else _packed(out, at)), (q, k, v), backward), weights


def _heads(qd, kd, vd, masks, keep, rows=None):
    """The per-head kernel of :func:`attention` on laid-out operands: its output, weights and the
    map from the output's gradient to those of qd, kd and vd. Row (i, ...) is named (rows[i], ...)."""
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
    out = np.empty((*lead, n, heads * d_v))
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
            if rows is not None:
                row = (int(rows[row[0]]), *row[1:])
            raise DegenerateRowError(f"attention head {h}: every key of row {row} is masked")
        p -= row_max
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p if keep is None else p * keep[h], vd[..., vh], out=out[..., vh])

    def grads(g):
        dq = np.empty((*lead, n, qd.shape[-1]))
        dk = np.empty((*lead, m, kd.shape[-1]))
        dv = np.empty((*lead, m, vd.shape[-1]))
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


def _tiered(q, k, v, masks, keep, valid, tiers):
    """:func:`attention` on packed rows with each tier laid out at its own width, one after another.

    ``at`` permutes the packed rows, so unlike :func:`_padded` no reshape stands in for a scatter."""
    heads, (b, n) = len(masks), valid.shape
    if keep is not None and keep.shape != (heads, b, n, n):
        raise ShapeMismatchError(f"attention keep shape {keep.shape} vs weights {(heads, b, n, n)}")
    try:
        blocks = {id(m): np.broadcast_to(m, (b, n, n)) for m in masks}
    except ValueError as exc:
        raise ShapeMismatchError(f"attention masks {[np.shape(m) for m in masks]} vs {(b, n, n)}") from exc
    lengths = valid.sum(axis=1)
    shapes = [(len(rows), int(lengths[rows].max())) for rows in tiers]
    stops = np.cumsum([count * width for count, width in shapes])
    first = np.empty(b, dtype=np.intp)  # each batch row's first position in the layout
    for rows, (count, width), stop in zip(tiers, shapes, stops):
        first[rows] = stop - width * np.arange(count, 0, -1)
    at = (first[:, None] + np.arange(n))[valid]

    def laid_out(rows):
        if rows.ndim != 2 or rows.shape[0] != at.size:
            raise ShapeMismatchError(f"packed rows {rows.shape} do not fill the {at.size} valid positions")
        out = np.zeros((int(stops[-1]), rows.shape[1]))
        out[at] = rows
        return out

    qd, kd, vd = (laid_out(t.data) for t in (q, k, v))
    weights = np.zeros((heads, b, n, n))
    outs, parts = [], []
    for rows, (count, width), stop in zip(tiers, shapes, stops):
        span = slice(stop - count * width, stop)
        sliced = {key: block[rows, :width, :width] for key, block in blocks.items()}
        out, tier_weights, grads = _heads(
            *(a[span].reshape(count, width, -1) for a in (qd, kd, vd)),
            [sliced[id(m)] for m in masks],
            None if keep is None else keep[:, rows, :width, :width],
            rows,
        )
        weights[:, rows, :width, :width] = tier_weights
        outs.append(out.reshape(-1, out.shape[-1]))
        parts.append((span, out.shape, grads))

    def backward(g):
        g = laid_out(g)
        tier_grads = [grads(g[span].reshape(shape)) for span, shape, grads in parts]
        for i, t in enumerate((q, k, v)):
            laid_out_grad = np.concatenate([d[i].reshape(-1, d[i].shape[-1]) for d in tier_grads])
            _accumulate(t, laid_out_grad.take(at, axis=0))

    return _record(Tensor(np.concatenate(outs).take(at, axis=0)), (q, k, v), backward), weights


def _padded(rows: np.ndarray, at: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(T, c) ``rows`` at flat positions ``at`` of a zeroed (*shape, c) array; a reshape if ``at`` is all."""
    if rows.ndim != 2 or rows.shape[0] != at.size:
        raise ShapeMismatchError(f"packed rows {rows.shape} do not fill the {at.size} valid positions")
    if at.size == math.prod(shape):
        return rows.reshape(*shape, rows.shape[1])
    out = np.zeros((math.prod(shape), rows.shape[1]))
    out[at] = rows
    return out.reshape(*shape, rows.shape[1])


def _packed(padded: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The (T, c) rows at flat positions ``at`` of (..., c) ``padded``; a reshape if ``at`` is all."""
    flat = padded.reshape(-1, padded.shape[-1])
    return flat if at.size == flat.shape[0] else flat.take(at, axis=0)


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


def dropout_keep(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator | None
) -> np.ndarray | None:
    """Inverted-dropout multiplier (0 or ``1 / (1 - rate)``) for a tensor of ``shape``.

    Returns None, and draws nothing, when rate == 0; otherwise draws exactly
    ``prod(shape)`` uniforms from ``rng``.
    """
    if rate == 0.0:
        return None
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatchError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ShapeMismatchError("dropout with rate > 0 needs a random generator")
    return (rng.random(tuple(shape)) >= rate) / (1.0 - rate)


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
