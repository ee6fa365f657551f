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


def attention(q, k, v, masks, keep: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Masked scaled dot-product attention of H heads, as one tape node.

    ``q`` is (..., n, H·d_k), ``k`` (..., m, H·d_k) and ``v`` (..., m, H·d_v),
    with the heads packed along the last axis, and ``masks`` holds one
    additive {0, -inf} mask per head, each broadcastable to (..., n, m).
    Head ``h`` computes ``softmax((Q_h K_hᵀ + masks[h]) / sqrt(d_k)) V_h``
    over the last axis; ``keep``, an (H, ..., n, m) multiplier from
    :func:`dropout_keep`, scales the weights before they meet ``V_h``.

    Returns the head outputs concatenated along the last axis, (..., n, H·d_v),
    and the (H, ..., n, m) weights before dropout, which are not on the tape.

    The weights are computed in place as ``p = Q_h K_hᵀ · scale + masks[h]``,
    ``p -= row_max``, ``exp`` and normalisation: an open entry minus the row
    maximum is at most 0, and a masked entry is ``-inf`` whatever its finite
    score, so ``exp`` maps it to exactly 0 without overflow. A row whose
    maximum is ``-inf`` (every key masked) raises :class:`DegenerateRowError`
    naming the head and the row; a row holding a NaN or +inf score, open or
    masked, comes out entirely NaN.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    heads = len(masks)
    if heads < 1 or q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeMismatchError("attention needs at least one mask and operands of >=2-D")
    if q.shape[-1] != k.shape[-1] or q.shape[-1] % heads or v.shape[-1] % heads:
        raise ShapeMismatchError(
            f"attention cannot split query/key/value {q.shape}, {k.shape}, {v.shape} into {heads} heads"
        )
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatchError(f"key/value length mismatch: {k.shape} vs {v.shape}")
    try:
        lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError as exc:
        raise ShapeMismatchError(f"attention cannot broadcast {q.shape}, {k.shape}, {v.shape}") from exc
    d_k, d_v = q.shape[-1] // heads, v.shape[-1] // heads
    n, m = q.shape[-2], k.shape[-2]
    if keep is not None and keep.shape != (heads, *lead, n, m):
        raise ShapeMismatchError(f"attention keep shape {keep.shape} vs weights {(heads, *lead, n, m)}")
    scale = 1.0 / math.sqrt(d_k)
    weights = np.empty((heads, *lead, n, m))
    out = np.empty((*lead, n, heads * d_v))
    for h in range(heads):
        qk, vh = slice(h * d_k, (h + 1) * d_k), slice(h * d_v, (h + 1) * d_v)
        p = weights[h]
        np.matmul(q.data[..., qk], np.swapaxes(k.data[..., qk], -1, -2), out=p)
        p *= scale  # for a {0, -inf} mask, p + mask equals (QKᵀ + M) * scale
        try:
            p += masks[h]
        except ValueError as exc:
            raise ShapeMismatchError(f"mask shape {np.shape(masks[h])} does not broadcast to {p.shape}") from exc
        row_max = p.max(axis=-1, keepdims=True)
        closed = row_max[..., 0] == NEG_INF  # not row_max.min(): a NaN row would hide this one
        if closed.any():
            row = tuple(int(i) for i in np.argwhere(closed)[0])
            raise DegenerateRowError(f"attention head {h}: every key of row {row} is masked")
        p -= row_max
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p if keep is None else p * keep[h], v.data[..., vh], out=out[..., vh])

    def backward(g):
        dq = np.empty((*lead, n, q.shape[-1]))
        dk = np.empty((*lead, m, k.shape[-1]))
        dv = np.empty((*lead, m, v.shape[-1]))
        for h in range(heads):
            qk, vh = slice(h * d_k, (h + 1) * d_k), slice(h * d_v, (h + 1) * d_v)
            p, g_h = weights[h], g[..., vh]
            np.matmul(np.swapaxes(p if keep is None else p * keep[h], -1, -2), g_h, out=dv[..., vh])
            dp = g_h @ np.swapaxes(v.data[..., vh], -1, -2)
            if keep is not None:
                dp *= keep[h]
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            np.matmul(ds, k.data[..., qk], out=dq[..., qk])
            np.matmul(np.swapaxes(ds, -1, -2), q.data[..., qk], out=dk[..., qk])
        _accumulate(q, dq)
        _accumulate(k, dk)
        _accumulate(v, dv)

    return _record(Tensor(out), (q, k, v), backward), weights


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


def masked_mean(x, valid: np.ndarray) -> Tensor:
    """Mean of ``x`` over axis -2, restricted to rows where ``valid`` is 1.

    ``x`` is (..., n, d) and ``valid`` (..., n) with at least one 1 per row set.
    """
    x = as_tensor(x)
    valid = np.asarray(valid, dtype=np.float64)
    if valid.shape != x.shape[:-1]:
        raise ShapeMismatchError(f"masked_mean valid shape {valid.shape} vs x {x.shape}")
    counts = valid.sum(axis=-1, keepdims=True)
    if np.any(counts == 0):
        raise ShapeMismatchError("masked_mean: an example has no valid positions")
    out = Tensor((x.data * valid[..., None]).sum(axis=-2) / counts)

    def backward(g):
        _accumulate(x, g[..., None, :] * valid[..., None] / counts[..., None])

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


def dropout(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with the multiplier of :func:`dropout_keep`; identity when rate == 0."""
    x = as_tensor(x)
    keep = dropout_keep(x.shape, rate, rng)
    if keep is None:
        return x
    out = Tensor(x.data * keep)

    def backward(g):
        _accumulate(x, g * keep)

    return _record(out, (x,), backward)


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
