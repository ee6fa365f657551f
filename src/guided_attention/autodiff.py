"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is computed at 64-bit precision on CPU. A fresh computation
graph is recorded per forward pass; calling :func:`backward` on a scalar
loss walks it once in reverse topological order and accumulates gradients
into every reachable tensor that has ``requires_grad`` set.

The only non-finite value that may legally appear in a forward pass is
``-inf``, introduced by additive attention masks. :func:`softmax_rows`
maps ``-inf`` entries to exactly 0, which in turn makes the gradient
through masked positions exactly 0.
"""

from __future__ import annotations

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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


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


def transpose_last(x) -> Tensor:
    """Swap the last two axes."""
    x = as_tensor(x)
    out = Tensor(np.swapaxes(x.data, -1, -2))

    def backward(g):
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _record(out, (x,), backward)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax over the last axis with exact ``-inf`` handling.

    The stabilizing row maximum is taken over finite entries only, so masked
    (``-inf``) entries map to exactly 0. A row with no finite entry is a
    caller bug (a mask without fallback) and raises :class:`DegenerateRowError`
    rather than producing NaN.
    """
    x = as_tensor(x)
    data = x.data
    finite = np.isfinite(data)
    row_max = np.max(data, axis=-1, keepdims=True, initial=NEG_INF, where=finite)
    if not np.all(np.isfinite(row_max)):
        bad = np.argwhere(~np.isfinite(row_max[..., 0]))
        raise DegenerateRowError(f"softmax row(s) with all entries masked at index {tuple(bad[0])}")
    exps = np.exp(data - row_max)
    y = exps / exps.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - inner))

    return _record(out, (x,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out = Tensor(x_hat * gain.data + bias.data)

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * x_hat).mean(axis=-1, keepdims=True)
            _accumulate(x, (gy - m1 - x_hat * m2) * inv_std)
        if gain.requires_grad:
            _accumulate(gain, (g * x_hat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))

    return _record(out, (x, gain, bias), backward)


def concat_last(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1))
    widths = [t.shape[-1] for t in tensors]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, splits, axis=-1)):
            _accumulate(t, part)

    return _record(out, tuple(tensors), backward)


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


def dropout(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity (no RNG draw) when rate == 0."""
    if rate == 0.0:
        return as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatchError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ShapeMismatchError("dropout with rate > 0 needs a random generator")
    x = as_tensor(x)
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep)

    def backward(g):
        _accumulate(x, g * keep)

    return _record(out, (x,), backward)


def tensor_sum(x) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = as_tensor(x)
    out = Tensor(x.data.sum())

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.shape))

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
