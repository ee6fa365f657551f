"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (loops, sorting, set scans, one
autodiff op at a time) and kept separate from the library code paths it
checks.
"""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

import guided_attention.autodiff as ad
from guided_attention.attention import multi_head
from guided_attention.autodiff import Tensor
from guided_attention.corpus import Sentence, Token, truncate
from guided_attention.errors import DegenerateRowError, ShapeMismatchError
from guided_attention.model import sinusoidal_encoding

NEG_INF = float("-inf")

# Hand-counted token counts of tests/fixtures/twenty.conllu, by sent_id.
TWENTY_TOKEN_COUNTS = {
    "s01": 3, "s02": 6, "s03": 5, "s04": 4, "s05": 2,
    "s06": 7, "s07": 8, "s08": 1, "s09": 6, "s10": 7,
    "s11": 6, "s12": 7, "s13": 8, "s14": 5, "s15": 11,
    "s16": 6, "s17": 7, "s18": 8, "s19": 10, "s20": 8,
}


def matmul_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def softmax_rows_naive(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for i, row in enumerate(x):
        finite = [v for v in row if math.isfinite(v)]
        assert finite, f"row {i} fully masked"
        m = max(finite)
        exps = [math.exp(v - m) if math.isfinite(v) else 0.0 for v in row]
        s = sum(exps)
        out[i] = [e / s for e in exps]
    return out


def layer_norm_naive(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    out_flat = out.reshape(-1, x.shape[-1])
    for i, row in enumerate(flat):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out_flat[i] = [(v - mu) / math.sqrt(var + eps) * g + b for v, g, b in zip(row, gain, bias)]
    return out


def attention_naive(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None = None):
    """Per-row restricted softmax over allowed keys, then weighted average."""
    n, d_k = q.shape
    m, _ = k.shape
    weights = np.zeros((n, m))
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = []
        for j in range(m):
            if mask is not None and mask[i, j] == NEG_INF:
                scores.append(NEG_INF)
            else:
                scores.append(sum(q[i, t] * k[j, t] for t in range(d_k)) / math.sqrt(d_k))
        allowed = [j for j, s in enumerate(scores) if math.isfinite(s)]
        assert allowed, f"query {i} has no allowed keys"
        top = max(scores[j] for j in allowed)
        exps = {j: math.exp(scores[j] - top) for j in allowed}
        z = sum(exps.values())
        for j in allowed:
            weights[i, j] = exps[j] / z
        for j in allowed:
            out[i] += weights[i, j] * v[j]
    return out, weights


# ---------------------------------------------------------------------------
# Autodiff ops that only the tests use
# ---------------------------------------------------------------------------


def softmax_rows(x) -> Tensor:
    """Row-wise softmax over the last axis with exact ``-inf`` handling, on the tape.

    The reference for ``autodiff.attention``'s weights. The stabilizing row
    maximum is taken over finite entries only, so masked (``-inf``) entries
    map to exactly 0. A row with no finite entry raises
    :class:`DegenerateRowError`.
    """
    x = ad.as_tensor(x)
    data = x.data
    finite = np.isfinite(data)
    row_max = np.max(data, axis=-1, keepdims=True, initial=NEG_INF, where=finite)
    if not np.all(np.isfinite(row_max)):
        bad = np.argwhere(~np.isfinite(row_max[..., 0]))
        raise DegenerateRowError(f"softmax row(s) with all entries masked at index {tuple(bad[0])}")
    exps = np.exp(data - row_max)
    y = exps / exps.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        ad._accumulate(x, y * (g - inner))

    return ad._record(Tensor(y), (x,), backward)


def heads_per_head(qd, kd, vd, masks, keep, rows, out=None):
    """``autodiff._heads`` one head at a time: the bitwise reference for its output, weights and gradients.

    Each head runs its own matmuls on column slices of the packed operands and
    its own softmax on its (..., n, m) block of the weights.
    """
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
            i, j = (int(i) for i in np.argwhere(closed)[0])
            raise DegenerateRowError(f"attention head {h}: every key of row {(int(rows[i]), j)} is masked")
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


def spread_weights(plan, blocks) -> np.ndarray:
    """The (H, B, n, n) grid of a planned ``autodiff.attention`` call's per-tier weight ``blocks``, 0 outside them."""
    b, n, heads = plan.lengths.size, int(plan.lengths.max()), blocks[0].shape[0]
    weights = np.zeros((heads, b, n, n))
    for tier, block in zip(plan.tiers, blocks, strict=True):
        weights[:, tier.rows, :tier.width, :tier.width] = block
    return weights


def cut_keep(plan, keep: np.ndarray | None):
    """A ``drop`` for a planned ``autodiff.attention`` call: it hands out the per-tier cuts of an (H, B, n, n)
    ``keep``, one a call, in tier order. None for a None ``keep``."""
    if keep is None:
        return None
    cuts = iter([keep[:, tier.rows, :tier.width, :tier.width] for tier in plan.tiers])
    return lambda shape: next(cuts)


def square_plan(*blocks: np.ndarray) -> ad.Plan:
    """The all-valid, lone-tier plan of boolean (n, n) or (B, n, n) head ``blocks``, B from the blocks.

    Its packed rows are those of (B, n, ·) operands, row after row: one sentence's
    (n, ·) operands as they are, and a (B, n, ·) batch's as its (B·n, ·) reshape.
    Equal lengths are one tier, so the plan cuts no block. One sentence's plan is
    README's recipe, ``Plan.build([n], blocks)``.
    """
    shape = np.broadcast_shapes(*(block.shape for block in blocks))
    lengths = [shape[-1]] * (shape[0] if len(shape) == 3 else 1)
    return ad.Plan.build(lengths, list(blocks))


def tensor_sum(x) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = ad.as_tensor(x)

    def backward(g):
        ad._accumulate(x, np.broadcast_to(g, x.shape))

    return ad._record(Tensor(x.data.sum()), (x,), backward)


def transpose_last(x) -> Tensor:
    """Swap the last two axes."""
    x = ad.as_tensor(x)

    def backward(g):
        ad._accumulate(x, np.swapaxes(g, -1, -2))

    return ad._record(Tensor(np.swapaxes(x.data, -1, -2)), (x,), backward)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    """``x`` in another shape of the same entries, such as (B, n, d) activations as (B·n, d) rows."""
    x = ad.as_tensor(x)

    def backward(g):
        ad._accumulate(x, g.reshape(x.shape))

    return ad._record(Tensor(x.data.reshape(shape)), (x,), backward)


def concat_last(tensors) -> Tensor:
    """Concatenate along the last axis."""
    tensors = [ad.as_tensor(t) for t in tensors]
    splits = np.cumsum([t.shape[-1] for t in tensors])[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, splits, axis=-1)):
            ad._accumulate(t, part)

    return ad._record(Tensor(np.concatenate([t.data for t in tensors], axis=-1)), tuple(tensors), backward)


def dropout_keep(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout multiplier (0 or ``1 / (1 - rate)``) for a tensor of ``shape``.

    Returns None, and draws nothing, when rate == 0; otherwise draws exactly
    ``prod(shape)`` uniforms from ``rng``: the draws, one tensor at a time,
    that a training pass of ``model.forward_stages`` must reproduce.
    """
    if rate == 0.0:
        return None
    return (rng.random(tuple(shape)) >= rate) / (1.0 - rate)


def dropout(x, rate: float, rng) -> Tensor:
    """Inverted dropout with the multiplier of :func:`dropout_keep`; identity when rate == 0."""
    x = ad.as_tensor(x)
    keep = dropout_keep(x.shape, rate, rng)
    if keep is None:
        return x

    def backward(g):
        ad._accumulate(x, g * keep)

    return ad._record(Tensor(x.data * keep), (x,), backward)


def masked_mean(x, valid: np.ndarray) -> Tensor:
    """Mean of ``x`` over axis -2, restricted to rows where ``valid`` is 1.

    ``x`` is (..., n, d) and ``valid`` (..., n) with at least one 1 per row set:
    the pooling of padded activations that ``autodiff.packed_mean`` replaced.
    """
    x = ad.as_tensor(x)
    valid = np.asarray(valid, dtype=np.float64)
    counts = valid.sum(axis=-1, keepdims=True)
    assert valid.shape == x.shape[:-1] and np.all(counts > 0)

    def backward(g):
        ad._accumulate(x, g[..., None, :] * valid[..., None] / counts[..., None])

    return ad._record(Tensor((x.data * valid[..., None]).sum(axis=-2) / counts), (x,), backward)


def multi_head_per_head(x, wq, wk, wv, wo, masks, dropout_rate=0.0, rng=None):
    """The guided multi-head layer composed head by head from autodiff primitives.

    Head ``h`` projects ``x`` with its own matrices ``wq[h]``, ``wk[h]`` and
    ``wv[h]`` and runs matmul, transpose, add ``masks[h]``, scale,
    ``softmax_rows``, dropout and a matmul with V, on
    the tape one op at a time; the concatenated heads are projected by ``wo``.
    """
    outputs = []
    for h, mask in enumerate(masks):
        q = ad.matmul(x, wq[h])
        k = ad.matmul(x, wk[h])
        v = ad.matmul(x, wv[h])
        scores = ad.add(ad.matmul(q, transpose_last(k)), Tensor(mask))
        attn = softmax_rows(ad.mul(scores, 1.0 / math.sqrt(q.shape[-1])))
        if dropout_rate > 0.0:
            attn = dropout(attn, dropout_rate, rng)
        outputs.append(ad.matmul(attn, v))
    return ad.matmul(concat_last(outputs), wo)


def tier_plan(lengths) -> tuple[np.ndarray, ...]:
    """The batch rows of each tier ``autodiff.Plan.build`` lays out for ``lengths``, by a search over every cut.

    The rows, sorted by length stably, are cut into at most three tiers ``[0, i)``, ``[i, j)`` and ``[j, B)``,
    the empty ones dropped, at the first (i, j) in row-major order that minimises Σ B_t·n_t² +
    ``ad.TIER_CELLS`` per tier. A lone tier is ``np.arange(B)``, the whole batch in batch order. This
    O(B²) search over every cut is the reference for the plan's, which seeks cuts only where the sorted
    length changes.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    b, top = len(lengths), int(lengths.max()) ** 2
    if b * top - int(lengths @ lengths) <= ad.TIER_CELLS:
        return (np.arange(b),)
    order = np.argsort(lengths, kind="stable")
    square = lengths[order] ** 2
    i, j = np.triu_indices(b + 1)
    i, j = i[i > 0], j[i > 0]
    cost = i * square[i - 1] + (j - i) * square[j - 1] + (b - j) * top + ad.TIER_CELLS * (1 + (j > i) + (j < b))
    best = int(np.argmin(cost))
    tiers = tuple(part for part in np.split(order, [i[best], j[best]]) if part.size)
    return tiers if len(tiers) > 1 else (np.arange(b),)


def tier_cost_bruteforce(lengths, tier_cells: int) -> int:
    """Least Σ B_t·n_t² + ``tier_cells`` per tier over every cut of the sorted lengths into 1 to 3 tiers."""
    ordered = sorted(lengths)
    b = len(ordered)

    def cost(cuts):
        bounds = [0, *cuts, b]
        return sum((hi - lo) * ordered[hi - 1] ** 2 + tier_cells for lo, hi in zip(bounds, bounds[1:]))

    return min(cost(cuts) for cuts in [(), *[(i,) for i in range(1, b)],
                                       *[(i, j) for i in range(1, b) for j in range(i + 1, b)]])


def forward_padded(batch, params, cfg, rng=None, training=False) -> Tensor:
    """Class scores of ``model.forward_batch`` with every stage on padded (B, n, ·) activations.

    n is the batch's longest sentence. Padded positions carry the pad id's
    embedding through every layer. Attention takes every position as a row
    of an all-valid :func:`square_plan`, but a padded key column is closed
    in every block, and the pooling skips padded positions. Dropout draws
    from ``rng`` one block at a time with :func:`dropout_keep`, per layer one
    ``(H, count, width, width)`` block per tier of :func:`tier_plan`, then one
    ``(T, ff_width)`` block of the valid tokens' feed-forward units, and
    scatters them into ``(H, B, n, n)`` and ``(B, n, ff_width)`` grids, with
    zeros at every cell the packed pass does not compute.
    """
    n = int(batch.lengths.max())
    valid = np.arange(n) < batch.lengths[:, None]
    key_row = valid[:, None, :]
    blocks = {**batch.allowed, "padding": key_row}
    plan = square_plan(*[blocks[role] for role in cfg.guided_roles], *[key_row] * cfg.extra_regular_heads)
    tok = ad.embedding(params["embed.token"], batch.token_ids[:, :n])
    x = ad.add(ad.mul(tok, math.sqrt(cfg.d_model)), Tensor(sinusoidal_encoding(n, cfg.d_model)))
    rate = cfg.dropout if training else 0.0
    for i in range(cfg.layers):
        p = {name: params[f"layer{i}.{name}"] for name in (
            "attn.wq", "attn.wk", "attn.wv", "attn.wo", "norm1.gain", "norm1.bias",
            "ff.w1", "ff.b1", "ff.w2", "ff.b2", "norm2.gain", "norm2.bias",
        )}
        attn_keep = ff_keep = None
        if rate > 0.0:
            attn_keep, ff_keep = np.zeros((cfg.heads, *valid.shape, n)), np.zeros((*valid.shape, cfg.ff_width))
            for rows in tier_plan(batch.lengths):
                width = int(batch.lengths[rows].max())
                attn_keep[:, rows, :width, :width] = dropout_keep((cfg.heads, len(rows), width, width), rate, rng)
            ff_keep[valid] = dropout_keep((int(valid.sum()), cfg.ff_width), rate, rng)
        projections = (p["attn.wq"], p["attn.wk"], p["attn.wv"], p["attn.wo"])
        rows, _ = multi_head(reshape(x, (-1, cfg.d_model)), *projections, plan, cut_keep(plan, attn_keep))
        attn_out = reshape(rows, x.shape)
        x = ad.layer_norm(ad.add(x, attn_out), p["norm1.gain"], p["norm1.bias"])
        hidden = ad.relu(ad.add(ad.matmul(x, p["ff.w1"]), p["ff.b1"]))
        if ff_keep is not None:
            hidden = ad.mul(hidden, ff_keep)
        ff_out = ad.add(ad.matmul(hidden, p["ff.w2"]), p["ff.b2"])
        x = ad.layer_norm(ad.add(x, ff_out), p["norm2.gain"], p["norm2.bias"])
    pooled = masked_mean(x, valid)
    return ad.add(ad.matmul(pooled, params["classifier.w"]), params["classifier.b"])


def format_config(cfg) -> str:
    """Render a ``ModelConfig`` in the ``key = value`` format that ``model.parse_config`` reads."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "guided_roles":
            value = ", ".join(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def layer_norm_mean_var(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """``autodiff.layer_norm`` written with ``np.mean`` and ``np.var``, which centre each row twice."""
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    d = x.shape[-1]
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * x_hat).mean(axis=-1, keepdims=True)
            ad._accumulate(x, (gy - m1 - x_hat * m2) * inv_std)
        if gain.requires_grad:
            ad._accumulate(gain, (g * x_hat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            ad._accumulate(bias, g.reshape(-1, d).sum(axis=0))

    return ad._record(Tensor(x_hat * gain.data + bias.data), (x, gain, bias), backward)


class AdamPerTensor:
    """Adam updated one tensor at a time, each with its own moment arrays."""

    def __init__(self, params: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def finite_difference_grad(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of scalar f(arrays) w.r.t. each array entry."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            if not math.isfinite(original):
                continue  # masked entries carry no gradient
            flat[idx] = original + h
            up = f()
            flat[idx] = original - h
            down = f()
            flat[idx] = original
            grad_flat[idx] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Mask constructors (brute force)
# ---------------------------------------------------------------------------


def idf(vocab, form: str) -> float:
    """Inverse document frequency of ``form``; an unseen form counts as in one document."""
    return math.log(vocab.total_docs / vocab.df(form))


def rare_columns_bruteforce(sentence, vocab) -> set[int]:
    """Exhaustive sort by (idf desc, position asc), take ceil(10%) with k >= 1."""
    n = len(sentence)
    k = max(1, math.ceil(0.10 * n))
    ranked = sorted(
        [(-idf(vocab, t.form), i) for i, t in enumerate(sentence.tokens)]
    )
    return {i for _, i in ranked[:k]}


def separator_columns_bruteforce(sentence) -> set[int]:
    seps = {",", ";", ".", "?", "!", "[SEP]", "[START]", "[END]"}
    return {i for i, t in enumerate(sentence.tokens) if t.form in seps}


def edge_pairs_bruteforce(sentence, relations: set[str] | None = None) -> set[tuple[int, int]]:
    """Symmetrized 0-based dependency pairs from the head fields."""
    pairs = set()
    for t in sentence.tokens:
        if t.head is None or t.head == 0:
            continue
        if relations is not None and t.deprel not in relations:
            continue
        pairs.add((t.index - 1, t.head - 1))
        pairs.add((t.head - 1, t.index - 1))
    return pairs


def tridiagonal_pairs(n: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(n) for j in range(n) if abs(i - j) <= 1}


def columns_to_pairs(columns: set[int], n: int, fallback_diagonal: bool = True) -> set[tuple[int, int]]:
    """Column-constant zero set; diagonal fallback when no column is open."""
    if not columns and fallback_diagonal:
        return {(i, i) for i in range(n)}
    return {(i, j) for i in range(n) for j in columns}


def pairs_with_fallback(pairs: set[tuple[int, int]], n: int) -> set[tuple[int, int]]:
    out = set(pairs)
    for i in range(n):
        if not any(p[0] == i for p in out):
            out.add((i, i))
    return out


def mask_open_pairs(allowed: np.ndarray) -> set[tuple[int, int]]:
    """The 0-based (query, key) pairs of a boolean mask's True entries."""
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(allowed))}


# ---------------------------------------------------------------------------
# Batches with masks built one sentence at a time
# ---------------------------------------------------------------------------


def role_mask_per_sentence(role: str, sentence, vocab) -> np.ndarray:
    """One role's (n, n) {0, -inf} mask at the sentence's length, pair by pair.

    Every valid row left with no open key then gets its diagonal, as the
    diagonal fallback does.
    """
    n = len(sentence)
    if role == "rarew":
        pairs = columns_to_pairs(rare_columns_bruteforce(sentence, vocab), n, fallback_diagonal=False)
    elif role == "seprat":
        pairs = columns_to_pairs(separator_columns_bruteforce(sentence), n, fallback_diagonal=False)
    elif role == "depsyn":
        pairs = edge_pairs_bruteforce(sentence)
    elif role == "majrel":
        pairs = edge_pairs_bruteforce(sentence, {"nsubj", "dobj", "obj", "amod", "advmod"})
    elif role == "relpos":
        pairs = tridiagonal_pairs(n)
    else:
        assert role == "padding", role
        pairs = {(i, j) for i in range(n) for j in range(n)}
    values = np.full((n, n), NEG_INF)
    for i, j in pairs_with_fallback(pairs, n):
        values[i, j] = 0.0
    return values


def make_batches_per_sentence(sentences, vocab, batch_size, max_len, roles, seed=0, shuffle=True, labels=None):
    """``make_batches`` with each sentence's masks built on their own.

    Each batch is a namespace with the arrays a ``corpus.Batch`` exposes,
    the masks in their float-grid layout: the padding grid opens the valid
    key columns on every row, and each role grid is a copy of it with the
    sentence's :func:`role_mask_per_sentence` written into its top-left block.
    """
    order = np.random.default_rng(seed).permutation(len(sentences)) if shuffle else range(len(sentences))
    kept = [truncate(sentences[i], max_len) for i in order]
    batches = []
    for start in range(0, len(kept), batch_size):
        chunk = kept[start : start + batch_size]
        lengths = np.array([len(s) for s in chunk], dtype=np.int64)
        ids = np.zeros((len(chunk), max_len), dtype=np.int64)
        label_arr = np.full(len(chunk), -1, dtype=np.int64)
        pad = np.full((len(chunk), max_len, max_len), NEG_INF)
        for row, n in enumerate(lengths):
            pad[row, :, :n] = 0.0
        role_masks = {role: pad.copy() for role in roles}
        for row, sentence in enumerate(chunk):
            n = len(sentence)
            ids[row, :n] = [vocab.id(t.form) for t in sentence.tokens]
            if labels is not None and sentence.label is not None:
                label_arr[row] = labels[sentence.label]
            for role in roles:
                role_masks[role][row, :n, :n] = role_mask_per_sentence(role, sentence, vocab)
        sent_ids = [s.sent_id or str(start + row) for row, s in enumerate(chunk)]
        batches.append(
            SimpleNamespace(
                token_ids=ids, lengths=lengths, labels=label_arr, sent_ids=sent_ids,
                role_masks=role_masks, pad_mask=pad,
            )
        )
    return batches


# ---------------------------------------------------------------------------
# Random sentences and the mask dump format
# ---------------------------------------------------------------------------

DEPRELS = ["nsubj", "obj", "dobj", "amod", "advmod", "det", "case", "root", None]


@st.composite
def sentences(draw, forms, max_tokens):
    """A sentence of random forms: unparsed, or a random tree with random relations."""
    n = draw(st.integers(1, max_tokens))
    words = draw(st.lists(st.sampled_from(forms), min_size=n, max_size=n))
    heads = [None] * n
    deprels = [None] * n
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        heads[order[0] - 1] = 0
        for k in range(1, n):
            heads[order[k] - 1] = order[draw(st.integers(0, k - 1))]
        deprels = draw(st.lists(st.sampled_from(DEPRELS), min_size=n, max_size=n))
    label = draw(st.sampled_from(["pos", "neg", None]))
    return Sentence(
        [Token(f, i + 1, h, d) for i, (f, h, d) in enumerate(zip(words, heads, deprels))],
        label=label,
        sent_id=draw(st.sampled_from([None, "x", "y"])),
    )


def parse_dump(text: str) -> list[tuple[str, str, int, list[tuple[int, int]]]]:
    """Inverse of ``masks.dump_record`` over a concatenated dump file."""
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
