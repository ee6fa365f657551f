"""The guided multi-head attention layer.

A guided head adds its role mask to the raw attention scores before the
softmax, ``softmax((Q Kᵀ + M) / sqrt(d_k)) V``; because mask entries are 0 or
``-inf`` this is numerically identical to masking after the scaling. Regular
heads receive the padding mask only, as one row that closes the padded key
columns. Heads differ only in their masks: each of Q, K and V is one packed
projection with the heads side by side along its last axis, and all heads
of a layer are computed by one ``autodiff.attention`` node. Per-head
attention weights are returned alongside outputs so mask support can be
checked directly.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Plan, Tensor

# What a tier costs ``autodiff.attention`` beyond its score cells, in cells. Timing
# the node's forward and backward passes (H = 6, d_k = 8) gave about 270-370 µs
# per call and 0.14 µs per score cell (B·n²): a tier breaks even once it saves
# some 2000-2900 cells.
TIER_CELLS = 3000


def tier_plan(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """The batch rows of each attention tier for sentences of ``lengths``.

    The rows, sorted by length stably, are cut into at most three tiers that
    minimise Σ B_t·n_t² + ``TIER_CELLS`` per tier, tier t holding B_t rows of
    at most n_t tokens, in length order. A lone tier, computed as the whole
    batch, may list its rows in any order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    b, top = len(lengths), int(lengths.max()) ** 2
    # No split computes fewer than Σ l² cells, and any split adds a tier.
    if b * top - int(lengths @ lengths) <= TIER_CELLS:
        return (np.arange(b),)
    order = np.argsort(lengths, kind="stable")
    square = lengths[order] ** 2
    i, j = np.triu_indices(b + 1)
    i, j = i[i > 0], j[i > 0]  # tiers [0, i), [i, j) and [j, b), the empty ones dropped
    cost = i * square[i - 1] + (j - i) * square[j - 1] + (b - j) * top + TIER_CELLS * (1 + (j > i) + (j < b))
    best = int(np.argmin(cost))
    return tuple(part for part in np.split(order, [i[best], j[best]]) if part.size)


def multi_head(
    x,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    masks: list[np.ndarray],
    keep: np.ndarray | None = None,
    plan: Plan | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Guided multi-head self-attention over ``x`` of shape (..., n, d_model).

    ``wq``, ``wk`` and ``wv`` are (d_model, H·d_k) with head ``h`` in columns
    ``h·d_k`` to ``(h+1)·d_k``; ``wo`` is (H·d_k, d_model). ``masks`` holds one
    additive {0, -inf} mask per head, broadcastable to (..., n, n): a guided
    head's role block (see ``model.forward_stages``), or the (..., 1, n) row
    of valid key columns for a regular head. ``keep``, an (H, ..., n, n)
    inverted-dropout multiplier, scales the weights before they meet V; the
    layer draws nothing. Returns the layer output and the (H, ..., n, n)
    attention weights before dropout, off the tape.

    With an ``autodiff.Plan`` of a (B, n) batch, built from these ``masks``,
    ``x`` and the output are packed rows instead, computed per tier (see
    ``autodiff.attention``). ``keep`` and the weights stay
    (H, B, n, n); each row's weights outside its tier's block are 0.
    """
    q, k, v = ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv)
    out, weights = ad.attention(q, k, v, masks, keep, plan)
    return ad.matmul(out, wo), weights
