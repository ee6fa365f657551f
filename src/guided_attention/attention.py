"""The guided multi-head attention layer.

A guided head adds its role mask to the raw attention scores before the
softmax, ``softmax((Q Kᵀ + M) / sqrt(d_k)) V``; because mask entries are 0 or
``-inf`` this is numerically identical to masking after the scaling. A mask
is a boolean block until the batch's ``autodiff.Plan`` makes it additive.
Regular heads receive the padding mask only, as one row that closes the
padded key columns. Heads differ only in their masks: each of Q, K and V is
one packed projection with the heads side by side along its last axis, and
all heads of a layer are computed together by one ``autodiff.attention``
node, which returns the read-only weights of every head alongside the
outputs, so mask support can be checked directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Plan, Tensor

# What a tier costs ``autodiff.attention`` beyond its score cells, in cells. Timing
# the node's forward and backward passes (H = 6, d_k = 8) gave about 70-100 µs per
# call and 0.12-0.15 µs per score cell (B·n²): a tier breaks even at 500-800 cells.
# Tier widths move the rounding of softmax sums: a new value needs a paired-seed study.
TIER_CELLS = 3000


def tier_plan(lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """The batch rows of each attention tier for sentences of ``lengths``.

    The rows, sorted by length stably, are cut into at most three tiers that
    minimise Σ B_t·n_t² + ``TIER_CELLS`` per tier, tier t holding B_t rows of
    at most n_t tokens, in length order. A lone tier is ``np.arange(B)``, the
    whole batch in batch order, of which ``autodiff.Plan.build`` cuts nothing.
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
    tiers = tuple(part for part in np.split(order, [i[best], j[best]]) if part.size)
    return tiers if len(tiers) > 1 else (np.arange(b),)


def multi_head(
    x, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, plan: Plan, keep: Sequence[np.ndarray] | None = None
) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """Guided multi-head self-attention over the packed (T, d_model) rows ``x`` of a batch.

    ``wq``, ``wk`` and ``wv`` are (d_model, H·d_k) with head ``h`` in columns ``h·d_k`` to
    ``(h+1)·d_k``; ``wo`` is (H·d_k, d_model). ``plan`` and ``keep`` are those of
    ``autodiff.attention``: the plan holds each head's mask cut to each tier, a guided head's
    role block or, for a regular head, the (B, 1, n) row of valid keys as a (count, 1, width)
    row (see ``model.forward_stages``), and the layer draws no dropout of its own. Returns the
    (T, d_model) layer output and the weights of ``autodiff.attention``, one read-only
    (H, count, width, width) block per tier. One sentence's (n, d_model) ``x`` under boolean
    (n, n) head blocks ``allowed`` is the one-row batch of ``Plan.build([n], tier_plan([n]), allowed)``.
    """
    q, k, v = ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv)
    out, weights = ad.attention(q, k, v, plan, keep)
    return ad.matmul(out, wo), weights
