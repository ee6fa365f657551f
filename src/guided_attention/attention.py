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

from collections.abc import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Plan, Tensor


def multi_head(
    x, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, plan: Plan,
    drop: Callable[[tuple[int, ...]], np.ndarray] | None = None,
) -> tuple[Tensor, tuple[np.ndarray, ...]]:
    """Guided multi-head self-attention over the packed (T, d_model) rows ``x`` of a batch.

    ``wq``, ``wk`` and ``wv`` are (d_model, H·d_k) with head ``h`` in columns ``h·d_k`` to
    ``(h+1)·d_k``; ``wo`` is (H·d_k, d_model). ``plan`` and ``drop`` are those of
    ``autodiff.attention``: the plan holds each head's mask cut to each tier, a guided head's
    role block or, for a regular head, the (B, 1, n) row of valid keys as a (count, 1, width)
    row (see ``model.forward_stages``), and ``drop``, if given, makes each tier's dropout
    multipliers. Returns the (T, d_model) layer output and the weights of ``autodiff.attention``,
    one read-only (H, count, width, width) block per tier. One sentence's (n, d_model) ``x``
    under boolean (n, n) head blocks ``allowed`` is the one-row batch of ``Plan.build([n], allowed)``.
    """
    q, k, v = ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv)
    out, weights = ad.attention(q, k, v, plan, drop)
    return ad.matmul(out, wo), weights
