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
from .autodiff import Tensor


def multi_head(
    x,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    masks: list[np.ndarray],
    dropout_rate: float = 0.0,
    rng=None,
) -> tuple[Tensor, np.ndarray]:
    """Guided multi-head self-attention over ``x`` of shape (..., n, d_model).

    ``wq``, ``wk`` and ``wv`` are (d_model, H·d_k) with head ``h`` in columns
    ``h·d_k`` to ``(h+1)·d_k``; ``wo`` is (H·d_k, d_model). ``masks`` holds one
    additive {0, -inf} mask per head, broadcastable to (..., n, n): a guided
    head's role block (see ``model.forward_stages``), or the (..., 1, n) row
    of valid key columns for a regular head. Attention dropout is one
    (H, ..., n, n) draw, head after head. Returns the layer output and the
    (H, ..., n, n) attention weights before dropout, off the tape.
    """
    x = ad.as_tensor(x)
    heads = len(masks)
    q, k, v = ad.matmul(x, wq), ad.matmul(x, wk), ad.matmul(x, wv)
    keep = ad.dropout_keep((heads, *x.shape[:-1], x.shape[-2]), dropout_rate, rng)
    out, weights = ad.attention(q, k, v, masks, keep)
    return ad.matmul(out, wo), weights
