"""Scaled dot-product attention, masked heads, and the guided multi-head layer.

A guided head adds its role mask to the raw attention scores before the
softmax, ``softmax((Q Kᵀ + M) / sqrt(d_k)) V``; because mask entries are 0 or
``-inf`` this is numerically identical to masking after the scaling. Regular
heads receive the padding mask only. Per-head attention weights are returned
alongside outputs so mask support can be checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeMismatchError
from .masks import GUIDED_ROLES, ROLE_PADDING


@dataclass(frozen=True)
class HeadConfig:
    """Head split of one multi-head layer: the first N heads are role-guided."""

    d_model: int
    heads: int
    role_assignment: tuple[str, ...] = ()

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1:
            raise ConfigError(f"d_model and heads must be positive, got {self.d_model}, {self.heads}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        if len(self.role_assignment) > self.heads:
            raise ConfigError(
                f"{len(self.role_assignment)} guided roles exceed {self.heads} total heads"
            )
        guided = [r for r in self.role_assignment if r != ROLE_PADDING]
        if len(set(guided)) != len(guided):
            raise ConfigError(f"duplicate roles in assignment {self.role_assignment}")
        for role in guided:
            if role not in GUIDED_ROLES:
                raise ConfigError(f"unknown role {role!r}; expected one of {GUIDED_ROLES}")

    @property
    def guided(self) -> int:
        return len(self.role_assignment)

    @property
    def d_k(self) -> int:
        return self.d_model // self.heads


@dataclass
class HeadWeights:
    """Per-head projections (d_model x d_k each) plus the output projection."""

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor  # (heads * d_k, d_model)

    def __post_init__(self):
        if not len(self.wq) == len(self.wk) == len(self.wv):
            raise ConfigError("per-head projection lists must have equal length")


def scaled_dot_attention(q, k, v) -> tuple[Tensor, Tensor]:
    """``softmax(Q Kᵀ / sqrt(d_k)) V``; returns (output, attention weights)."""
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    _check_attention_shapes(q, k, v)
    d_k = q.shape[-1]
    scores = ad.mul(ad.matmul(q, ad.transpose_last(k)), 1.0 / math.sqrt(d_k))
    weights = ad.softmax_rows(scores)
    return ad.matmul(weights, v), weights


def masked_attention(
    q, k, v, mask, dropout_rate: float = 0.0, rng=None, draw_shape: tuple[int, ...] | None = None
) -> tuple[Tensor, Tensor]:
    """Attention with an additive {0, -inf} mask on the pre-softmax scores.

    The mask must be row-feasible (the fallback already applied); a fully
    masked row surfaces as a degenerate-row error from the softmax.
    ``draw_shape`` is the shape of the weights' dropout draw (see
    ``autodiff.dropout``).
    """
    q, k, v = ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v)
    _check_attention_shapes(q, k, v)
    mask_values = np.asarray(mask, dtype=np.float64)
    n = q.shape[-2]
    if mask_values.shape[-2:] != (n, k.shape[-2]):
        raise ShapeMismatchError(
            f"mask shape {mask_values.shape} does not match scores ({n}, {k.shape[-2]})"
        )
    d_k = q.shape[-1]
    scores = ad.add(ad.matmul(q, ad.transpose_last(k)), Tensor(mask_values))
    weights = ad.softmax_rows(ad.mul(scores, 1.0 / math.sqrt(d_k)))
    if dropout_rate > 0.0:
        weights = ad.dropout(weights, dropout_rate, rng, draw_shape)
    return ad.matmul(weights, v), weights


def multi_head(
    x,
    weights: HeadWeights,
    cfg: HeadConfig,
    role_masks: dict[str, np.ndarray],
    pad_mask: np.ndarray,
    dropout_rate: float = 0.0,
    rng=None,
    draw_shape: tuple[int, ...] | None = None,
) -> tuple[Tensor, list[Tensor]]:
    """Guided multi-head self-attention over ``x`` of shape (..., n, d_model).

    Heads ``0..N-1`` use their assigned role mask (placed into the padding
    grid, see ``corpus.Batch``); heads ``N..H-1`` use the padding mask.
    Head outputs are concatenated and projected by ``wo``. Each head draws
    its attention dropout in ``draw_shape``. Returns the layer output and the
    per-head attention weights.
    """
    x = ad.as_tensor(x)
    if len(weights.wq) != cfg.heads:
        raise ConfigError(f"expected {cfg.heads} head projections, got {len(weights.wq)}")
    for role in cfg.role_assignment:
        if role not in role_masks:
            raise ConfigError(f"no mask provided for assigned role {role!r}")

    outputs = []
    attn_weights = []
    for h in range(cfg.heads):
        q = ad.matmul(x, weights.wq[h])
        k = ad.matmul(x, weights.wk[h])
        v = ad.matmul(x, weights.wv[h])
        if h < cfg.guided:
            mask = role_masks[cfg.role_assignment[h]]
        else:
            mask = pad_mask
        out, w = masked_attention(
            q, k, v, mask, dropout_rate=dropout_rate, rng=rng, draw_shape=draw_shape
        )
        outputs.append(out)
        attn_weights.append(w)
    return ad.matmul(ad.concat_last(outputs), weights.wo), attn_weights


def _check_attention_shapes(q: Tensor, k: Tensor, v: Tensor) -> None:
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeMismatchError("attention operands must be at least 2-D")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatchError(f"query/key width mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatchError(f"key/value length mismatch: {k.shape} vs {v.shape}")
