"""Scaled dot-product attention, masked heads, and the guided multi-head layer.

A guided head adds its role mask to the raw attention scores before the
softmax, ``softmax((Q Kᵀ + M) / sqrt(d_k)) V``; because mask entries are 0 or
``-inf`` this is numerically identical to masking after the scaling. Regular
heads receive the padding mask only. All heads of a layer are computed by one
``autodiff.attention`` node. Per-head attention weights are returned
alongside outputs so mask support can be checked directly.
"""

from __future__ import annotations

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
    q, k = ad.as_tensor(q), ad.as_tensor(k)
    if q.ndim < 2 or k.ndim < 2:
        raise ShapeMismatchError("attention operands must be at least 2-D")
    return masked_attention(q, k, v, np.zeros((q.shape[-2], k.shape[-2])))


def masked_attention(q, k, v, mask) -> tuple[Tensor, Tensor]:
    """Attention with an additive {0, -inf} mask on the pre-softmax scores.

    This is :func:`autodiff.attention` with one head. The mask must be
    row-feasible (the fallback already applied); a fully masked row surfaces
    as a degenerate-row error from the softmax.
    """
    out, weights = ad.attention(q, k, v, [mask])
    return out, Tensor(weights[0])


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
    grid, see ``corpus.Batch``); heads ``N..H-1`` use the padding mask. The
    per-head projections are applied as one matmul each for Q, K and V, all
    heads attend in one :func:`autodiff.attention` node, and their
    concatenated outputs are projected by ``wo``. Each head's attention
    dropout is drawn in ``draw_shape``, head after head. Returns the layer
    output and the per-head attention weights before dropout, off the tape.
    """
    x = ad.as_tensor(x)
    if len(weights.wq) != cfg.heads:
        raise ConfigError(f"expected {cfg.heads} head projections, got {len(weights.wq)}")
    for role in cfg.role_assignment:
        if role not in role_masks:
            raise ConfigError(f"no mask provided for assigned role {role!r}")
    masks = [role_masks[role] for role in cfg.role_assignment]
    masks += [pad_mask] * (cfg.heads - cfg.guided)

    q = ad.matmul(x, ad.concat_last(weights.wq))
    k = ad.matmul(x, ad.concat_last(weights.wk))
    v = ad.matmul(x, ad.concat_last(weights.wv))
    keep = ad.dropout_keep(
        (cfg.heads, *x.shape[:-1], x.shape[-2]),
        dropout_rate,
        rng,
        None if draw_shape is None else (cfg.heads, *draw_shape),
    )
    out, head_weights = ad.attention(q, k, v, masks, keep)
    return ad.matmul(out, weights.wo), [Tensor(w) for w in head_weights]
