"""ComiRec-SA (Cen et al., KDD 2020) — self-attention MSR base model.

Implements the paper's Eqs. 7–9: per-user attention weights ``W_u``
(d_a x K; one column per interest) attend over ``tanh(W_1 E_u)``; the
interest matrix is the attention-weighted sum of item embeddings.

Unlike the DR models, the per-user ``W_u`` are trainable parameters that
the incremental strategies must include in the optimizer; interest
expansion appends columns to ``W_u``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import backend as _backend
from ..autograd import Tensor
from ..autograd.ops import softmax, tanh
from ..contracts import shape_contract
from ..nn import Parameter, init
from .base import MSRModel, UserState
from .routing import _NEG


class ComiRecSA(MSRModel):
    """Multi-head additive self-attention interest extractor."""

    family = "sa"

    def __init__(self, num_items: int, dim: int = 32, num_interests: int = 4,
                 attention_dim: Optional[int] = None, seed: int = 0):
        super().__init__(num_items, dim=dim, num_interests=num_interests, seed=seed)
        self.attention_dim = attention_dim or dim
        self.w1 = Parameter(init.xavier_uniform((self.attention_dim, dim), self.rng))

    # ------------------------------------------------------------------ #
    # per-user attention weights
    # ------------------------------------------------------------------ #
    def _init_sa_weights(self, k: int) -> Parameter:
        return Parameter(init.xavier_uniform((self.attention_dim, k), self.rng))

    def _expand_sa_weights(self, state: UserState, delta_k: int) -> None:
        new_cols = init.xavier_uniform((self.attention_dim, delta_k), self.rng)
        merged = np.concatenate([state.sa_weights.data, new_cols], axis=1)
        state.sa_weights = Parameter(merged)

    def _trim_sa_weights(self, state: UserState, keep: np.ndarray) -> None:
        state.sa_weights = Parameter(state.sa_weights.data[:, keep])

    # ------------------------------------------------------------------ #
    def attention_weights(self, state: UserState) -> Parameter:
        """The user's (d_a, K) attention weights, in sync with ``K``."""
        weights = state.sa_weights
        if weights is None:
            raise ValueError("SA user state is missing attention weights")
        if weights.data.shape[1] != state.num_interests:
            raise ValueError(
                "user attention weights out of sync with interest count: "
                f"{weights.data.shape[1]} vs {state.num_interests}"
            )
        return weights

    def compute_interests(self, state: UserState, item_seq: Sequence[int]) -> Tensor:
        if len(item_seq) == 0:
            raise ValueError("cannot extract interests from an empty sequence")
        weights = self.attention_weights(state)
        return sa_interests(self.embed_items(item_seq), self.w1, weights)


@shape_contract("(...B, N, D) f, (A, D) f, (...B, A, K) f, _, _ -> (...B, K, D) f")
def sa_interests(
    embs: Tensor,
    w1: Tensor,
    weights: Tensor,
    item_mask: Optional[np.ndarray] = None,
    capsule_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Additive self-attention read-out (Eqs. 7–9).

    One user passes (n, d) item embeddings and its (d_a, K) attention
    weights; a padded group passes (B, n, d) / (B, d_a, K) plus the
    (B, n) item and (B, K) capsule masks.  Padded items get zero
    attention and padded capsules read out exact zeros.
    """
    if _backend.active.fused:
        from ..backend.fused import fused_sa_interests

        return fused_sa_interests(embs, w1, weights, item_mask, capsule_mask)
    hidden = tanh(embs @ w1.T)                         # tanh(W1 E)
    logits = hidden @ weights                          # (..., n, K)
    if item_mask is not None:
        logits = logits + Tensor(np.where(item_mask, 0.0, _NEG)[..., None])
    attn = softmax(logits, axis=-2)                    # Eq. 8 (over items)
    if capsule_mask is not None:
        attn = attn * Tensor(
            capsule_mask[..., None, :].astype(embs.data.dtype))
    return attn.swapaxes(-1, -2) @ embs                # Eq. 9 -> (..., K, d)
