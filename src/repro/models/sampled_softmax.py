"""Sampled-softmax next-item loss (paper Eq. 6).

The preference score of item ``i`` is ``v_uᵀ e_i`` where ``v_u`` is the
target-attentive aggregation of the user's interests.  The loss contrasts
the target against a small uniformly sampled negative set and minimizes the
negative log-likelihood.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from ..autograd import Tensor, concat
from ..autograd.ops import log_softmax, softmax
from ..contracts import shape_contract
from .aggregator import aggregate_interests
from .routing import _NEG


@shape_contract("(K, D) f, (D) f, (M, D) f -> () f")
def sampled_softmax_loss(
    interests: Tensor,
    target_emb: Tensor,
    negative_embs: Tensor,
) -> Tensor:
    """Negative log-likelihood of the target under sampled softmax.

    Parameters
    ----------
    interests:
        (K, d) user interest matrix (differentiable).
    target_emb:
        (d,) target item embedding.
    negative_embs:
        (num_neg, d) sampled negative item embeddings.

    Returns a scalar Tensor.
    """
    v_u = aggregate_interests(interests, target_emb)  # (d,)
    pos_logit = (v_u * target_emb).sum().reshape(1)
    neg_logits = negative_embs @ v_u  # (num_neg,)
    logits = concat([pos_logit, neg_logits], axis=0)
    return -log_softmax(logits, axis=0)[0]


@shape_contract(
    "(...B, K, D) f, (...B, M, D) f, (...B, M, J, D) f, (...B, K) b, "
    "(...B, M) f -> () f")
def batch_sampled_softmax_loss(
    interests: Tensor,
    target_embs: Tensor,
    negative_embs: Tensor,
    capsule_mask: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Sampled-softmax loss over several targets of one user or a group.

    The paper splits each user's in-span interactions into a history part
    (interests are extracted from it once) and a target set; all targets
    share the same interest matrix.  One user passes (K, d) interests,
    (m, d) ``target_embs`` and (m, num_neg, d) ``negative_embs`` and gets
    the mean over its targets.  A padded group passes the same operands
    with a leading batch axis, the (B, K) ``capsule_mask`` and (B, M)
    per-target ``weights`` and gets the weighted sum (zero weight on
    padded targets).
    """
    if _backend.active.fused:
        from ..backend.fused import fused_sampled_softmax_loss

        return fused_sampled_softmax_loss(interests, target_embs,
                                          negative_embs, capsule_mask,
                                          weights)
    att = target_embs @ interests.swapaxes(-1, -2)    # (..., m, K)
    if capsule_mask is not None:
        att = att + Tensor(np.where(capsule_mask, 0.0, _NEG)[..., None, :])
    beta = softmax(att, axis=-1)                      # Eq. 5
    v = beta @ interests  # (..., m, d) — per-target aggregated user vector
    pos = (v * target_embs).sum(axis=-1, keepdims=True)        # (..., m, 1)
    neg = (negative_embs @ v.reshape(v.shape + (1,))).squeeze(-1)
    logits = concat([pos, neg], axis=-1)              # (..., m, 1 + num_neg)
    nll = log_softmax(logits, axis=-1)[..., 0]
    if weights is None:
        return -nll.mean()
    return (-nll * Tensor(weights)).sum()
