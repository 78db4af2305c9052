"""Behavior-to-Interest (B2I) dynamic routing (paper Eqs. 3–4).

Routing softly clusters a user's (transformed) item embeddings into ``K``
interest capsules.  Following MIND / ComiRec practice, routing weights are
treated as constants for backpropagation except in the final iteration:
gradients flow into the transformed item embeddings (and hence the shared
transformation matrix and the embedding table) through the last
``h_k = squash(Σ_i c_ik ê_i)`` only.

Convention note: the paper's text normalizes the vote ``c_ik`` "over other
items", i.e. a softmax across the item axis per interest; we follow the
text (see DESIGN.md — MIND/ComiRec reference code normalizes across
capsules instead; either yields a soft clustering).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from ..autograd import Tensor
from ..autograd.ops import squash
from ..contracts import shape_contract
from ..obs import prof as _prof


@shape_contract("(...S) f -> (...S) f")
def squash_np(x: np.ndarray, axis: int = -1, eps: float = 1e-9) -> np.ndarray:
    """Numpy version of the capsule squash, for no-grad routing iterations."""
    sq_norm = (x * x).sum(axis=axis, keepdims=True)
    scale = sq_norm / (1.0 + sq_norm) / np.sqrt(sq_norm + eps)
    return x * scale


#: additive logit mask for padded positions (batched routing/attention)
_NEG = -1e30


@shape_contract("(...B, N, K) f, _ -> (...B, N, K) f")
def _softmax_over_items(logits: np.ndarray,
                        item_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax across the item axis (-2) of (n, K) or (B, n, K) logits.

    ``item_mask`` (B, n) marks real item slots of a padded batch: padded
    slots get exactly zero weight.  Without a mask every slot is real.
    """
    if item_mask is None:
        shifted = logits - logits.max(axis=-2, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-2, keepdims=True)
    dt = logits.dtype.type
    keep = item_mask[..., None]
    masked = np.where(keep, logits, dt(_NEG))
    shifted = masked - masked.max(axis=-2, keepdims=True)
    exp = np.exp(shifted) * keep
    denom = exp.sum(axis=-2, keepdims=True)
    return exp / np.maximum(denom, dt(1e-30))


@shape_contract("(...B, N, K) f -> (...B, N, K) f")
def _softmax_over_capsules(logits: np.ndarray) -> np.ndarray:
    """Softmax across the capsule axis (-1) — MIND/ComiRec reference
    code convention; kept for the substrate-ablation benchmark."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@shape_contract("(...B, N, D) f, (...B, K, D) f, (), _, _, _ -> (...B, N, K) f")
def routing_coupling(
    e_hat: np.ndarray,
    capsules: np.ndarray,
    iterations: int,
    item_mask: Optional[np.ndarray] = None,
    extra_logits: Optional[np.ndarray] = None,
    normalize: str = "items",
) -> np.ndarray:
    """The constant part of B2I routing, for one user or a padded group.

    Runs the ``iterations - 1`` no-grad routing updates over (n, d) or
    (B, n, d) transformed items warm-started from (K, d) / (B, K, d)
    capsules and returns the final (n, K) / (B, n, K) coupling.  Callers
    finish with the differentiable ``squash(Cᵀ ê)``.  ``item_mask``
    (B, n) masks padded item slots; ``extra_logits`` are added to the
    initial votes (MIND's random logits).  Contractions use ``@`` (the
    BLAS GEMM gufunc), so a 2-D call and a one-user group run the same
    products bit for bit.
    """
    if normalize == "items":
        def softmax(x):
            return _softmax_over_items(x, item_mask)
    else:
        softmax = _softmax_over_capsules
    capsules = capsules.astype(e_hat.dtype, copy=False)
    logits = e_hat @ capsules.swapaxes(-1, -2)       # nd,kd->nk
    if extra_logits is not None:
        logits += extra_logits.astype(logits.dtype, copy=False)
    for _ in range(iterations - 1):
        coupling = softmax(logits)
        capsules = squash_np(coupling.swapaxes(-1, -2) @ e_hat)
        logits += e_hat @ capsules.swapaxes(-1, -2)
    return softmax(logits)


@shape_contract(
    "(...B, N, D) f, (...B, K, D) f, (), (...B, N, K) f, _, (...B, N) b, "
    "(...B, K) b -> (...B, K, D) f")
def b2i_routing(
    e_hat: Tensor,
    init_interests: np.ndarray,
    iterations: int = 3,
    init_logits: Optional[np.ndarray] = None,
    normalize: str = "items",
    item_mask: Optional[np.ndarray] = None,
    capsule_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Run B2I dynamic routing and return interest capsules.

    One user passes unpadded 2-D operands; a padded group passes the
    same operands with a leading batch axis plus its masks.

    Parameters
    ----------
    e_hat:
        (n, d) or (B, n, d) transformed item embeddings; stays in the
        autograd graph.
    init_interests:
        (K, d) or (B, K, d) initial high-level capsules.  In the
        incremental setting this is the user's stored interest matrix
        from the previous span (plus any freshly initialized
        new-interest rows), which is how existing interests persist
        through re-extraction.
    iterations:
        Number of routing iterations ``L``.
    init_logits:
        Optional (n, K) / (B, n, K) additive initial routing logits.
        MIND initializes these randomly; ComiRec-DR uses zeros (``None``).
    normalize:
        ``"items"`` (default) normalizes votes across items per interest,
        following the paper's text; ``"capsules"`` normalizes across
        interests per item, following the MIND/ComiRec reference code.
        The substrate-ablation benchmark compares the two.
    item_mask, capsule_mask:
        (B, n) / (B, K) real slots of a padded group.  Padded items get
        zero routing weight and padded capsules read out exact zeros.

    Returns
    -------
    Tensor
        (K, d) or (B, K, d) squashed interest capsules, differentiable
        w.r.t. ``e_hat``.
    """
    if e_hat.ndim not in (2, 3):
        raise ValueError(
            f"e_hat must be (n, d) or (B, n, d), got shape {e_hat.shape}")
    if init_interests.shape[:-2] != e_hat.shape[:-2] \
            or init_interests.ndim != e_hat.ndim \
            or init_interests.shape[-1] != e_hat.shape[-1]:
        raise ValueError(
            f"init_interests must match e_hat {e_hat.shape} as (..., K, "
            f"{e_hat.shape[-1]}), got {init_interests.shape}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if normalize not in ("items", "capsules"):
        raise ValueError(f"normalize must be 'items' or 'capsules', got {normalize!r}")

    if _backend.active.fused and normalize == "items":
        # the fused kernel implements the paper-text normalization only;
        # the "capsules" ablation stays on the op-by-op graph
        from ..backend.fused import fused_dr_interests

        return fused_dr_interests(e_hat, init_interests, iterations,
                                  init_logits, item_mask, capsule_mask)

    with _prof.op("extract.b2i_routing"):
        coupling = routing_coupling(e_hat.data, init_interests, iterations,
                                    item_mask, init_logits, normalize)
        if capsule_mask is not None:
            coupling = coupling * capsule_mask[..., None, :]
    # the coupling is a constant for backprop
    return squash(Tensor(coupling).swapaxes(-1, -2) @ e_hat)
