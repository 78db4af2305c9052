"""Fused forward+backward kernels for the fast backend.

The per-op autograd graphs behind interest extraction and the
sampled-softmax loss spend most of their time in Python — dozens of
tiny Tensor nodes over d=32 matrices.  Each kernel here computes the
same mathematics as the unfused graph in one numpy pass, hand-derives
the backward, and registers a *single* graph node whose per-parent
closures share one cached backward computation.

There is one kernel per equation, and each model function checks
``repro.backend.active.fused`` once before its op-by-op graph:
``b2i_routing`` (``models/routing.py``), ``sa_interests``
(``models/comirec_sa.py``) and ``batch_sampled_softmax_loss``
(``models/sampled_softmax.py``).  The equivalence suite
(``tests/test_backend.py``) pins every kernel against its unfused
counterpart at float64 to ~1e-9 and bounds the float32 drift of the
fast backend to documented tolerances.

Scratch arrays for kernel intermediates come from the active backend's
buffer pool while gradients are enabled (the backward closures reference
them; they are reclaimed at the optimizer-step boundary after backward
has run).  Kernel *outputs* — anything that becomes ``Tensor.data`` —
are always fresh allocations, never pooled.

Like the functions they serve, the kernels take one user's unpadded
operands or a padded group with masks.  The routing read-out is written
over the last two axes and runs either as is; the attention and loss
kernels view a single user's arrays as a B=1 group (numpy views, no
extra graph nodes) and reshape every gradient to its parent's shape.

This module imports :mod:`repro.autograd` and the shared routing loop
of :mod:`repro.models.routing`, and therefore must only be imported
lazily from model code, never from ``repro.backend.__init__``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import backend as _backend
from ..autograd import Tensor, is_grad_enabled
from ..models.routing import _NEG, routing_coupling


def _scratch(shape) -> np.ndarray:
    """Backend scratch in compute dtype; pooled only while grads flow."""
    return _backend.active.scratch(shape, pooled=is_grad_enabled())


def _const(value: float, dt: np.dtype):
    return np.asarray(value, dtype=dt)


def _group(data: np.ndarray, ndim: int) -> np.ndarray:
    """``data`` as a group operand: a single user's operand (one axis
    short of ``ndim``) gains a leading B=1 axis as a numpy view."""
    return data if data.ndim == ndim else data[None]


def _node(out: np.ndarray, parents, single: bool) -> Tensor:
    """Register a kernel's graph node.

    A single-user call ran on B=1 views: its output drops the batch
    axis, and every gradient takes its parent's shape (the upstream
    gradient regains the group output's shape on the way in).
    """
    if not single:
        return Tensor._make(out, parents)
    shape = out.shape
    return Tensor._make(out[0] if out.ndim else out, [
        (p, lambda g, p=p, fn=fn: fn(g.reshape(shape)).reshape(p.shape))
        for p, fn in parents])


# ---------------------------------------------------------------------- #
# B2I dynamic routing (ComiRec-DR / MIND)
# ---------------------------------------------------------------------- #
def fused_dr_interests(e_hat: Tensor, capsules0: np.ndarray, iterations: int,
                       extra_logits: Optional[np.ndarray] = None,
                       item_mask: Optional[np.ndarray] = None,
                       capsule_mask: Optional[np.ndarray] = None,
                       eps: float = 1e-9) -> Tensor:
    """Fused ``b2i_routing`` read-out over (n, d) or (B, n, d) items.

    The constant iterations are :func:`repro.models.routing.routing_coupling`;
    routing weights are constants for backprop (MIND/ComiRec practice),
    so the only parent is ``e_hat``, reached through the final
    ``squash(Cᵀ ê)`` — exactly the unfused graph's gradient structure.
    Every step is written over the last two axes, so one user and a
    padded group run the same code.
    """
    E = e_hat.data
    coupling = routing_coupling(E, capsules0, iterations, item_mask,
                                extra_logits)
    if capsule_mask is not None:
        coupling = coupling * capsule_mask[..., None, :]
    votes = np.matmul(coupling.swapaxes(-1, -2), E)   # V (..., K, d)
    sq = (votes * votes).sum(axis=-1, keepdims=True)  # q = |V|² (..., K, 1)
    inv1 = 1.0 / (1.0 + sq)
    root = np.sqrt(sq + eps)
    scale = sq * inv1 / root
    out = votes * scale                               # fresh (never pooled)

    def grad_e_hat(g: np.ndarray) -> np.ndarray:
        # squash backward: dV = g·s + V (2 (g·V) ds/dq), then dE = C dV
        ds_dq = inv1 / root - sq * inv1 * inv1 / root \
            - 0.5 * sq * inv1 / (root * (sq + eps))
        gv = g * scale + votes * (
            2.0 * (g * votes).sum(axis=-1, keepdims=True) * ds_dq)
        return np.matmul(coupling, gv)                 # nk,kd->nd

    return Tensor._make(out, [(e_hat, grad_e_hat)])


# ---------------------------------------------------------------------- #
# additive self-attention (ComiRec-SA)
# ---------------------------------------------------------------------- #
def fused_sa_interests(embs: Tensor, w1, weights: Tensor,
                       item_mask: Optional[np.ndarray] = None,
                       capsule_mask: Optional[np.ndarray] = None) -> Tensor:
    """Fused ``sa_interests`` over (n, d) / (d_a, K) or a padded
    (B, n, d) / (B, d_a, K) group.

    Parents: the item embeddings, the shared ``W1`` and the attention
    weights; one cached backward computes all of their grads.  The
    softmax jacobian legitimately uses the capsule-masked attention:
    the softmax runs per (user, capsule) column over items, masked
    columns carry zero upstream gradient, and unmasked columns are
    untouched by the mask — column by column the two coincide.
    """
    single = embs.ndim == 2
    E = _group(embs.data, 3)
    dt = E.dtype
    batch, n, _ = E.shape
    W1 = w1.data.astype(dt, copy=False)
    W = _group(weights.data, 3)                       # (B, d_a, K)
    hidden = _scratch((batch, n, W1.shape[0]))
    np.matmul(E, W1.T, out=hidden)
    np.tanh(hidden, out=hidden)                       # H = tanh(E W1ᵀ)
    logits = _scratch((batch, n, W.shape[2]))
    np.matmul(hidden, W, out=logits)
    if item_mask is not None:
        logits += np.where(item_mask[:, :, None], _const(0.0, dt),
                           _const(_NEG, dt))
    attn = _scratch(logits.shape)                     # softmax over items
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=1, keepdims=True)
    if capsule_mask is not None:
        attn *= capsule_mask[:, None, :]
    out = np.matmul(attn.transpose(0, 2, 1), E)       # fresh (B, K, d)

    cache: dict = {}

    def _shared(g: np.ndarray) -> dict:
        if not cache:
            d_attn = np.matmul(E, g.transpose(0, 2, 1))          # (B, n, K)
            d_e = np.matmul(attn, g)                             # (B, n, d)
            d_logits = attn * (d_attn
                               - (d_attn * attn).sum(axis=1, keepdims=True))
            d_hidden = np.matmul(d_logits, W.transpose(0, 2, 1))
            d_pre = d_hidden * (1.0 - hidden * hidden)           # tanh'
            d_e += np.matmul(d_pre, W1)
            cache["d_e"] = d_e
            cache["d_w1"] = np.tensordot(d_pre, E,      # bna,bnd->ad
                                         axes=([0, 1], [0, 1]))
            cache["d_w"] = np.matmul(hidden.transpose(0, 2, 1), d_logits)
        return cache

    return _node(out, [(embs, lambda g: _shared(g)["d_e"]),
                       (w1, lambda g: _shared(g)["d_w1"]),
                       (weights, lambda g: _shared(g)["d_w"])], single)


# ---------------------------------------------------------------------- #
# sampled-softmax loss (Eq. 6) with target-attentive aggregation (Eq. 5)
# ---------------------------------------------------------------------- #
def fused_sampled_softmax_loss(interests: Tensor, target_embs: Tensor,
                          neg_embs: Tensor,
                          capsule_mask: Optional[np.ndarray] = None,
                          weights: Optional[np.ndarray] = None) -> Tensor:
    """Fused ``batch_sampled_softmax_loss`` over (K, d) interests with
    (m, d) targets and (m, J, d) negatives, or a padded group of them.

    Returns ``sum_b sum_m weights[b, m] * nll[b, m]`` as a scalar; one
    user (no ``weights``) weighs each target ``1/m``, its mean loss.
    """
    single = interests.ndim == 2
    I = _group(interests.data, 3)
    Te = _group(target_embs.data, 3)
    Ne = _group(neg_embs.data, 4)
    dt = I.dtype
    if weights is None:
        weights = np.full(Te.shape[:2], 1.0 / Te.shape[1])
    w = weights.astype(dt, copy=False)

    IT = I.transpose(0, 2, 1)                        # (B, d, K) view
    att = np.matmul(Te, IT)                          # Eq. 5 logits (bmk)
    if capsule_mask is not None:
        att += np.where(capsule_mask, _const(0.0, dt),
                        _const(_NEG, dt))[:, None, :]
    beta = _scratch(att.shape)                       # softmax over capsules
    np.subtract(att, att.max(axis=2, keepdims=True), out=beta)
    # beta is max-subtracted on the line above (out= hides it from the scan)
    np.exp(beta, out=beta)  # repro: noqa[RA302]
    beta /= beta.sum(axis=2, keepdims=True)          # (B, M, K)
    v = _scratch(Te.shape)
    np.matmul(beta, I, out=v)                        # aggregated vec (bmd)
    pos = (v * Te).sum(axis=2)                       # (B, M)
    neg = np.matmul(Ne, v[..., None])[..., 0]        # bmjd,bmd->bmj
    logits = np.concatenate([pos[..., None], neg], axis=2)
    shifted = logits - logits.max(axis=2, keepdims=True)
    prob = _scratch(shifted.shape)
    # shifted is max-subtracted two lines up; the scan can't see through it
    np.exp(shifted, out=prob)  # repro: noqa[RA302]
    denom = prob.sum(axis=2, keepdims=True)
    # denom >= 1: the row max contributes exp(0) = 1 to the sum
    nll = np.log(denom[..., 0]) - shifted[..., 0]  # repro: noqa[RA301]
    prob /= denom                                    # kept for backward
    out = np.asarray((nll * w).sum(), dtype=dt)

    cache: dict = {}

    def _shared(g: np.ndarray) -> dict:
        if not cache:
            wg = (np.asarray(g, dtype=dt) * w)[..., None]   # (B, M, 1)
            d_logits = wg * prob
            d_logits[..., 0] -= wg[..., 0]                  # − w · e₀
            d_pos = d_logits[..., 0]
            d_neg = d_logits[..., 1:]
            d_v = d_pos[..., None] * Te \
                + np.matmul(d_neg[:, :, None, :], Ne)[:, :, 0, :]
            d_beta = np.matmul(d_v, IT)                      # bmd,bkd->bmk
            d_att = beta * (d_beta
                            - (d_beta * beta).sum(axis=2, keepdims=True))
            cache["d_i"] = np.matmul(beta.transpose(0, 2, 1), d_v) \
                + np.matmul(d_att.transpose(0, 2, 1), Te)    # bmk,bmd->bkd
            cache["d_te"] = d_pos[..., None] * v \
                + np.matmul(d_att, I)                        # bmk,bkd->bmd
            cache["d_ne"] = d_neg[..., None] * v[:, :, None, :]
        return cache

    return _node(out, [(interests, lambda g: _shared(g)["d_i"]),
                       (target_embs, lambda g: _shared(g)["d_te"]),
                       (neg_embs, lambda g: _shared(g)["d_ne"])], single)
