"""Pad a group of users for one batched autograd forward.

The per-user training loop (``IncrementalStrategy._train``) extracts one
user's interests, scores that user's targets, and takes an optimizer
step — paper-exact, but the Python/graph overhead of thousands of tiny
autograd ops dominates wall-clock on small models.  This module is the
group counterpart used when ``TrainConfig.users_per_batch > 1``.  It
only pads, builds masks and draws per-user randomness in job order; the
mathematics is the per-user functions themselves, which take either one
user's 2-D operands or a padded 3-D group with masks:

* :func:`batched_compute_interests` — pads item sequences (variable
  length) and per-user capsules (variable ``K_u``) and calls
  :func:`~repro.models.routing.b2i_routing` (DR family) or
  :func:`~repro.models.comirec_sa.sa_interests` (SA);
* :func:`batched_loss_targets` — pads targets and negatives and calls
  :func:`~repro.models.sampled_softmax.batch_sampled_softmax_loss`
  (Eqs. 5–6) with per-target weights ``1/m_u``, returning the **sum** of
  each user's mean-over-targets loss, so one ``backward()`` produces
  exactly the accumulated gradient of the per-user losses;
* :func:`pad_interest_group` — re-pad per-user interest tensors after
  in-graph hooks (PIT projection) back into a batched block.

Gradients through padding are exact zeros by construction: padding
happens *after* the embedding gather (:func:`repro.autograd.pad_rows`),
so no padded slot reaches the embedding table or the sparse optimizer's
touched rows; padded capsule columns are multiplied out of the final
coupling/attention, and padded targets carry zero loss weight.

Numerics: the padded group runs the same formulas as the per-user path
through differently-shaped BLAS calls, so per-user losses agree to
~1e-8, not bitwise (``tests/test_microbatch.py``); a one-user group
extracts bitwise the same interests and gradients as the per-user call.
The bit-exact paper configuration is ``users_per_batch=1``, which
bypasses this module entirely.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, pad_rows, stack
from ..contracts import shape_contract
from ..obs import trace as obs
from ..sanitize import capture as _capture
from .base import MSRModel, UserState
from .comirec_dr import ComiRecDR
from .comirec_sa import ComiRecSA, sa_interests
from .mind import MIND
from .routing import b2i_routing
from .sampled_softmax import batch_sampled_softmax_loss

#: ``(state, history items)`` — one user's extraction job
Job = Tuple[UserState, Sequence[int]]


def supports_batched_training(model: MSRModel) -> bool:
    """Whether :func:`batched_compute_interests` can handle ``model``.

    The batched routing implements the paper-text "items" normalization
    only (per-capsule softmax columns are independent, so capsule
    padding cannot corrupt real columns); the "capsules" ablation
    convention falls back to the per-user loop.
    """
    if isinstance(model, ComiRecDR):
        return model.routing_normalize == "items"
    return isinstance(model, (MIND, ComiRecSA))


def _length_mask(lengths: Sequence[int]) -> np.ndarray:
    """(B, max length) boolean mask of the real slots of a padded group."""
    return np.arange(max(lengths)) < np.asarray(lengths)[:, None]


def _stack_padded(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Stack per-user tensors after zero-padding ``axis`` to the longest;
    gradients flow through the concat/stack back into each tensor."""
    size = max(t.shape[axis] for t in tensors)
    parts: List[Tensor] = []
    for t in tensors:
        short = size - t.shape[axis]
        if short:
            shape = list(t.shape)
            shape[axis] = short
            t = concat([t, Tensor(np.zeros(shape))], axis=axis)
        parts.append(t)
    return stack(parts, axis=0)


def _padded_item_embeddings(
    model: MSRModel, seqs: Sequence[Sequence[int]],
) -> Tuple[Tensor, np.ndarray]:
    """Gather all sequences in one embedding lookup, pad with zero rows.

    Returns the (B, n_max, d) padded embedding Tensor (exact zeros at
    padded slots) and the (B, n_max) boolean item mask.  Padding happens
    *after* the gather via :func:`pad_rows` — only real item ids reach
    the embedding table, so gradients and sparse-row tracking never see
    the padding, and the backward is pure slicing (no scatter).
    """
    lengths = [len(s) for s in seqs]
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
    return pad_rows(model.item_emb(flat), lengths), _length_mask(lengths)


@shape_contract("_, _ -> (B, K, D) f, (B, K) b, _")
def batched_compute_interests(
    model: MSRModel, jobs: Sequence[Job],
) -> Tuple[Tensor, np.ndarray, List[int]]:
    """Differentiable batched ``compute_interests`` for a user group.

    Returns ``(interests, capsule_mask, ks)`` where ``interests`` is the
    (B, K_max, d) padded interest block (rows beyond ``ks[b]`` are exact
    zeros and carry no gradient) and ``capsule_mask`` is (B, K_max).

    Per-user randomness (MIND's routing logits, cold-start capsule init)
    is drawn user by user in job order, consuming the same RNG streams
    in the same order as the per-user loop would for this group.
    """
    if not jobs:
        raise ValueError("batched_compute_interests needs at least one job")
    for _, seq in jobs:
        if len(seq) == 0:
            raise ValueError("cannot extract interests from an empty sequence")
    if not supports_batched_training(model):
        raise TypeError(
            f"{type(model).__name__} has no batched training path; guard "
            f"call sites with supports_batched_training()")
    obs.counter("batched.extract_calls")
    if model.family == "sa":
        return _extract_sa(model, jobs)
    return _extract_dr(model, jobs)


def _extract_dr(model: MSRModel, jobs: Sequence[Job]):
    """Batched B2I routing (ComiRec-DR / MIND): pads the group, draws
    each user's randomness in job order, then runs the per-user
    :func:`repro.models.routing.b2i_routing` on the padded block."""
    ks = [state.num_interests for state, _ in jobs]
    capsule_mask = _length_mask(ks)
    batch, k_max = capsule_mask.shape
    transform = model.transform if isinstance(model, ComiRecDR) else model.bilinear
    embs, item_mask = _padded_item_embeddings(model, [seq for _, seq in jobs])
    e_hat = embs @ transform.T
    capsules = np.zeros((batch, k_max, model.dim))
    extra_logits = None
    if isinstance(model, MIND):
        extra_logits = np.zeros((batch, e_hat.shape[1], k_max))
    for b, (state, seq) in enumerate(jobs):
        if isinstance(model, ComiRecDR) and not model.warm_start:
            capsules[b, :ks[b]] = model._random_interests(ks[b])
        else:
            capsules[b, :ks[b]] = state.interests
        if extra_logits is not None:
            extra_logits[b, :len(seq), :ks[b]] = model._logit_rng.normal(
                0.0, model.logit_std, size=(len(seq), ks[b]))
    interests = b2i_routing(e_hat, capsules, model.routing_iterations,
                            extra_logits, item_mask=item_mask,
                            capsule_mask=capsule_mask)
    return interests, capsule_mask, ks


def _extract_sa(model: ComiRecSA, jobs: Sequence[Job]):
    """Batched self-attention (Eqs. 7–9): pads each user's attention
    weights to K_max columns, then runs the per-user
    :func:`repro.models.comirec_sa.sa_interests` on the padded block."""
    ks = [state.num_interests for state, _ in jobs]
    capsule_mask = _length_mask(ks)
    embs, item_mask = _padded_item_embeddings(model, [seq for _, seq in jobs])
    weights = _stack_padded([model.attention_weights(state)
                             for state, _ in jobs], axis=1)  # (B, d_a, K_max)
    interests = sa_interests(embs, model.w1, weights, item_mask, capsule_mask)
    return interests, capsule_mask, ks


@shape_contract("_ -> (B, K, D) f, (B, K) b")
def pad_interest_group(
    tensors: Sequence[Tensor],
) -> Tuple[Tensor, np.ndarray]:
    """Re-pad per-user (K_u, d) interest tensors into a (B, K_max, d) block.

    Used after in-graph per-user hooks (PIT projection) rewrote the
    sliced interests; gradients flow back into each user's tensor.
    """
    return (_stack_padded(tensors, axis=0),
            _length_mask([t.shape[0] for t in tensors]))


@shape_contract("_, (B, K, D) f, (B, K) b, _, _ -> () f")
def batched_loss_targets(
    model: MSRModel,
    interests: Tensor,
    capsule_mask: np.ndarray,
    targets_list: Sequence[Sequence[int]],
    negatives_list: Sequence[np.ndarray],
) -> Tensor:
    """Sampled-softmax loss (Eq. 6) over a whole group in one graph.

    Returns the **sum** over users of that user's mean-over-targets
    loss — the gradient of one backward pass therefore equals the
    accumulated gradients of ``model.loss_targets`` per user, which is
    what one micro-batched optimizer step replaces.
    """
    batch = len(targets_list)
    if interests.shape[0] != batch or len(negatives_list) != batch:
        raise ValueError("group size mismatch between interests/targets/negatives")
    counts = [len(t) for t in targets_list]
    if min(counts) < 1:
        raise ValueError("every user in the group needs at least one target")
    m_max = max(counts)
    num_neg = negatives_list[0].shape[1]

    # one gather for all targets, one for all negatives; padding happens
    # after the gather via pad_rows (exact-zero forward slots, slicing
    # backward — the embedding table never sees padded positions)
    flat_t = np.concatenate([np.asarray(t, dtype=np.int64) for t in targets_list])
    flat_n = np.concatenate([np.asarray(n, dtype=np.int64).reshape(-1)
                             for n in negatives_list])
    weights = _length_mask(counts) / np.asarray(counts)[:, None]  # 1/m_u
    target_embs = pad_rows(model.embed_items(flat_t),
                           counts, m_max)            # (B, M, d)
    neg_embs = pad_rows(model.embed_items(flat_n),
                        [m * num_neg for m in counts],
                        m_max * num_neg)             # (B, M·J, d)
    neg_embs = neg_embs.reshape(batch, m_max, num_neg, model.dim)

    return batch_sampled_softmax_loss(interests, target_embs, neg_embs,
                                      capsule_mask, weights)


def batched_snapshot_interests(
    model: MSRModel, jobs: Sequence[Job],
    interests_hook=None,
) -> None:
    """Refresh many users' stored interests with one batched extraction.

    The no-grad counterpart of per-user ``model.snapshot_interests``;
    per-user ``interests_hook(state, interests) -> interests`` (PIT) is
    applied to each user's slice before storing.  Agrees with the
    per-user refresh to floating-point tolerance, not bitwise — hence
    opt-in via ``TrainConfig.batched_snapshots``.
    """
    from ..autograd import no_grad

    jobs = [(state, seq) for state, seq in jobs if len(seq) > 0]
    if not jobs:
        return
    with obs.span("batched_snapshot", users=len(jobs)), no_grad():
        interests, _, ks = batched_compute_interests(model, jobs)
        for b, (state, _) in enumerate(jobs):
            per_user = interests[b, :ks[b]]
            if interests_hook is not None:
                per_user = interests_hook(state, per_user)
            state.interests = _capture(per_user.data.copy())
