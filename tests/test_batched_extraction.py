"""Equivalence and behavior tests for batched no-grad extraction: the
training kernel of :mod:`repro.models.batched_train` under ``no_grad``."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.models import (
    MIND,
    ComiRecDR,
    ComiRecSA,
    batched_compute_interests,
    batched_snapshot_interests,
)

FAMILIES = {"ComiRec-DR": ComiRecDR, "ComiRec-SA": ComiRecSA, "MIND": MIND}


@pytest.fixture()
def model(tiny_split):
    return ComiRecDR(tiny_split.num_items, dim=12, num_interests=3, seed=0)


def make_jobs(model, rng, count=6, expand_some=True):
    jobs = []
    for i in range(count):
        state = model.init_user_state(i)
        if expand_some and i % 2 == 0:
            model.expand_user(state, 1 + i % 3, span=1)
        length = int(rng.integers(2, 12))
        seq = rng.integers(0, model.num_items, size=length).tolist()
        jobs.append((state, seq))
    return jobs


def batched_extract(model, jobs):
    """Per-job (K_u, d) interests from one batched no-grad extraction."""
    with no_grad():
        interests, _, ks = batched_compute_interests(model, jobs)
    return [interests.data[b, :k] for b, k in enumerate(ks)]


class TestEquivalence:
    def test_matches_per_user_extraction(self, model, rng):
        jobs = make_jobs(model, rng)
        batched = batched_extract(model, jobs)
        for (state, seq), fast in zip(jobs, batched):
            slow = model.compute_interests(state, seq).data
            assert fast.shape == slow.shape
            assert np.allclose(fast, slow, atol=1e-10), (
                f"user {state.user}: max err {np.abs(fast - slow).max()}"
            )

    def test_variable_interest_counts(self, model, rng):
        jobs = make_jobs(model, rng, expand_some=True)
        shapes = {b[0].num_interests for b in jobs}
        assert len(shapes) > 1  # the batch really is ragged
        batched = batched_extract(model, jobs)
        for (state, _), fast in zip(jobs, batched):
            assert fast.shape == (state.num_interests, model.dim)

    def test_single_job_batch(self, tiny_split):
        """A one-job group runs the per-user kernel on a B=1 block: for
        every family, interests and every gradient (model parameters and
        the user's SA weights) are bitwise equal to per-user
        ``compute_interests``."""
        for family, cls in sorted(FAMILIES.items()):
            # identical twins: the same seed gives the same user states
            # and the same MIND logit stream
            solo_model, group_model = (
                cls(tiny_split.num_items, dim=12, num_interests=3, seed=0)
                for _ in range(2))
            solo_jobs = make_jobs(solo_model, np.random.default_rng(3),
                                  count=8)
            group_jobs = make_jobs(group_model, np.random.default_rng(3),
                                   count=8)
            probe_rng = np.random.default_rng(4)
            for (solo, seq), (grouped, _) in zip(solo_jobs, group_jobs):
                solo_model.zero_grad()
                group_model.zero_grad()
                probe = probe_rng.normal(size=(solo.num_interests, 12))
                per_user = solo_model.compute_interests(solo, seq)
                (per_user * Tensor(probe)).sum().backward()
                block, _, ks = batched_compute_interests(group_model,
                                                         [(grouped, seq)])
                assert ks == [solo.num_interests]
                (block * Tensor(probe[None])).sum().backward()
                np.testing.assert_array_equal(block.data[0], per_user.data,
                                              err_msg=family)
                solo_grads = dict(solo_model.named_parameters())
                for name, param in group_model.named_parameters():
                    expected = solo_grads[name].grad
                    if expected is None:
                        assert param.grad is None, (family, name)
                    else:
                        np.testing.assert_array_equal(
                            param.grad, expected, err_msg=f"{family} {name}")
                if family == "ComiRec-SA":
                    np.testing.assert_array_equal(grouped.sa_weights.grad,
                                                  solo.sa_weights.grad)


class TestValidation:
    def test_rejects_capsule_normalization(self, tiny_split):
        model = ComiRecDR(tiny_split.num_items, dim=12, num_interests=3,
                          seed=0, routing_normalize="capsules")
        state = model.init_user_state(0)
        with pytest.raises(TypeError):
            batched_extract(model, [(state, [1, 2])])

    def test_rejects_empty_sequence(self, model):
        state = model.init_user_state(0)
        with pytest.raises(ValueError):
            batched_extract(model, [(state, [])])

    def test_empty_batch(self, model):
        with pytest.raises(ValueError):
            batched_extract(model, [])
        assert batched_snapshot_interests(model, []) is None


class TestSnapshotRefresh:
    def test_matches_per_user_snapshot(self, model, rng):
        jobs = make_jobs(model, rng)
        reference = []
        for state, seq in jobs:
            clone = model.init_user_state(state.user)
            clone.interests = state.interests.copy()
            clone.created_span = state.created_span.copy()
            model.snapshot_interests(clone, seq)
            reference.append(clone.interests)
        batched_snapshot_interests(model, jobs)
        for (state, _), expected in zip(jobs, reference):
            assert np.allclose(state.interests, expected, atol=1e-10)

    def test_skips_empty_sequences(self, model, rng):
        state = model.init_user_state(0)
        before = state.interests.copy()
        batched_snapshot_interests(model, [(state, [])])
        assert np.allclose(state.interests, before)
