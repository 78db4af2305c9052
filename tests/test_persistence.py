"""Tests for checkpoint save/load round-trips and format-v3 integrity."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.backend import use_backend
from repro.data import ALPHA, T_SPANS, dataset_config, generate_world, split_time_spans
from repro.experiments import make_strategy, run_strategy
from repro.faults import FaultPlan, InjectedIOError, SimulatedCrash, active, flip_one_byte
from repro.incremental import TrainConfig
from repro.models.base import UserState
from repro.persistence import (
    CheckpointError,
    checkpoint_info,
    load_checkpoint,
    normalize_checkpoint_path,
    run_fingerprint,
    save_checkpoint,
    verify_checkpoint,
)


@pytest.fixture()
def fast_config():
    return TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                       num_negatives=4, seed=0)


def build(tiny_split, config, name="IMSR", model="ComiRec-DR"):
    return make_strategy(name, model, tiny_split, config,
                         model_kwargs={"dim": 10, "num_interests": 2},
                         strategy_kwargs={"c1": 0.2} if name == "IMSR" else {})


class TestRoundTrip:
    def test_params_and_states_restored(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)

        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)

        for (name, a), (_, b) in zip(strategy.model.named_parameters(),
                                     fresh.model.named_parameters()):
            assert np.allclose(a.data, b.data), name
        for user, state in strategy.states.items():
            restored = fresh.states[user]
            assert np.allclose(state.interests, restored.interests)
            assert np.allclose(state.prev_interests, restored.prev_interests)
            assert state.n_existing == restored.n_existing
            assert np.array_equal(state.created_span, restored.created_span)

    def test_variable_interest_counts_survive(self, tiny_split, fast_config,
                                              tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        # force heterogeneous interest counts across users
        users = sorted(strategy.states)
        strategy.model.expand_user(strategy.states[users[0]], 3, span=1)
        strategy.model.expand_user(strategy.states[users[1]], 1, span=1)
        counts = {u: s.num_interests for u, s in strategy.states.items()}
        assert len(set(counts.values())) > 1

        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        assert {u: s.num_interests for u, s in fresh.states.items()} == counts

    def test_scoring_identical_after_restore(self, tiny_split, fast_config,
                                             tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        for user in list(strategy.states)[:5]:
            assert np.allclose(strategy.score_user(user),
                               fresh.score_user(user))

    def test_sa_weights_restored(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config, model="ComiRec-SA")
        strategy.pretrain()
        path = tmp_path / "sa.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config, model="ComiRec-SA")
        load_checkpoint(fresh, path)
        for user, state in strategy.states.items():
            assert np.allclose(state.sa_weights.data,
                               fresh.states[user].sa_weights.data)

    def test_resume_training_after_restore(self, tiny_split, fast_config,
                                           tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        fresh.train_span(2)  # must not crash; states stay consistent
        for state in fresh.states.values():
            assert np.isfinite(state.interests).all()


class TestValidation:
    def test_family_mismatch_rejected(self, tiny_split, fast_config, tmp_path):
        dr = build(tiny_split, fast_config, model="ComiRec-DR")
        dr.pretrain()
        path = tmp_path / "dr.npz"
        save_checkpoint(dr, path)
        sa = build(tiny_split, fast_config, model="ComiRec-SA")
        with pytest.raises(ValueError, match="family"):
            load_checkpoint(sa, path)

    def test_shape_mismatch_rejected(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        save_checkpoint(strategy, tmp_path / "a.npz")
        other = make_strategy("IMSR", "ComiRec-DR", tiny_split, fast_config,
                              model_kwargs={"dim": 6, "num_interests": 2})
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(other, tmp_path / "a.npz")

    def test_checkpoint_info(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = tmp_path / "info.npz"
        save_checkpoint(strategy, path)
        meta = checkpoint_info(path)
        assert meta["strategy"] == "IMSR"
        assert meta["model_family"] == "dr"
        assert len(meta["users"]) == len(strategy.states)

    def test_strict_rejects_unknown_users(self, tiny_split, fast_config,
                                          tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "full.npz")
        fresh = build(tiny_split, fast_config)
        dropped = sorted(fresh.states)[:2]
        snapshot = fresh.model.state_dict()
        for user in dropped:
            del fresh.states[user]
        with pytest.raises(CheckpointError, match="2 user"):
            load_checkpoint(fresh, path)
        # the failed strict load must not have touched anything
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name

    def test_strict_false_skips_and_warns(self, tiny_split, fast_config,
                                          tmp_path, caplog):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "full.npz")
        fresh = build(tiny_split, fast_config)
        dropped = sorted(fresh.states)[0]
        del fresh.states[dropped]
        with caplog.at_level("WARNING", logger="repro.persistence"):
            load_checkpoint(fresh, path, strict=False)
        assert any(str(dropped) in rec.getMessage()
                   for rec in caplog.records)
        # every user the strategy does know was still restored
        for user, state in fresh.states.items():
            assert np.allclose(state.interests,
                               strategy.states[user].interests)


class TestPathNormalization:
    def test_save_without_suffix_lands_at_npz(self, tiny_split, fast_config,
                                              tmp_path):
        strategy = build(tiny_split, fast_config)
        landed = save_checkpoint(strategy, tmp_path / "span3")
        assert landed == tmp_path / "span3.npz"
        assert landed.exists()

    def test_load_and_verify_accept_suffixless_path(self, tiny_split,
                                                    fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        save_checkpoint(strategy, tmp_path / "span3")
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, tmp_path / "span3")  # symmetric round trip
        assert verify_checkpoint(tmp_path / "span3")["version"] == 3

    def test_normalize_is_idempotent(self):
        assert normalize_checkpoint_path("a/b.npz").name == "b.npz"
        assert normalize_checkpoint_path("a/b").name == "b.npz"
        assert normalize_checkpoint_path("a/b.v2").name == "b.v2.npz"


class TestIntegrity:
    """Format v3: any flipped byte or truncation must be detected."""

    @pytest.fixture()
    def saved(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        return strategy, path

    def test_verify_returns_manifest(self, saved):
        _, path = saved
        meta = verify_checkpoint(path)
        assert meta["version"] == 3
        assert set(meta["rng"]) == {"model", "sampler", "strategy"}
        assert all("sha256" in entry for entry in meta["arrays"].values())

    def test_any_flipped_byte_is_rejected(self, tiny_split, fast_config,
                                          saved):
        """Property test: flip one byte at structural offsets and a seeded
        sample of arbitrary offsets; verification and loading must always
        reject, and a failed load must leave the strategy unmutated."""
        strategy, path = saved
        size = path.stat().st_size
        rng = np.random.default_rng(42)
        offsets = {0, 3, size - 1, size - 45, size // 2}  # magic, trailer, body
        offsets.update(int(o) for o in rng.integers(size, size=40))
        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        for offset in sorted(offsets):
            flip_one_byte(path, offset=offset)
            with pytest.raises(CheckpointError):
                verify_checkpoint(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(fresh, path)
            for name, value in fresh.model.state_dict().items():
                assert np.array_equal(value, snapshot[name]), (offset, name)
            flip_one_byte(path, offset=offset)  # XOR twice restores
        verify_checkpoint(path)  # file is intact again

    @pytest.mark.parametrize("keep", ["1-byte", "half", "minus-trailer",
                                      "minus-1"])
    def test_truncation_is_rejected(self, saved, tmp_path, keep):
        _, path = saved
        data = path.read_bytes()
        cut = {"1-byte": 1, "half": len(data) // 2,
               "minus-trailer": len(data) - 90, "minus-1": len(data) - 1}[keep]
        torn = tmp_path / "torn.npz"
        torn.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            verify_checkpoint(torn)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            verify_checkpoint(tmp_path / "nope.npz")

    def test_v2_without_trailer_is_rejected(self, saved, tmp_path):
        """Stripping the whole-file trailer must not downgrade a v2 or a
        v3 file to unchecked reads."""
        strategy, path = saved
        v2 = TestV2Compatibility().write_v2(strategy, tmp_path / "v2.npz")
        for source in (v2, path):
            stripped = tmp_path / "stripped.npz"
            stripped.write_bytes(source.read_bytes()[:-90])
            with pytest.raises(CheckpointError, match="trailer"):
                verify_checkpoint(stripped)

    def test_direct_np_load_still_works(self, saved):
        """The trailer lives after the zip EOCD, so plain ``np.load`` on
        the path keeps working for ad-hoc inspection."""
        _, path = saved
        with np.load(path, allow_pickle=False) as archive:
            assert "manifest" in archive.files


class TestExtraState:
    """Strategy state beyond the base contract (replay pools, Fisher
    estimates, private RNG streams) rides in the checkpoint."""

    def test_ader_pool_and_rng_round_trip(self, tiny_split, fast_config,
                                          tmp_path):
        strategy = build(tiny_split, fast_config, name="ADER")
        strategy.pretrain()
        strategy.train_span(1)
        path = save_checkpoint(strategy, tmp_path / "ader.npz")
        meta = verify_checkpoint(path)
        assert "pool" in meta["rng"]
        assert any(name.startswith("extra/") for name in meta["arrays"])

        fresh = build(tiny_split, fast_config, name="ADER")
        load_checkpoint(fresh, path)
        assert fresh.pool == strategy.pool
        assert (fresh._pool_rng.bit_generator.state
                == strategy._pool_rng.bit_generator.state)

    def test_load_rolls_back_pool_and_rng_of_mutated_strategy(
            self, tiny_split, fast_config, tmp_path):
        """The divergence guard restores checkpoints into a *dirty*
        strategy: pool contents and the pool RNG must roll back too."""
        strategy = build(tiny_split, fast_config, name="ADER")
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "good.npz")
        saved_pool = {u: [list(s) for s in b]
                      for u, b in strategy.pool.items()}
        saved_rng = strategy._pool_rng.bit_generator.state

        strategy.train_span(1)  # grows the pool, advances the RNG
        assert strategy.pool != saved_pool

        load_checkpoint(strategy, path)
        assert {u: [list(s) for s in b]
                for u, b in strategy.pool.items()} == saved_pool
        assert strategy._pool_rng.bit_generator.state == saved_rng

    def test_ewc_fisher_and_anchors_round_trip(self, tiny_split, fast_config,
                                               tmp_path):
        strategy = build(tiny_split, fast_config, name="EWC")
        strategy.pretrain()
        assert strategy.fisher  # pretraining estimated the Fisher
        path = save_checkpoint(strategy, tmp_path / "ewc.npz")

        fresh = build(tiny_split, fast_config, name="EWC")
        assert not fresh.fisher
        load_checkpoint(fresh, path)
        assert set(fresh.fisher) == set(strategy.fisher)
        for name in strategy.fisher:
            assert np.array_equal(fresh.fisher[name], strategy.fisher[name])
        assert set(fresh.anchors) == set(strategy.anchors)
        for name in strategy.anchors:
            assert np.array_equal(fresh.anchors[name], strategy.anchors[name])

    def test_foreign_extra_state_rejected_before_mutation(
            self, tiny_split, fast_config, tmp_path):
        """A checkpoint whose extra state the target strategy cannot
        restore fails the load before any base state is touched."""
        ader = build(tiny_split, fast_config, name="ADER")
        ader.pretrain()
        path = save_checkpoint(ader, tmp_path / "ader.npz")

        ft = build(tiny_split, fast_config, name="FT")
        snapshot = ft.model.state_dict()
        with pytest.raises(CheckpointError, match="extra strategy state"):
            load_checkpoint(ft, path)
        for name, value in ft.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name

    def test_v1_checkpoint_refused_for_pooled_strategy(
            self, tiny_split, fast_config, tmp_path):
        """A v1 archive carries no replay pool; silently resuming ADER
        from one would train a different algorithm, so it must raise."""
        strategy = build(tiny_split, fast_config, name="ADER")
        strategy.pretrain()
        path = tmp_path / "v1.npz"
        TestV1Compatibility().write_v1(strategy, path)
        fresh = build(tiny_split, fast_config, name="ADER")
        with pytest.raises(CheckpointError, match="replay pool"):
            load_checkpoint(fresh, path)


class TestV1Compatibility:
    def write_v1(self, strategy, path):
        """Re-create the pre-manifest archive layout byte-for-byte."""
        arrays = {}
        for name, param in strategy.model.named_parameters():
            arrays[f"param/{name}"] = param.data
        meta = {
            "version": 1,
            "strategy": strategy.name,
            "model_family": strategy.model.family,
            "users": sorted(strategy.states),
        }
        for user, state in strategy.states.items():
            arrays[f"user/{user}/interests"] = state.interests
            arrays[f"user/{user}/prev_interests"] = state.prev_interests
            arrays[f"user/{user}/created_span"] = state.created_span
            arrays[f"user/{user}/n_existing"] = np.array([state.n_existing])
            if state.sa_weights is not None:
                arrays[f"user/{user}/sa_weights"] = state.sa_weights.data
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(str(path), **arrays)

    def test_v1_archive_still_loads(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = tmp_path / "v1.npz"
        self.write_v1(strategy, path)

        fresh = build(tiny_split, fast_config)
        meta = load_checkpoint(fresh, path)
        assert meta["version"] == 1
        for (name, a), (_, b) in zip(strategy.model.named_parameters(),
                                     fresh.model.named_parameters()):
            assert np.allclose(a.data, b.data), name
        for user, state in strategy.states.items():
            assert np.allclose(state.interests,
                               fresh.states[user].interests)

    def test_v1_verify_reads_every_array(self, tiny_split, fast_config,
                                         tmp_path):
        strategy = build(tiny_split, fast_config)
        path = tmp_path / "v1.npz"
        self.write_v1(strategy, path)
        assert verify_checkpoint(path)["version"] == 1
        # a torn v1 file is still rejected (zip CRC / EOF checks)
        torn = tmp_path / "torn-v1.npz"
        torn.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            verify_checkpoint(torn)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _write_archive(path, arrays, manifest, savez):
    """Write ``arrays`` plus a manifest re-hashed over them, followed by
    the whole-file SHA-256 trailer, as ``save_checkpoint`` lays it out."""
    manifest = dict(manifest, arrays={
        name: {"sha256": _digest(arr), "shape": list(arr.shape),
               "dtype": str(arr.dtype)}
        for name, arr in arrays.items()})
    payload = dict(arrays, manifest=np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8))
    buffer = io.BytesIO()
    savez(buffer, **payload)
    blob = buffer.getvalue()
    trailer = (b"\nrepro-checkpoint-sha256:"
               + hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n")
    path.write_bytes(blob + trailer)
    return path


def _members(path):
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    manifest = json.loads(members.pop("manifest").tobytes().decode("utf-8"))
    return manifest, members


def assert_same_state(expected, actual):
    """Parameters, every user-state field and RNG streams are bit-identical,
    dtypes included (an empty array's dtype carries no data and may
    differ)."""
    for (name, a), (_, b) in zip(expected.model.named_parameters(),
                                 actual.model.named_parameters()):
        assert a.data.dtype == b.data.dtype, name
        assert np.array_equal(a.data, b.data), name
    assert sorted(expected.states) == sorted(actual.states)
    for user, state in expected.states.items():
        restored = actual.states[user]
        for field in ("interests", "prev_interests", "created_span"):
            a, b = getattr(state, field), getattr(restored, field)
            assert a.shape == b.shape, (user, field)
            assert a.size == 0 or a.dtype == b.dtype, (user, field)
            assert np.array_equal(a, b), (user, field)
        assert state.n_existing == restored.n_existing, user
        assert state.expanded_this_span == restored.expanded_this_span, user
        if state.sa_weights is not None:
            a, b = state.sa_weights.data, restored.sa_weights.data
            assert a.dtype == b.dtype and a.shape == b.shape, user
            assert np.array_equal(a, b), user
    for name, gen in expected.random_generators().items():
        assert (gen.bit_generator.state
                == actual.random_generators()[name].bit_generator.state), name


def heterogeneous(strategy):
    """Give users different interest counts: two expanded, one with the
    zero-row state ``load_checkpoint(create_missing=True)`` builds."""
    users = sorted(strategy.states)
    strategy.model.expand_user(strategy.states[users[0]], 3, span=1)
    strategy.model.expand_user(strategy.states[users[1]], 1, span=1)
    strategy.states[users[1]].expanded_this_span = True
    if strategy.model.family == "dr":
        dim = strategy.model.dim
        strategy.states[users[2]] = UserState(
            user=users[2], interests=np.zeros((0, dim)),
            prev_interests=np.zeros((0, dim)),
            created_span=np.zeros(0, dtype=np.int64), n_existing=0)
    return users


class TestV2Compatibility:
    def write_v2(self, strategy, path, span=None):
        """Re-create the v2 layout: one deflated member per user per
        field, a per-array SHA-256 manifest and the whole-file trailer."""
        arrays = {}
        for name, param in strategy.model.named_parameters():
            arrays[f"param/{name}"] = param.data.copy()
        for user, state in sorted(strategy.states.items()):
            arrays[f"user/{user}/interests"] = state.interests
            arrays[f"user/{user}/prev_interests"] = state.prev_interests
            arrays[f"user/{user}/created_span"] = state.created_span
            arrays[f"user/{user}/n_existing"] = np.array([state.n_existing])
            arrays[f"user/{user}/expanded"] = np.array(
                [state.expanded_this_span])
            if state.sa_weights is not None:
                arrays[f"user/{user}/sa_weights"] = state.sa_weights.data.copy()
        for name, arr in sorted(strategy.extra_state().items()):
            arrays[f"extra/{name}"] = np.asarray(arr)
        manifest = {
            "version": 2,
            "strategy": strategy.name,
            "model_family": strategy.model.family,
            "users": sorted(strategy.states),
            "span": span,
            "fingerprint": run_fingerprint(strategy),
            "rng": {name: gen.bit_generator.state
                    for name, gen in strategy.random_generators().items()},
        }
        return _write_archive(path, arrays, manifest, np.savez_compressed)

    @pytest.mark.parametrize("model", ["ComiRec-DR", "ComiRec-SA"])
    def test_v2_archive_loads_bit_identically(self, tiny_split, fast_config,
                                              tmp_path, model):
        strategy = build(tiny_split, fast_config, model=model)
        strategy.pretrain()
        strategy.train_span(1)
        heterogeneous(strategy)
        path = self.write_v2(strategy, tmp_path / "v2.npz", span=1)

        fresh = build(tiny_split, fast_config, model=model)
        meta = load_checkpoint(fresh, path)
        assert meta["version"] == 2 and meta["span"] == 1
        assert_same_state(strategy, fresh)

    def test_v2_verify_reports_version_and_rejects_flipped_byte(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = self.write_v2(strategy, tmp_path / "v2.npz")
        assert verify_checkpoint(path)["version"] == 2
        assert checkpoint_info(path)["num_arrays"] > 5 * len(strategy.states)

        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        size = path.stat().st_size
        for offset in (0, size // 3, size // 2, size - 1):
            flip_one_byte(path, offset=offset)
            with pytest.raises(CheckpointError):
                verify_checkpoint(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(fresh, path)
            for name, value in fresh.model.state_dict().items():
                assert np.array_equal(value, snapshot[name]), (offset, name)
            flip_one_byte(path, offset=offset)
        verify_checkpoint(path)


class TestPackedLayout:
    """Format v3 packs each per-user field into one archive member."""

    def test_heterogeneous_k_with_zero_row_user(self, tiny_split,
                                                fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        users = heterogeneous(strategy)
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        _, members = _members(path)
        rows = [strategy.states[u].num_interests for u in users]
        assert members["users/rows"].tolist() == rows
        assert members["users/interests"].shape == (sum(rows), 10)

        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        assert_same_state(strategy, fresh)
        assert fresh.states[users[2]].interests.shape == (0, 10)

    def test_sa_weights_with_heterogeneous_k(self, tiny_split, fast_config,
                                             tmp_path):
        strategy = build(tiny_split, fast_config, model="ComiRec-SA")
        strategy.pretrain()
        heterogeneous(strategy)
        counts = {s.num_interests for s in strategy.states.values()}
        assert len(counts) > 1
        path = save_checkpoint(strategy, tmp_path / "sa.npz")
        _, members = _members(path)
        total = sum(s.num_interests for s in strategy.states.values())
        assert members["users/sa_weights"].shape == (
            strategy.model.attention_dim, total)

        fresh = build(tiny_split, fast_config, model="ComiRec-SA")
        load_checkpoint(fresh, path)
        assert_same_state(strategy, fresh)

    def test_empty_states(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.states.clear()
        path = save_checkpoint(strategy, tmp_path / "empty.npz")
        meta = verify_checkpoint(path)
        assert meta["users"] == []
        assert meta["arrays"]["users/interests"]["shape"] == [0, 10]

        fresh = build(tiny_split, fast_config)
        fresh.states.clear()
        load_checkpoint(fresh, path)
        assert_same_state(strategy, fresh)

    @pytest.mark.parametrize("model", ["ComiRec-DR", "ComiRec-SA"])
    def test_float32_state_keeps_its_dtype(self, tiny_split, fast_config,
                                           tmp_path, model):
        """The DR case also holds a float64 zero-row user, which must not
        widen the packed float32 members."""
        with use_backend("fast"):  # what REPRO_BACKEND=fast selects
            strategy = build(tiny_split, fast_config, model=model)
            strategy.pretrain()
            heterogeneous(strategy)
            path = save_checkpoint(strategy, tmp_path / "f32.npz")
            fresh = build(tiny_split, fast_config, model=model)
            load_checkpoint(fresh, path)
        state = strategy.states[sorted(strategy.states)[0]]
        assert state.interests.dtype == np.float32
        _, members = _members(path)
        assert members["users/interests"].dtype == np.float32
        assert members["users/prev_interests"].dtype == np.float32
        assert_same_state(strategy, fresh)

    def test_member_count_does_not_grow_with_users(self, tiny_split,
                                                   fast_config, tmp_path):
        config = dataset_config("taobao", scale=1.0)
        world = generate_world(config)
        split = split_time_spans(world.interactions,
                                 num_items=config.num_items,
                                 T=T_SPANS, alpha=ALPHA)
        counts = []
        for name, data in (("tiny", tiny_split), ("taobao", split)):
            strategy = make_strategy("IMSR", "ComiRec-DR", data, fast_config)
            path = save_checkpoint(strategy, tmp_path / f"{name}.npz")
            with np.load(path, allow_pickle=False) as archive:
                counts.append(len(archive.files))
            assert checkpoint_info(path)["num_arrays"] == counts[-1]
            counts.append(len(strategy.states))
        assert counts[0] == counts[2]  # archive members
        assert counts[1] < counts[3]   # users

    @pytest.mark.parametrize("corruption", ["sum", "length", "negative"])
    def test_row_count_mismatch_rejected_before_mutation(
            self, tiny_split, fast_config, tmp_path, corruption):
        """Row counts that disagree with the packed members are refused
        even when every checksum matches (a writer bug, not bit rot)."""
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        manifest, members = _members(path)
        rows = members["users/rows"].copy()
        if corruption == "sum":
            rows[0] += 1
        elif corruption == "length":
            rows = rows[:-1]
        else:
            rows[0], rows[1] = -1, rows[1] + rows[0] + 1
        members["users/rows"] = rows
        _write_archive(path, members, manifest, np.savez)

        with pytest.raises(CheckpointError, match="row counts|per-user counts"):
            verify_checkpoint(path)
        fresh = build(tiny_split, fast_config)  # differs from the file
        before = {u: s.interests.copy() for u, s in fresh.states.items()}
        snapshot = fresh.model.state_dict()
        with pytest.raises(CheckpointError):
            load_checkpoint(fresh, path)
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name
        for user, interests in before.items():
            assert np.array_equal(fresh.states[user].interests, interests)


class TestIOFaults:
    """Atomic writes survive planned IO failures and torn writes."""

    def test_io_error_leaves_previous_checkpoint_intact(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        before = path.read_bytes()

        strategy.pretrain()  # change the state the next save would write
        with active(FaultPlan().io_error_on_write(0)):
            with pytest.raises(InjectedIOError):
                save_checkpoint(strategy, path)

        assert path.read_bytes() == before
        assert not sorted(tmp_path.glob("*.tmp"))  # no staging leftovers
        verify_checkpoint(path)

    def test_crash_during_write_leaves_previous_checkpoint_intact(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        before = path.read_bytes()

        strategy.pretrain()
        with active(FaultPlan().crash_during_write(0)):
            with pytest.raises(SimulatedCrash):
                save_checkpoint(strategy, path)  # dies before os.replace

        assert path.read_bytes() == before
        assert not sorted(tmp_path.glob("*.tmp"))  # no staging leftovers
        verify_checkpoint(path)

    def test_concurrent_writers_do_not_clobber_each_others_temp(
            self, tmp_path):
        """Staging names are unique per call, so a write never touches
        another writer's in-flight temp file for the same target."""
        from repro.persistence import atomic_write_bytes

        target = tmp_path / "ckpt.npz"
        # another process's staging file, under the old fixed sibling name
        other = tmp_path / "ckpt.npz.tmp"
        other.write_bytes(b"other writer's in-flight bytes")

        atomic_write_bytes(b"payload", target)
        assert target.read_bytes() == b"payload"
        assert other.read_bytes() == b"other writer's in-flight bytes"

    def test_round_trip_after_injected_failure(self, tiny_split, fast_config,
                                               tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = tmp_path / "ckpt.npz"
        with active(FaultPlan().io_error_on_write(0)):
            with pytest.raises(InjectedIOError):
                save_checkpoint(strategy, path)
        assert not path.exists()

        save_checkpoint(strategy, path)  # retry without the fault succeeds
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        for user in list(strategy.states)[:5]:
            assert np.allclose(strategy.score_user(user),
                               fresh.score_user(user))
