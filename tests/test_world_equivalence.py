"""Draw-for-draw equivalence of ``generate_world`` with its per-draw form.

``_oracle_generate_world`` below is the generator as it was when every
interaction made its own ``rng.choice(..., p=...)`` call, rebuilding
the topic's live pool, Zipf weights and CDF each time.  It is kept here,
verbatim, only as a test oracle: the library version must consume the
same random stream and therefore produce bitwise-identical worlds, and
must raise the same exception with the same message wherever the
oracle raises.  ``test_sampling_cdf_matches_choice`` also checks the
CDF helper against ``Generator.choice`` directly, including checks no
world config can reach (negative or infinite probabilities).

Both sides run on the installed numpy, so the comparison holds for any
numpy version CI uses.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.data import DATASET_NAMES, WorldConfig, dataset_config, generate_world
from repro.data.schema import Interaction
from repro.data.synthetic import InterestWorld, _sampling_cdf


def _oracle_zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _oracle_generate_world(config: WorldConfig) -> InterestWorld:
    """Generate an :class:`InterestWorld` from ``config`` (deterministic)."""
    rng = np.random.default_rng(config.seed)
    n_periods = config.num_spans + 1  # period 0 is the pretraining window

    # --- topics and items -------------------------------------------------
    topic_centers = rng.normal(size=(config.num_topics, config.latent_dim))
    item_topics = rng.integers(0, config.num_topics, size=config.num_items)
    # Release schedule: a prefix of items is live from period 0, the rest
    # are spread uniformly over the incremental spans.
    release = np.zeros(config.num_items, dtype=np.int64)
    n_late = int(round(config.num_items * (1.0 - config.initial_catalog_fraction)))
    if n_late > 0 and config.num_spans > 0:
        late_items = rng.choice(config.num_items, size=n_late, replace=False)
        release[late_items] = rng.integers(1, config.num_spans + 1, size=n_late)

    # Pre-compute, per (topic, period), the candidate items and popularity.
    topic_items: List[np.ndarray] = [
        np.where(item_topics == t)[0] for t in range(config.num_topics)
    ]

    def items_for(topic: int, period: int) -> Tuple[np.ndarray, np.ndarray]:
        pool = topic_items[topic]
        live = pool[release[pool] <= period]
        if live.size == 0:
            live = pool if pool.size else np.arange(config.num_items)
        return live, _oracle_zipf_weights(live.size, config.popularity_exponent)

    # --- users -------------------------------------------------------------
    interactions: List[Interaction] = []
    timeline: Dict[int, List[Set[int]]] = {}

    span_width = 0.5 / config.num_spans if config.num_spans else 0.5

    n_cold = int(round(config.num_users * config.cold_start_fraction))
    cold_users = set(
        rng.choice(config.num_users, size=n_cold, replace=False).tolist()
    ) if n_cold and config.num_spans else set()
    arrival_span = {
        user: int(rng.integers(1, config.num_spans + 1)) for user in cold_users
    }

    for user in range(config.num_users):
        k0 = rng.integers(config.init_topics_per_user[0],
                          config.init_topics_per_user[1] + 1)
        active: Set[int] = set(
            rng.choice(config.num_topics, size=k0, replace=False).tolist()
        )
        weights: Dict[int, float] = {t: float(rng.uniform(0.5, 1.5)) for t in active}
        user_timeline = [set(active)]

        def emit(count: int, period: int, t_lo: float, t_hi: float) -> None:
            topics = sorted(active)
            probs = np.array([max(weights[t], 1e-3) for t in topics])
            probs = probs / probs.sum()
            times = np.sort(rng.uniform(t_lo, t_hi, size=count))
            for ts in times:
                if rng.uniform() < config.noise_rate:
                    live = np.where(release <= period)[0]
                    item = int(rng.choice(live))
                else:
                    topic = int(rng.choice(topics, p=probs))
                    live, pop = items_for(topic, period)
                    item = int(rng.choice(live, p=pop))
                interactions.append(Interaction(user, item, float(ts)))

        # pretraining period covers timestamps [0, 0.5); cold-start users
        # produce nothing until their arrival span
        n_pre = rng.integers(config.pretrain_events_per_user[0],
                             config.pretrain_events_per_user[1] + 1)
        if user not in cold_users:
            emit(int(n_pre), 0, 0.0, 0.5)

        # incremental spans cover [0.5, 1.0), equally divided
        for span in range(1, config.num_spans + 1):
            # topic drift: mixture weights take a small random-walk step
            for t in list(weights):
                weights[t] = max(0.05, weights[t] + rng.normal(0, config.drift_std))
            # new-interest adoption
            if rng.uniform() < config.new_topic_rate:
                n_new = rng.integers(config.new_topics_range[0],
                                     config.new_topics_range[1] + 1)
                candidates = [t for t in range(config.num_topics) if t not in active]
                if candidates:
                    chosen = rng.choice(candidates,
                                        size=min(int(n_new), len(candidates)),
                                        replace=False)
                    for t in chosen:
                        active.add(int(t))
                        # newly adopted interests start strong
                        weights[int(t)] = float(rng.uniform(1.0, 2.0))
            user_timeline.append(set(active))
            if user in cold_users and span < arrival_span[user]:
                continue  # user has not arrived yet
            arriving_now = user in cold_users and span == arrival_span[user]
            if not arriving_now and rng.uniform() >= config.span_activity:
                continue  # user sits this span out (returns later)
            n_events = rng.integers(config.span_events_per_user[0],
                                    config.span_events_per_user[1] + 1)
            lo = 0.5 + (span - 1) * span_width
            emit(int(n_events), span, lo, lo + span_width)

        timeline[user] = user_timeline

    interactions.sort(key=lambda e: e.timestamp)
    return InterestWorld(
        config=config,
        interactions=interactions,
        item_topics=item_topics,
        user_topic_timeline=timeline,
        topic_centers=topic_centers,
        item_release_period=release,
    )


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_world(got: InterestWorld, want: InterestWorld) -> None:
    assert got.config == want.config
    assert ([(e.user, e.item, e.timestamp) for e in got.interactions]
            == [(e.user, e.item, e.timestamp) for e in want.interactions])
    assert all(type(e.item) is int and type(e.timestamp) is float
               for e in got.interactions)
    assert got.user_topic_timeline == want.user_topic_timeline
    assert _same_array(got.item_topics, want.item_topics)
    assert _same_array(got.item_release_period, want.item_release_period)
    assert _same_array(got.topic_centers, want.topic_centers)


def small(**overrides) -> WorldConfig:
    base = dict(num_users=24, num_items=120, num_topics=10, num_spans=4,
                pretrain_events_per_user=(12, 20),
                span_events_per_user=(4, 8), seed=11)
    base.update(overrides)
    return WorldConfig(**base)


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 90001])
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_presets_match_oracle(name, seed, scale):
    config = dataset_config(name, scale=scale, seed_offset=seed)
    assert_same_world(generate_world(config), _oracle_generate_world(config))


EDGE_CONFIGS = {
    "cold-start": small(cold_start_fraction=0.5),
    "no-spans": small(num_spans=0),
    # topics outnumber items, so some topic pools are empty and draw
    # from the whole catalog
    "empty-topics": small(num_items=12, num_topics=30),
    # most topics have no item live at period 0 and draw from their pool
    "unreleased-topics": small(initial_catalog_fraction=0.05),
    "no-noise": small(noise_rate=0.0),
    "all-noise": small(noise_rate=1.0),
    "infinite-exponent": small(popularity_exponent=float("inf")),
}


@pytest.mark.parametrize("label", sorted(EDGE_CONFIGS))
def test_edge_configs_match_oracle(label):
    config = EDGE_CONFIGS[label]
    assert_same_world(generate_world(config), _oracle_generate_world(config))


ERROR_CONFIGS = {
    "nan-exponent": small(popularity_exponent=float("nan")),
    "minus-inf-exponent": small(popularity_exponent=float("-inf")),
    "overflowing-exponent": small(popularity_exponent=-800.0),
    # nothing is live at period 0, so the first noise draw has no items
    "empty-catalog": small(initial_catalog_fraction=0.0),
    "too-many-initial-topics": small(num_topics=6, init_topics_per_user=(8, 9)),
    # users start with no topic, so the first topic draw has no topics
    "no-initial-topics": small(init_topics_per_user=(0, 0), noise_rate=0.5),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("label", sorted(ERROR_CONFIGS))
def test_errors_match_oracle(label):
    config = ERROR_CONFIGS[label]
    with pytest.raises(Exception) as want:
        _oracle_generate_world(config)
    with pytest.raises(type(want.value)) as got:
        generate_world(config)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


PROBABILITIES = {
    "uniform": np.full(5, 0.2),
    "zipf": np.arange(1, 41) ** -1.3 / (np.arange(1, 41) ** -1.3).sum(),
    "with-zeros": np.array([0.0, 0.5, 0.0, 0.5, 0.0]),
    "single": np.array([1.0]),
    "within-tolerance": np.array([0.5, 0.5 + 1e-9]),
    "off-by-1e-7": np.array([0.5, 0.5 + 1e-7]),
    "negative": np.array([-0.25, 1.25]),
    "nan": np.array([np.nan, 1.0]),
    "inf": np.array([np.inf, 1.0]),
    "empty": np.array([]),
}


@pytest.mark.parametrize("label", sorted(PROBABILITIES))
def test_sampling_cdf_matches_choice(label):
    """``a[bisect_right(cdf, random())]`` is ``choice(a, p=p)``, draw for draw."""
    p = PROBABILITIES[label]
    a = np.arange(100, 100 + p.size)
    try:
        np.random.default_rng(0).choice(a, p=p)
    except ValueError as want:
        with pytest.raises(ValueError) as got:
            _sampling_cdf(p)
        assert str(got.value) == str(want)
        return
    cdf = _sampling_cdf(p)
    ours, numpy_rng = np.random.default_rng(3), np.random.default_rng(3)
    items = a.tolist()
    for _ in range(300):
        assert items[bisect_right(cdf, ours.random())] == numpy_rng.choice(a, p=p)
        # the noise draws: one integers() call, and random() for uniform()
        assert items[ours.integers(0, len(items))] == numpy_rng.choice(a)
        assert ours.random() == numpy_rng.uniform()
    assert ours.bit_generator.state == numpy_rng.bit_generator.state
