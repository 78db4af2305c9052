"""Synthetic *interest world*: the stand-in for Amazon / Taobao logs.

The paper evaluates on four proprietary-scale public logs which are not
available offline, so we generate streams with the same structural
properties the paper's mechanisms exploit:

* items cluster into latent **topics** (ground-truth interests);
* each user holds a small set of **active topics** that (a) reappear across
  time spans (the paper cites >80% reappearance) and (b) **grows**: users
  adopt new topics over time, at a dataset-dependent rate — the phenomenon
  NID/PIT exist to capture;
* topic item-popularity is skewed (Zipf), and the item catalog widens over
  time so later spans contain genuinely new items;
* user interest composition drifts slowly (topic mixture weights wander),
  which is what EIR's "modest drifting" accommodates.

Ground truth (each user's active-topic timeline) is retained on the
generated world so tests and case studies can verify that e.g. NID fires
exactly for users who adopted a new topic.

**Draw-for-draw contract.** Every seed-averaged number in the repo
depends on which world a seed produces, so the sequence of calls the
generator makes on its seeded ``numpy.random.Generator`` is fixed.
Each interaction is drawn with the calls ``Generator.choice`` would
make: one ``random()`` for the noise test, then either
``integers(0, n)`` for a noise item, or one ``random()`` searched into
the user's topic CDF and one into the topic's Zipf CDF.  The
sampling tables (per ``(topic, period)`` live items and CDF, per period
released items, per ``emit`` the user's topic CDF) are built and
validated once, with ``choice``'s checks and error messages, instead of
on every draw; ``tests/test_world_equivalence.py`` keeps the per-draw
generator as an oracle and asserts bitwise-identical worlds and
identical errors.

Known quirk, kept for reproducibility: a topic with no item released by
the current period draws from its *whole* pool, unreleased items
included (and a topic with no items at all draws from the whole
catalog).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .schema import Interaction


@dataclass
class WorldConfig:
    """Knobs for the synthetic interest world.

    The per-dataset presets in :mod:`repro.data.datasets` instantiate this
    to mirror the paper's qualitative dataset contrasts.
    """

    num_users: int = 120
    num_items: int = 800
    num_topics: int = 24
    latent_dim: int = 16
    #: topics each user starts with (the paper pretrains with K=4 interests)
    init_topics_per_user: Tuple[int, int] = (2, 4)
    #: probability per span that a user adopts new topics
    new_topic_rate: float = 0.35
    #: how many topics are adopted when adoption happens
    new_topics_range: Tuple[int, int] = (1, 2)
    #: number of incremental time spans (paper: T = 6)
    num_spans: int = 6
    #: interactions per user in the pretraining period
    pretrain_events_per_user: Tuple[int, int] = (30, 60)
    #: interactions per user per incremental span
    span_events_per_user: Tuple[int, int] = (8, 16)
    #: Zipf exponent for item popularity inside a topic
    popularity_exponent: float = 1.2
    #: probability an interaction is pure noise (random item)
    noise_rate: float = 0.05
    #: probability a user is active (interacts at all) in a given span;
    #: inactive-then-returning users are where forgetting hurts most
    span_activity: float = 0.75
    #: fraction of users who are *not* present during pretraining and
    #: instead arrive cold at a later span (growing user base)
    cold_start_fraction: float = 0.0
    #: fraction of items available from the start; the rest are released
    #: gradually across spans so later spans contain new items
    initial_catalog_fraction: float = 0.7
    #: std of the per-span random walk applied to users' topic weights
    drift_std: float = 0.15
    seed: int = 0


@dataclass
class InterestWorld:
    """A generated world: the interaction stream plus its ground truth."""

    config: WorldConfig
    interactions: List[Interaction]
    #: item -> topic id
    item_topics: np.ndarray
    #: per user, per period (0 = pretraining, 1..T = spans): active topic set
    user_topic_timeline: Dict[int, List[Set[int]]]
    #: topic latent centers, (num_topics, latent_dim)
    topic_centers: np.ndarray
    #: items available from each period onward: period index per item
    item_release_period: np.ndarray

    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_items(self) -> int:
        return self.config.num_items

    def new_topic_users(self, period: int) -> Set[int]:
        """Users whose active-topic set grew at ``period`` (ground truth).

        ``period`` is an incremental span, ``1..num_spans``; any other
        value raises :class:`ValueError`.
        """
        if not 1 <= period <= self.config.num_spans:
            raise ValueError(
                f"period must be in 1..{self.config.num_spans}, got {period}")
        return {user for user, timeline in self.user_topic_timeline.items()
                if timeline[period] - timeline[period - 1]}


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|`` for float64 ``p``
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _require_nonempty(size: int) -> None:
    if size == 0:
        raise ValueError("a cannot be empty unless no samples are taken")


def _sampling_cdf(p: np.ndarray) -> List[float]:
    """Check ``p`` as ``Generator.choice(a, p=p)`` does and return its CDF.

    ``a[bisect_right(cdf, rng.random())]`` then returns the element
    ``rng.choice(a, p=p)`` would, from the same single draw: ``choice``
    searches ``cumsum(p) / cumsum(p)[-1]`` for one ``random()`` value.
    """
    _require_nonempty(p.size)
    values = p.tolist()
    total, carry = values[0], 0.0  # choice checks a Kahan sum of p
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _P_ATOL:
        raise ValueError("Probabilities do not sum to 1. See Notes section "
                         "of docstring for more information.")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_world(config: WorldConfig) -> InterestWorld:
    """Generate an :class:`InterestWorld` from ``config`` (deterministic)."""
    rng = np.random.default_rng(config.seed)

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

    # Sampling tables, each built and checked on its first draw (where
    # the per-draw choice call would first have checked it): per (topic,
    # period) the candidate items and their Zipf CDF, per period the
    # released items that noise draws pick from.
    topic_items: List[np.ndarray] = [
        np.where(item_topics == t)[0] for t in range(config.num_topics)
    ]
    item_tables: Dict[Tuple[int, int], Tuple[List[int], List[float]]] = {}
    released: Dict[int, List[int]] = {}

    def items_for(topic: int, period: int) -> Tuple[List[int], List[float]]:
        table = item_tables.get((topic, period))
        if table is None:
            pool = topic_items[topic]
            live = pool[release[pool] <= period]
            if live.size == 0:
                live = pool if pool.size else np.arange(config.num_items)
            cdf = _sampling_cdf(_zipf_weights(live.size, config.popularity_exponent))
            table = item_tables[(topic, period)] = (live.tolist(), cdf)
        return table

    def released_by(period: int) -> List[int]:
        live = released.get(period)
        if live is None:
            live = np.where(release <= period)[0].tolist()
            _require_nonempty(len(live))
            released[period] = live
        return live

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
            topic_cdf = None  # checked at the first topic draw
            times = np.sort(rng.uniform(t_lo, t_hi, size=count))
            for ts in times.tolist():
                # rng.random() is bitwise rng.uniform(); each branch makes
                # the calls rng.choice(live) / rng.choice(a, p=p) make
                if rng.random() < config.noise_rate:
                    live = released_by(period)
                    item = live[rng.integers(0, len(live))]
                else:
                    if topic_cdf is None:
                        topic_cdf = _sampling_cdf(probs)
                    topic = topics[bisect_right(topic_cdf, rng.random())]
                    live, cdf = items_for(topic, period)
                    item = live[bisect_right(cdf, rng.random())]
                interactions.append(Interaction(user, item, ts))

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
