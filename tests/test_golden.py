"""Golden values for the float64 paper-exact paths.

Per-user IMSR runs on ``tiny_split`` for each base model plus one short
prequential stream, pinned to the values they produced before the
training step and the routing loop were shared between the span
trainer, the micro-batched trainer and the stream.  A refactor of
those paths must reproduce these numbers; never re-record them to make
a refactor pass.

Metrics and checksums compare with ``rel=1e-12`` so that other
numpy/BLAS builds (CI) pass; on one machine the runs are bit-identical.
The stream's exactly-once chain is a hash of trained event sequence
numbers and is compared exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import make_strategy, run_strategy
from repro.incremental import TrainConfig
from repro.stream import StreamConfig, events_from_split, run_stream

REL = 1e-12


def golden_config() -> TrainConfig:
    return TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                       num_negatives=4, seed=0)


def build(tiny_split, model_name: str):
    return make_strategy(
        "IMSR", model_name, tiny_split, golden_config(),
        model_kwargs={"dim": 10, "num_interests": 2},
        strategy_kwargs={"c1": 0.2})


def checksums(strategy) -> dict:
    """Order-independent float digests of the model and user interests."""
    params = [p.data for _, p in sorted(strategy.model.named_parameters())]
    interests = [strategy.states[u].interests for u in sorted(strategy.states)]
    return {
        "param_sum": float(sum(p.sum() for p in params)),
        "param_abs": float(sum(np.abs(p).sum() for p in params)),
        "interest_sum": float(sum(x.sum() for x in interests)),
        "interest_abs": float(sum(np.abs(x).sum() for x in interests)),
        "interest_rows": int(sum(x.shape[0] for x in interests)),
    }


def span_run(tiny_split, model_name: str) -> dict:
    strategy = build(tiny_split, model_name)
    result = run_strategy(strategy, tiny_split, keep_per_user=False)
    return {"hr": [r.hr for r in result.per_span],
            "ndcg": [r.ndcg for r in result.per_span],
            **checksums(strategy)}


def stream_run(tiny_split, tmp_path) -> dict:
    strategy = build(tiny_split, "ComiRec-DR")
    result = run_stream(
        strategy, events=events_from_split(tiny_split, seed=0)[:60],
        config=StreamConfig(checkpoint_every=16, backoff_base=0.0),
        checkpoint_dir=tmp_path / "run")
    return {"chain": result.chain, "trained": result.trained,
            "recall": result.window_recall, "ndcg": result.window_ndcg,
            **checksums(strategy)}


GOLDEN_SPANS: dict = {
    "ComiRec-DR": {
        "hr": [0.5943396226415094, 0.48214285714285715, 0.2905982905982906],
        "ndcg": [0.26514221006840055, 0.2021208385785936, 0.13952847456480083],
        "param_sum": 52.36290347586581,
        "param_abs": 256.74271570536615,
        "interest_sum": -73.85960952320954,
        "interest_abs": 327.28045781950993,
        "interest_rows": 161,
    },
    "ComiRec-SA": {
        "hr": [0.6037735849056604, 0.49107142857142855, 0.38461538461538464],
        "ndcg": [0.29371319663903867, 0.2151772830819946, 0.16504784601569156],
        "param_sum": 44.97100539820615,
        "param_abs": 220.4302502249703,
        "interest_sum": -77.00713618716979,
        "interest_abs": 240.13594318550327,
        "interest_rows": 161,
    },
    "MIND": {
        "hr": [0.5943396226415094, 0.48214285714285715, 0.42735042735042733],
        "ndcg": [0.261422707482705, 0.20263501380016255, 0.17937117146054074],
        "param_sum": 40.56201700507812,
        "param_abs": 258.4884607137235,
        "interest_sum": -71.3096770228323,
        "interest_abs": 313.4440882973283,
        "interest_rows": 161,
    },
}

GOLDEN_STREAM: dict = {
    "chain": "a9e6bf40da8e02933bade474aaed337845f7350f157f3c5f13140316ac92ede9",
    "trained": 44,
    "recall": 0.5,
    "ndcg": 0.20995951362150464,
    "param_sum": 16.182430462055123,
    "param_abs": 196.97523557068195,
    "interest_sum": -13.246042309864908,
    "interest_abs": 72.203875427923,
    "interest_rows": 32,
}


def assert_matches(got: dict, expected: dict) -> None:
    assert set(got) == set(expected)
    for key, value in expected.items():
        if isinstance(value, (str, int)):
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, rel=REL, abs=0.0), key


@pytest.mark.parametrize("model_name", ["ComiRec-DR", "ComiRec-SA", "MIND"])
def test_per_user_imsr_golden(tiny_split, model_name):
    assert_matches(span_run(tiny_split, model_name), GOLDEN_SPANS[model_name])


def test_stream_golden(tiny_split, tmp_path):
    assert_matches(stream_run(tiny_split, tmp_path), GOLDEN_STREAM)
