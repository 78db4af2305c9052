"""The shared training-step tail: every path that trains — per-user,
micro-batched and streaming — goes through
``IncrementalStrategy._take_step``, so fault probing, non-finite
containment and step telemetry behave identically on all three."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import make_strategy
from repro.faults import FaultPlan, active
from repro.incremental import TrainConfig
from repro.obs import trace as obs
from repro.stream import StreamConfig, events_from_split, run_stream
from repro.stream.pipeline import _Pipeline

MODES = ("per-user", "batched", "stream")
STREAM_CONFIG = StreamConfig(checkpoint_every=16, backoff_base=0.0)
#: the poisoned step, counted from the first step of the path under test
POISON_OFFSET = 3


def build(tiny_split, mode: str):
    config = TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                         num_negatives=4, seed=0,
                         users_per_batch=4 if mode == "batched" else 1)
    return make_strategy("FT", "ComiRec-DR", tiny_split, config,
                         model_kwargs={"dim": 10, "num_interests": 2})


def pretrain_steps(tiny_split) -> int:
    """Steps the (per-user) pretraining attempts before the stream starts."""
    strategy = build(tiny_split, "stream")
    strategy.pretrain()
    return strategy._fault_step


def run(tiny_split, mode: str, trace_dir, plan=None):
    """Train along ``mode``'s path under tracing; returns the strategy
    and the trace's metrics snapshot."""
    strategy = build(tiny_split, mode)
    with obs.tracing(trace_dir) as tracer, active(plan or FaultPlan()):
        if mode == "stream":
            run_stream(strategy,
                       events=events_from_split(tiny_split, seed=0)[:60],
                       config=STREAM_CONFIG)
        else:
            strategy.pretrain()
    return strategy, tracer.metrics.snapshot()


def value(metrics: dict, name: str) -> float:
    return metrics.get(name, {}).get("value", 0.0)


@pytest.mark.parametrize("mode", MODES)
def test_nan_loss_skips_exactly_one_step(tiny_split, tmp_path, mode):
    offset = pretrain_steps(tiny_split) if mode == "stream" else 0
    clean, clean_metrics = run(tiny_split, mode, tmp_path / "clean")
    plan = FaultPlan().nan_loss_at_step(offset + POISON_OFFSET)
    poisoned, metrics = run(tiny_split, mode, tmp_path / "poisoned", plan)

    assert len(plan.log) == 1
    assert value(clean_metrics, "train.nonfinite_skips") == 0
    assert value(metrics, "train.nonfinite_skips") == 1
    assert value(metrics, "train.steps") == \
        value(clean_metrics, "train.steps") - 1
    # the skipped step still consumed its probe index
    assert poisoned._fault_step == clean._fault_step
    for _, param in poisoned.model.named_parameters():
        assert np.isfinite(param.data).all()


def test_stream_trace_counts_each_step_taken(tiny_split, tmp_path):
    strategy = build(tiny_split, "stream")
    events = events_from_split(tiny_split, seed=0)[:60]
    pipeline = _Pipeline(strategy, events, STREAM_CONFIG, None, False,
                         "tiny", "ComiRec-DR")
    taken = []
    train_one = pipeline._train_one

    def counted(user, item, history):
        took_step = train_one(user, item, history)
        taken.append(took_step)
        return took_step

    pipeline._train_one = counted
    with obs.tracing(tmp_path) as tracer:
        result = pipeline.run()
    metrics = tracer.metrics.snapshot()
    assert sum(taken) == result.trained > 0
    assert value(metrics, "train.nonfinite_skips") == 0
    # train.steps also counts the pretraining that precedes the stream
    assert value(metrics, "train.steps") == \
        pretrain_steps(tiny_split) + sum(taken)
    assert metrics["train.loss"]["count"] == value(metrics, "train.steps")
