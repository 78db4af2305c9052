"""The benchmark's workloads, one measured repeat of each, and the metrics.

Every workload runs IMSR on the ``taobao`` preset at scale 1 (144 users,
1200 items, T = 6).  The seed is the benchmark's only input: it becomes
the preset's ``seed_offset`` and ``TrainConfig.seed``, and the program
sees only the generated world and its event stream.

``exact-sa``
    ``run_strategy`` IMSR x ComiRec-SA with ``TrainConfig()`` defaults on
    the float64 backend, journaled to a checkpoint directory: the
    paper-exact per-user loop behind every Table III/V cell.
``throughput-sa``
    The same run with ``users_per_batch=8``, ``sparse_adam``,
    ``batched_snapshots`` and the ``fast`` backend, without persistence:
    padded group forwards, fused float32 kernels, the buffer pool.
``stream-dr``
    ``run_stream`` IMSR x ComiRec-DR with ``StreamConfig()`` defaults and
    a checkpoint directory, over the first :data:`STREAM_EVENTS` events of
    ``events_from_split``: per-event B2I routing plus a checkpoint and
    journal commit every 32 events.

An event's latency is the time until the model has learned it: on the
stream, the cycle from scoring the event to scoring the next one, so
commit stalls count; in the span protocol, the update of the event's
span (train, snapshot refresh, evaluation and checkpoint: Table V's time
per span).  Pretraining happens once and is not an update.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import backend as _backend
from repro.data import ALPHA, T_SPANS, dataset_config, generate_world, split_time_spans
from repro.experiments import SpanJournal, make_strategy, run_strategy
from repro.incremental import TrainConfig
from repro.persistence import CheckpointError, verify_checkpoint
from repro.stream import StreamConfig, StreamJournal, events_from_split, run_stream

from layers import (
    BACKEND_OPS,
    EVENT_BOUNDARY,
    SPAN_BOUNDARY,
    STEP_BOUNDARY,
    SpanRecorder,
    UpdateClock,
    pool_hit_ratio,
    tracing,
)

PRESET = "taobao"
STRATEGY = "IMSR"
#: HR/NDCG cutoff: evaluate_span's default and StreamConfig().k
K = 20
#: stream prefix, about one span: ~47 commit intervals.  Longer prefixes
#: reach the next span, whose worlds differ more from seed to seed
STREAM_EVENTS = 1500
#: every run measures at least this many repeats, so determinism
#: across repeats is always checked
MIN_REPEATS = 2
#: set-up samples per untraced run: set-up takes under a second and
#: varies most, so a run with fewer repeats sets up again on its own
MIN_SETUPS = 5
#: a tiny world run once before measuring, so imports and first-call
#: costs land outside the timed repeats
WARMUP_SCALE = 0.1
WARMUP_EVENTS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    backend: str
    config: Dict[str, object]
    journaled: bool
    stream: bool


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exact-sa", "ComiRec-SA", "default", {},
             journaled=True, stream=False),
    Workload("throughput-sa", "ComiRec-SA", "fast",
             {"users_per_batch": 8, "sparse_adam": True,
              "batched_snapshots": True},
             journaled=False, stream=False),
    Workload("stream-dr", "ComiRec-DR", "default", {},
             journaled=True, stream=True),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "hr20": "ratio",
    "ndcg20": "ratio",
    "events_per_s": "1/s",
    "event_p50_ms": "ms",
    "event_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


@dataclass
class Repeat:
    """One fresh setup plus one timed run of a workload."""

    setup_s: float
    run_s: float
    pretrain_s: float
    hr: float
    ndcg: float
    #: source events: trained-span interactions, or the stream prefix
    events: int
    attempted: int
    failed: int
    #: event latency percentiles of this repeat, and their sample count
    p50_ms: float
    p99_ms: float
    latency_samples: int
    #: must be identical across repeats of one seed
    digest: Tuple
    problems: List[str]
    facts: Dict[str, float] = field(default_factory=dict)


def _span(recorder: Optional[SpanRecorder], key: str):
    return recorder.span(key) if recorder is not None else contextlib.nullcontext()


def prepare(workload: Workload, seed: int, scale: float,
            recorder: Optional[SpanRecorder]):
    """World, split, event stream and a fresh strategy: the set-up."""
    with _span(recorder, "data.world"):
        config = dataset_config(PRESET, scale=scale, seed_offset=seed)
        world = generate_world(config)
    with _span(recorder, "data.split"):
        split = split_time_spans(world.interactions,
                                 num_items=config.num_items,
                                 T=T_SPANS, alpha=ALPHA)
    with _span(recorder, "data.events"):
        events = events_from_split(split, seed=seed)
    strategy = make_strategy(STRATEGY, workload.model, split,
                             TrainConfig(seed=seed, **workload.config))
    return split, events, strategy


def _verified(path: Path) -> Optional[str]:
    try:
        verify_checkpoint(path)
    except CheckpointError as err:
        return f"checkpoint {path.name} fails verification: {err}"
    return None


def _beats_random(hr: float, ndcg: float, num_items: int) -> List[str]:
    if not (math.isfinite(hr) and math.isfinite(ndcg)):
        return [f"non-finite metrics hr20={hr!r} ndcg20={ndcg!r}"]
    if hr <= K / num_items:
        return [f"hr20={hr:.4f} is no better than a random ranking "
                f"({K}/{num_items})"]
    return []


def _imsr_counts(strategy) -> Dict[str, float]:
    added = strategy.delta_k * sum(
        len(users) for users in strategy.expansion_log.values())
    trimmed = sum(sum(per_user.values())
                  for per_user in strategy.trim_log.values())
    return {"capsules_added": added, "capsules_trimmed": trimmed}


def _run_protocol(workload, split, strategy, checkpoint_dir, steps,
                  recorder) -> dict:
    start = time.perf_counter()
    with _span(recorder, "run"):
        result = run_strategy(strategy, split, dataset_name=PRESET,
                              model_name=workload.model,
                              checkpoint_dir=checkpoint_dir)
    end = time.perf_counter()
    hr, ndcg = result.hr, result.ndcg
    problems = _beats_random(hr, ndcg, split.num_items)
    if checkpoint_dir is not None:
        journal = SpanJournal.load(checkpoint_dir)
        last = max(journal.spans)
        problem = _verified(journal.checkpoint_path(last))
        if problem:
            problems.append(problem)
        if journal.spans[last].hr != result.per_span[-1].hr:
            problems.append(f"journaled span {last} hr differs from the run's")
    # every attempted step advances the strategy's fault-probe index; a
    # step contained as non-finite never reaches the optimizer
    attempted = strategy._fault_step
    skipped = attempted - len(steps.stamps)
    failed = skipped + len(result.incidents)
    span_events = [sum(len(data.all_items) for data in span.users.values())
                   for span in split.spans[:split.T - 1]]
    facts = _imsr_counts(strategy)
    facts.update(steps=attempted, steps_skipped=skipped,
                 eval_cases=sum(r.num_cases for r in result.per_span))
    return dict(run_s=end - start, end=end, hr=hr, ndcg=ndcg,
                events=sum(span_events), weights=span_events,
                attempted=attempted, failed=failed,
                digest=(repr(hr), repr(ndcg), attempted, failed),
                problems=problems, facts=facts)


def _run_stream(workload, split, strategy, events, checkpoint_dir,
                recorder) -> dict:
    start = time.perf_counter()
    with _span(recorder, "run"):
        result = run_stream(strategy, events, StreamConfig(),
                            dataset_name=PRESET, model_name=workload.model,
                            checkpoint_dir=checkpoint_dir)
    end = time.perf_counter()
    journal = StreamJournal.load(checkpoint_dir)
    counters = journal.state["counters"]
    nonfinite = counters["nonfinite_skips"]
    accounted = (result.trained + result.quarantined_total + result.dropped
                 + counters["skipped_no_history"] + nonfinite)
    problems = []
    if result.events != len(events) or accounted != len(events):
        problems.append(
            f"{len(events)} source events but {result.events} consumed and "
            f"{accounted} trained, quarantined, dropped or skipped")
    problem = _verified(journal.checkpoint_path(max(journal.intervals)))
    if problem:
        problems.append(problem)
    windows = [r for r in result.intervals if r.window_recall is not None]
    hr = float(np.mean([r.window_recall for r in windows]))
    ndcg = float(np.mean([r.window_ndcg for r in windows]))
    problems += _beats_random(hr, ndcg, split.num_items)
    failed = result.quarantined_total + result.dropped + nonfinite
    facts = _imsr_counts(strategy)
    facts.update(steps=strategy._fault_step, steps_skipped=nonfinite,
                 trained=result.trained,
                 quarantined=result.quarantined_total)
    return dict(run_s=end - start, end=end, hr=hr, ndcg=ndcg,
                events=len(events), weights=None,
                attempted=len(events), failed=failed,
                digest=(result.chain, repr(hr), repr(ndcg), failed),
                problems=problems, facts=facts)


def run_repeat(workload: Workload, seed: int, workroot: Path,
               scale: float = 1.0, stream_events: int = STREAM_EVENTS,
               recorder: Optional[SpanRecorder] = None) -> Repeat:
    """Set up from scratch and run once; ``recorder`` traces the run."""
    gc.collect()
    steps, updates = UpdateClock(), UpdateClock()
    boundary = EVENT_BOUNDARY if workload.stream else SPAN_BOUNDARY
    with _backend.use_backend(workload.backend), \
            tempfile.TemporaryDirectory(dir=workroot) as workdir, \
            steps.install(STEP_BOUNDARY), updates.install(boundary):
        start = time.perf_counter()
        split, events, strategy = prepare(workload, seed, scale, recorder)
        setup_s = time.perf_counter() - start
        checkpoint_dir = Path(workdir) if workload.journaled else None
        with tracing(recorder) if recorder is not None \
                else contextlib.nullcontext():
            if workload.stream:
                out = _run_stream(workload, split, strategy,
                                  events[:stream_events], checkpoint_dir,
                                  recorder)
            else:
                out = _run_protocol(workload, split, strategy,
                                    checkpoint_dir, steps, recorder)
        out["facts"]["pool_hit_ratio"] = pool_hit_ratio()
    cycles = updates.cycles_ms(out.pop("end"))
    weights = out.pop("weights") or [1] * len(cycles)
    pretrain_s = strategy.train_times[0] + strategy.extract_times[0]
    return Repeat(setup_s=setup_s, pretrain_s=pretrain_s,
                  p50_ms=weighted_percentile(cycles, weights, 50),
                  p99_ms=weighted_percentile(cycles, weights, 99),
                  latency_samples=sum(weights), **out)


def weighted_percentile(values: List[float], weights: List[int],
                        q: float) -> float:
    """The smallest value at or below which ``q`` percent of the total
    weight lies."""
    order = np.argsort(values)
    cumulative = np.cumsum(np.asarray(weights, dtype=float)[order])
    index = int(np.searchsorted(cumulative, q / 100.0 * cumulative[-1]))
    return float(np.asarray(values)[order][index])


def setup_seconds(workload: Workload, seed: int, scale: float) -> float:
    """Time one set-up on its own, for runs with few repeats."""
    gc.collect()
    with _backend.use_backend(workload.backend):
        start = time.perf_counter()
        prepare(workload, seed, scale, None)
        return time.perf_counter() - start


def _median(values) -> float:
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(repeats: List[Repeat],
               setups: List[float]) -> Dict[str, float]:
    first = repeats[0]
    return {
        "setup_s": _median(setups),
        "run_s": _median(r.run_s for r in repeats),
        "hr20": _median(r.hr for r in repeats),
        "ndcg20": _median(r.ndcg for r in repeats),
        "events_per_s": _median(r.events / (r.run_s - r.pretrain_s)
                                for r in repeats),
        "event_p50_ms": _median(r.p50_ms for r in repeats),
        "event_p99_ms": _median(r.p99_ms for r in repeats),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_share": 1.0 - first.failed / first.attempted,
    }


def per_layer(recorder: SpanRecorder, traced: List[Repeat],
              plain: List[Repeat]) -> Dict[str, float]:
    """Per-repeat layer figures of the traced repeats."""
    n = len(traced)

    def self_s(key):
        return recorder.self_s.get(key, 0.0) / n

    def calls(key):
        return recorder.calls.get(key, 0) / n

    def pct_ms(key, q):
        samples = recorder.durations.get(key)
        return 1e3 * float(np.percentile(samples, q)) if samples else 0.0

    def fact(name):
        return _median(r.facts.get(name, 0) for r in traced)

    added, trimmed = fact("capsules_added"), fact("capsules_trimmed")
    first = traced[0]
    out = {
        "data.world_s": self_s("data.world"),
        "data.split_s": self_s("data.split"),
        "data.events_s": self_s("data.events"),
        "data.sample_calls": calls("data.sample"),
        "data.sample_s": self_s("data.sample"),
        "models.interests_calls": calls("models.interests"),
        "models.interests_s": self_s("models.interests"),
        "models.loss_calls": calls("models.loss"),
        "models.loss_s": self_s("models.loss"),
        "models.batched_calls": calls("models.batched"),
        "models.batched_s": self_s("models.batched"),
        "autograd.backward_calls": calls("autograd.backward"),
        "autograd.backward_s": self_s("autograd.backward"),
        "nn.step_calls": calls("nn.step"),
        "nn.step_s": self_s("nn.step"),
        "nn.clip_s": self_s("nn.clip"),
    }
    for op in BACKEND_OPS:
        out[f"backend.{op}_calls"] = calls(f"backend.{op}")
        out[f"backend.{op}_s"] = self_s(f"backend.{op}")
    out.update({
        "backend.pool_hit_ratio": fact("pool_hit_ratio"),
        "incremental.pretrain_s": self_s("incremental.pretrain"),
        "incremental.train_span_s": self_s("incremental.train_span"),
        "incremental.snapshot_s": self_s("incremental.snapshot"),
        "incremental.steps": fact("steps"),
        "incremental.steps_skipped": fact("steps_skipped"),
        "incremental.nid_calls": calls("incremental.nid"),
        "incremental.nid_s": self_s("incremental.nid"),
        "incremental.pit_calls": calls("incremental.pit"),
        "incremental.pit_s": self_s("incremental.pit"),
        "incremental.eir_calls": calls("incremental.eir"),
        "incremental.eir_s": self_s("incremental.eir"),
        "incremental.capsules_added": added,
        "incremental.capsule_keep_ratio":
            (added - trimmed) / added if added else 0.0,
        "eval.evaluate_s": self_s("eval.evaluate"),
        "eval.score_users_s": self_s("eval.score_users"),
        "eval.cases": fact("eval_cases"),
        "persistence.save_calls": calls("persistence.save"),
        "persistence.save_s": self_s("persistence.save"),
        "persistence.save_bytes":
            recorder.amount.get("persistence.save", 0) / n,
        "persistence.load_calls": calls("persistence.load"),
        "persistence.load_s": self_s("persistence.load"),
        "experiments.journal_write_s": self_s("experiments.journal_write"),
        "stream.gate_s": self_s("stream.gate"),
        "stream.score_s": self_s("stream.score"),
        "stream.learn_s": self_s("stream.learn"),
        "stream.commit_s": self_s("stream.commit"),
        "stream.score_p50_ms": pct_ms("stream.score", 50),
        "stream.score_p99_ms": pct_ms("stream.score", 99),
        "stream.learn_p50_ms": pct_ms("stream.learn", 50),
        "stream.learn_p99_ms": pct_ms("stream.learn", 99),
        "stream.commit_p50_ms": pct_ms("stream.commit", 50),
        "stream.commit_p99_ms": pct_ms("stream.commit", 99),
        "stream.trained": fact("trained"),
        "stream.quarantined": fact("quarantined"),
        "obs.unattributed_s": self_s("run"),
        "obs.trace_overhead_s": (_median(r.run_s for r in traced)
                                 - _median(r.run_s for r in plain)),
        "failed_share": first.failed / first.attempted,
    })
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


@dataclass
class Measurement:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str]
    #: (setup_s, run_s, traced) of every measured repeat, in order
    repeats: List[Tuple[float, float, bool]]
    #: events each repeat's latency percentiles were taken over
    samples: int


def _consistency(repeats: List[Repeat]) -> List[str]:
    problems = [p for r in repeats for p in r.problems]
    digests = {r.digest for r in repeats}
    if len(digests) > 1:
        problems.append(f"repeats of one seed disagree: {sorted(digests)}")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            workroot: Path, scale: float = 1.0,
            stream_events: int = STREAM_EVENTS) -> Measurement:
    """Repeat ``name`` until ``seconds`` have passed (at least
    :data:`MIN_REPEATS` times).  Untraced, report the end-to-end
    metrics; traced, alternate untraced and traced repeats and report
    the per-layer metrics."""
    workload = WORKLOADS[name]
    run_repeat(workload, seed, workroot, scale=min(scale, WARMUP_SCALE),
               stream_events=WARMUP_EVENTS)
    deadline = time.perf_counter() + seconds
    plain: List[Repeat] = []
    traced: List[Repeat] = []
    recorder = SpanRecorder()
    min_repeats = 1 if trace else MIN_REPEATS
    while len(plain) < min_repeats or time.perf_counter() < deadline:
        plain.append(run_repeat(workload, seed, workroot, scale,
                                stream_events))
        if trace:
            traced.append(run_repeat(workload, seed, workroot, scale,
                                     stream_events, recorder=recorder))
    if trace:
        values = per_layer(recorder, traced, plain)
        metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
    else:
        setups = [r.setup_s for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(setup_seconds(workload, seed, scale))
        values = end_to_end(plain, setups)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    repeats = plain + traced
    return Measurement(metrics, attempted=repeats[0].attempted,
                       failed=repeats[0].failed,
                       problems=_consistency(repeats),
                       repeats=[(r.setup_s, r.run_s, False) for r in plain]
                       + [(r.setup_s, r.run_s, True) for r in traced],
                       samples=plain[0].latency_samples)


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = str(path) == point or str(path).startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


def environment(workroot: Path) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "checkpoint_fs": _filesystem(workroot),
    }
