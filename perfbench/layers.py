"""Per-layer attribution for the end-to-end benchmark.

Spans are recorded from outside the program: :func:`tracing` swaps each
layer's public entry points (module functions and class methods) for a
wrapper that opens a span on :class:`SpanRecorder` and restores the
originals on exit.  Nothing under ``src/`` is edited or knows it is
being timed.  Backend ops come from the program's own
:class:`repro.backend.instrument.InstrumentedBackend`, whose per-op
durations are folded in as leaf spans.

A layer's self time is its spans' duration minus the part covered by
child spans, so the self times of all layers plus the root span's self
time (the unattributed remainder) add up to the traced run's wall time.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

from repro import backend as _backend
from repro.autograd import Tensor
from repro.data.sampler import NegativeSampler
from repro.experiments import runner as _runner
from repro.experiments.journal import SpanJournal
from repro.incremental import strategy as _strategy
from repro.incremental.imsr import IMSR
from repro.incremental.imsr import framework as _imsr
from repro.incremental.imsr import variants as _variants
from repro.models import ComiRecDR, ComiRecSA, MSRModel
from repro.models import batched_train as _batched
from repro.nn import Adam, SparseAdam
from repro.obs import prof as _prof
from repro.stream import pipeline as _pipeline

_perf = time.perf_counter

#: keys whose per-call durations are kept, for percentiles
PERCENTILE_KEYS = frozenset({"stream.score", "stream.learn", "stream.commit"})

#: the five ops InstrumentedBackend times
BACKEND_OPS = ("gemm", "einsum", "gather", "scatter_add", "softmax")


class SpanRecorder:
    """In-memory span stack with per-key call counts and self time."""

    def __init__(self) -> None:
        self._stack: List[list] = []          # [key, start, child seconds]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.amount: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    def enter(self, key: str) -> None:
        self._stack.append([key, _perf(), 0.0])

    def exit(self) -> None:
        key, start, child = self._stack.pop()
        duration = _perf() - start
        self._record(key, duration, duration - child)

    def leaf(self, key: str, duration: float) -> None:
        """A span the program timed itself and that has no children."""
        self._record(key, duration, duration)

    @contextlib.contextmanager
    def span(self, key: str) -> Iterator[None]:
        self.enter(key)
        try:
            yield
        finally:
            self.exit()

    def _record(self, key: str, duration: float, self_time: float) -> None:
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[key] += 1
        self.self_s[key] += self_time
        if key in PERCENTILE_KEYS:
            self.durations[key].append(duration)


@contextlib.contextmanager
def patched(owner, name: str,
            make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` with ``make(original)`` for the block.

    An attribute the owner only inherits is shadowed and then deleted
    again, so the class hierarchy is exactly as before afterwards."""
    own = name in vars(owner)
    original = vars(owner)[name] if own else getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


def _spanned(recorder: SpanRecorder, key: str,
             size: Optional[Callable[[object], int]] = None):
    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            recorder.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if size is not None:
                recorder.amount[key] += size(result)
            return result
        return wrapper
    return make


def _file_size(path) -> int:
    return os.path.getsize(path)


#: (owner, attribute, layer key): every public entry point the three
#: workloads call into, grouped by the layer the metric reports
ENTRY_POINTS = (
    (NegativeSampler, "sample", "data.sample"),
    (NegativeSampler, "sample_batch", "data.sample"),
    (ComiRecSA, "compute_interests", "models.interests"),
    (ComiRecDR, "compute_interests", "models.interests"),
    (MSRModel, "loss_targets", "models.loss"),
    (_batched, "batched_compute_interests", "models.batched"),
    (_batched, "batched_loss_targets", "models.batched"),
    (_batched, "batched_snapshot_interests", "models.batched"),
    (Tensor, "backward", "autograd.backward"),
    (Adam, "step", "nn.step"),
    (SparseAdam, "step", "nn.step"),
    (_strategy, "clip_grad_norm", "nn.clip"),
    (_pipeline, "clip_grad_norm", "nn.clip"),
    (_strategy.IncrementalStrategy, "pretrain", "incremental.pretrain"),
    (IMSR, "train_span", "incremental.train_span"),
    (_strategy.IncrementalStrategy, "_refresh_snapshots",
     "incremental.snapshot"),
    # IMSR's NID verdict is mean_puzzlement > c1; puzzled_users is the
    # batch form no strategy calls
    (_imsr, "mean_puzzlement", "incremental.nid"),
    (_imsr, "project_new_interests", "incremental.pit"),
    (_imsr, "trim_mask", "incremental.pit"),
    (_variants, "sigmoid_distillation_loss", "incremental.eir"),
    (_runner, "evaluate_span", "eval.evaluate"),
    (_strategy.IncrementalStrategy, "score_users", "eval.score_users"),
    (_runner, "load_checkpoint", "persistence.load"),
    (_pipeline, "load_checkpoint", "persistence.load"),
    (SpanJournal, "write", "experiments.journal_write"),
    (_pipeline, "validate_event", "stream.gate"),
    (_strategy.IncrementalStrategy, "score_user", "stream.score"),
    (_pipeline._Pipeline, "_train_one", "stream.learn"),
    (_pipeline._Pipeline, "_boundary", "stream.commit"),
)

#: entry points whose result is a file whose size the metric also sums
SIZED_ENTRY_POINTS = (
    (_runner, "save_checkpoint", "persistence.save"),
    (_pipeline, "save_checkpoint", "persistence.save"),
)


@contextlib.contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[None]:
    """Record spans around every entry point and every backend op."""
    with contextlib.ExitStack() as stack:
        for owner, name, key in ENTRY_POINTS:
            stack.enter_context(patched(owner, name, _spanned(recorder, key)))
        for owner, name, key in SIZED_ENTRY_POINTS:
            stack.enter_context(patched(
                owner, name, _spanned(recorder, key, size=_file_size)))
        profiler = _prof.start_profiling(autograd=False, memory=False)

        def record_backend_op(name, duration, *_):
            recorder.leaf("backend." + name.split("[", 1)[0], duration)

        # InstrumentedBackend reports each op through this method
        profiler.record_backend_op = record_backend_op
        stack.callback(_prof.stop_profiling, emit=False)
        yield


def pool_hit_ratio() -> float:
    """Share of scratch-buffer requests the active backend's pool served
    from a free list (0 for a backend without a pool)."""
    stats = _backend.get_backend().pool_stats()
    if not stats:
        return 0.0
    requests = stats["hits"] + stats["misses"]
    return stats["hits"] / requests if requests else 0.0


class UpdateClock:
    """Timestamps every call into one boundary of the program.

    Successive stamps delimit updates: the cycle between two stamps is
    one update's latency as a waiting caller sees it, stalls between
    updates included.  Installed on untraced runs too: it costs one
    clock read per call."""

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def install(self, owners) -> contextlib.ExitStack:
        stack = contextlib.ExitStack()
        for owner, name in owners:
            stack.enter_context(patched(owner, name, self._stamped))
        return stack

    def _stamped(self, fn: Callable) -> Callable:
        stamps = self.stamps

        def wrapper(*args, **kwargs):
            stamps.append(_perf())
            return fn(*args, **kwargs)
        return wrapper

    def cycles_ms(self, end: float) -> List[float]:
        """Each update's cycle; the last one closes at ``end``."""
        stamps = self.stamps + [end]
        return [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


#: optimizer steps, counted to find the steps contained as non-finite
STEP_BOUNDARY = ((Adam, "step"), (SparseAdam, "step"))
#: a span update: train, snapshot refresh, evaluation and checkpoint
SPAN_BOUNDARY = ((IMSR, "train_span"),)
#: the stream scores every accepted event once before learning it
EVENT_BOUNDARY = ((_strategy.IncrementalStrategy, "score_user"),)
