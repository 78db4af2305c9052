"""Smoke test of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Drives every workload's code path untraced and traced on a 14-user
world, and checks that the metric names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from layers import SpanRecorder, patched
from repro.autograd import Tensor
from repro.nn import Adam
from workloads import WORKLOADS, measure

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"scale": 0.1, "stream_events": 64}


def test_workload_names_match_the_benchmark_file():
    names = sorted(w["name"] for w in BENCHMARK["workloads"])
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES) == names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = measure(name, seed=3, seconds=0, trace=False,
                     workroot=tmp_path, **TINY)
    assert result.problems == []
    assert set(result.metrics) == {
        m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        value, unit = result.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert value > 0, metric["name"]
    assert result.attempted >= 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_the_program(
        name, tmp_path):
    backward, step = Tensor.backward, Adam.step
    result = measure(name, seed=3, seconds=0, trace=True,
                     workroot=tmp_path, **TINY)
    assert result.problems == []
    assert set(result.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result.metrics[metric["name"]][1] == metric["unit"]
    assert result.metrics["autograd.backward_calls"][0] > 0
    assert result.metrics["nn.step_calls"][0] > 0
    assert Tensor.backward is backward and Adam.step is step
    assert not any(tmp_path.iterdir())


def test_self_time_subtracts_child_spans(monkeypatch):
    # outer opens at 0, inner spans 1..3, outer closes at 10
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(layers, "_perf", lambda: next(ticks))
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            recorder.leaf("op", 0.5)
        recorder.leaf("op", 1.5)
    assert recorder.calls == {"outer": 1, "inner": 1, "op": 2}
    assert recorder.self_s == {"inner": 1.5, "op": 2.0, "outer": 6.5}
    assert sum(recorder.self_s.values()) == 10.0


def test_patched_restores_inherited_and_own_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with patched(Child, "f", lambda fn: lambda self: "wrapped " + fn(self)):
        assert Child().f() == "wrapped base"
    assert "f" not in vars(Child) and Child().f() == "base"
    with patched(Base, "f", lambda fn: lambda self: "wrapped"):
        assert Child().f() == "wrapped"
    assert Child().f() == "base"


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-sa",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
