"""Tests of the benchmark's tracer, layer wrapping and count run.

Run with the rest of the suite: ``PYTHONPATH=src python -m pytest -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers  # noqa: E402
from perfbench.tracer import Probe, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Returns scripted nanosecond readings."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_on_a_nested_tree():
    # root [0, 100] > a [10, 40] > c [15, 25]; root > b [50, 90]
    clock = FakeClock([0, 10, 15, 25, 40, 50, 90, 100])
    t = Tracer(clock=clock)
    t.enter("root")
    t.enter("a")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    agg = t.aggregate()
    assert dict(agg["self_ns"]) == {"root": 30, "a": 20, "c": 10, "b": 40}
    assert dict(agg["total_ns"]) == {"root": 100, "a": 30, "c": 10, "b": 40}
    assert sum(agg["self_ns"].values()) == agg["total_ns"]["root"]
    parents = {row[0]: row[3] for row in t.spans}
    assert parents == {"root": -1, "a": 0, "c": 1, "b": 0}


def test_wrapped_calls_nest_and_sum_to_the_root():
    ticks = iter(range(0, 10_000, 7))
    t = Tracer(clock=lambda: next(ticks))

    class Engine:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return helpers.leaf(i) + 1

    helpers = types.SimpleNamespace(leaf=lambda i: i * 2)
    t.wrap(Engine, "outer", "engine.outer")
    t.wrap(Engine, "inner", "engine.inner")
    t.wrap(helpers, "leaf", "helpers.leaf")
    with t.span("run"):
        assert Engine().outer(3) == 9
    agg = t.aggregate()
    assert agg["calls"] == {"run": 1, "engine.outer": 1, "engine.inner": 3,
                            "helpers.leaf": 3}
    assert sum(agg["self_ns"].values()) == agg["total_ns"]["run"]
    assert all(v > 0 for v in agg["self_ns"].values())


def test_restore_puts_back_every_original():
    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        def hook(self):
            return "child"

    module = types.ModuleType("fake_module")
    module.fn = lambda: "fn"
    originals = (vars(Base)["hook"], vars(Child)["hook"], module.fn)
    t = Tracer()
    for owner in (Base, Child):
        t.wrap(owner, "hook", "x.hook")
    t.wrap(module, "fn", "x.fn")
    assert Child().hook() == "child" and module.fn() == "fn"
    assert vars(Base)["hook"] is not originals[0]
    t.restore()
    assert (vars(Base)["hook"], vars(Child)["hook"], module.fn) == originals
    assert t.wrapped() == []


def test_wrap_refuses_inherited_and_double_wraps():
    class Base:
        def hook(self):
            pass

    class Child(Base):
        pass

    t = Tracer()
    with pytest.raises(AttributeError):
        t.wrap(Child, "hook", "x.hook")
    t.wrap(Base, "hook", "x.hook")
    with pytest.raises(ValueError):
        t.wrap(Base, "hook", "x.hook")
    t.restore()


def test_probe_sees_arguments_result_and_exceptions_propagate():
    seen = []

    class Recorder(Probe):
        def before(self, tracer, args):
            return len(tracer.spans)

        def after(self, tracer, token, args, result):
            seen.append((token, args, result))
            tracer.counts["calls"] += 1

    ns = types.SimpleNamespace(f=lambda x: x + 1, g=lambda: 1 / 0)
    t = Tracer()
    t.wrap(ns, "f", "ns.f", Recorder())
    t.wrap(ns, "g", "ns.g")
    assert ns.f(1) == 2
    with pytest.raises(ZeroDivisionError):
        ns.g()
    assert seen == [(0, (1,), 2)]
    assert t.counts["calls"] == 1
    assert t.stack == [] and all(row[2] for row in t.spans)
    t.restore()


def _small(name: str, updates: int):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, max_updates=updates, target_iterations=updates // w.num_workers // 2)


def test_traced_run_restores_the_program_and_keeps_the_iterate():
    from perfbench.child import trace_run

    out = trace_run(_small("asgd_asp_dense", 200), seed=3)
    assert out["restored"]
    assert out["wrapped_functions"] > 40
    assert out["rerun_digest"] == out["digest"]
    assert out["self_ns_sum"] == out["host_ns"]
    assert checks.trace_failures(out, WORKLOADS["asgd_asp_dense"].expects) == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {d["name"] for d in declared} - {
        "engine.rdd.objects_per_update", "program.py_calls_per_update",
        "utils.rng.generators_per_update", "utils.sizeof.calls_per_update",
        "optim.reference.updates_per_s", "trace.overhead",
        "trace.untraced_updates_per_s",
    }
    assert traced <= set(out["metrics"])
    layer_self = sum(out["metrics"][f"{layer}.self_s"] for layer in layers.LAYERS)
    total = layer_self + out["metrics"]["trace.unwrapped_s"]
    assert total == pytest.approx(out["metrics"]["trace.host_s"], rel=1e-9)


def test_count_run_repeats_exactly_across_processes():
    code = (
        "import json, dataclasses; from perfbench.child import count_run; "
        "from perfbench.workloads import WORKLOADS; "
        "w = dataclasses.replace(WORKLOADS['asgd_asp_dense'], max_updates=150); "
        "print(json.dumps(count_run(w, 5)))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    outs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.splitlines()[-1])
        for _ in range(2)
    ]
    assert checks.count_failures(*outs) == []
    assert outs[0]["updates"] == 150 and outs[0]["rdd_objects"] > 0


def test_checks_flag_bad_outputs_and_missing_mechanisms():
    run = {
        "updates": 99, "max_updates": 100, "final_error": float("nan"),
        "initial_error": 1.0, "lost_tasks": 2, "sim_ms_to_target": None,
        "fused_rounds": 0, "rounds": 10, "comm": False, "comm_raw_bytes": 0,
        "comm_wire_bytes": 0, "history": {}, "max_staleness": 0,
    }
    assert len(checks.output_failures(run)) == 4
    expects = {"fused": "all", "comm": True, "avg_history": True, "stale": True}
    assert len(checks.mechanism_failures(run, expects)) == 4
    assert checks.count_failures({"a": 1}, {"a": 2}) != []
