"""Which program functions the traced run wraps, and the per-layer metrics.

A layer is a module (or two) of ``src/repro``. Every function listed in
``LAYERS`` is wrapped under a span named ``<layer>.<function>``; methods
are wrapped on every class of the listed modules that defines them, so
overrides (``ASP.ready``, ``LogisticRegressionProblem.grad_sum``) and
the base definitions all land under the one name. A module-level
function is wrapped in its home module and in every ``repro`` module
that imported it by name.
"""

from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np

from perfbench.tracer import Probe, Tracer

#: layer -> [(modules, class name or None, attribute)]. ``None`` wraps a
#: module-level function; a class name wraps that class and every
#: subclass defined in ``modules`` that defines the attribute itself.
LAYERS: dict[str, list[tuple[tuple[str, ...], str | None, str]]] = {
    "core.policies": [
        (("repro.core.policies", "repro.core.barriers"), "SchedulingPolicy", hook)
        for hook in ("ready", "select", "weight", "place")
    ],
    "core.scheduler": [
        (("repro.core.scheduler",), "AsyncScheduler", "submit_round"),
    ],
    "engine.rdd": [
        (("repro.engine.rdd", "repro.engine.matrix"), "RDD", name)
        for name in (
            "__init__", "iterator", "map", "sample", "async_barrier",
            "async_reduce",
        )
    ] + [(("repro.core.ops",), None, "find_barrier")],
    "engine.dispatch": [
        (("repro.engine.dispatch",), "Dispatcher", "submit"),
        (("repro.engine.dispatch",), "Dispatcher", "submit_batch"),
    ],
    "cluster.simbackend": [
        (("repro.cluster.simbackend",), "SimBackend", "run_until"),
        (("repro.cluster.simbackend",), "SimBackend", "submit"),
        (("repro.cluster.simbackend",), "SimBackend", "submit_batch"),
    ],
    "core.coordinator": [
        (("repro.core.coordinator",), "Coordinator", "on_result"),
        (("repro.core.coordinator",), "Coordinator", "on_assigned"),
        (("repro.core.coordinator",), "Coordinator", "pop_result"),
    ],
    "core.history": [
        (("repro.core.history",), "HistoryChannel", "append"),
        (("repro.core.history",), "HistoryChannel", "get"),
        (("repro.core.broadcaster",), "AsyncBroadcaster", "broadcast"),
        (("repro.core.broadcaster",), "HistoryBroadcast", "value"),
        (("repro.core.broadcaster",), "HistoryBroadcast", "value_at"),
    ],
    "comm.manager": [
        (("repro.comm.manager",), "CommManager", "encode_value"),
        (("repro.comm.manager",), "CommManager", "fetch_channel_value"),
        (("repro.comm.manager",), "CommManager", "note_collect"),
    ],
    "optim.problems": [
        (("repro.optim.problems",), "Problem", name)
        for name in ("grad_sum", "grad_sum_stacked", "objective", "solve_optimum")
    ],
    "optim.loop": [
        (("repro.optim.loop", "repro.optim.asgd", "repro.optim.asaga"),
         "UpdateRule", name)
        for name in ("apply", "apply_batch", "publish", "dispatch")
    ],
    "data": [
        (("repro.data.registry",), None, "get_dataset"),
        (("repro.data.blocks",), "MatrixBlock", "take_rows"),
        (("repro.data.blocks",), None, "stack_blocks"),
    ],
}


class RoundProbe(Probe):
    """Per ``submit_round``: tasks it dispatched and whether it fused."""

    def before(self, tracer, args):
        sched = args[0]
        return sched.tasks_submitted, sched.fused_rounds

    def after(self, tracer, token, args, result):
        sched = args[0]
        tasks = sched.tasks_submitted - token[0]
        c = tracer.counts
        c["rounds"] += 1
        c["round_tasks"] += tasks
        if tasks > 0:
            c["dispatched_rounds"] += 1
        if tasks >= 2:
            c["multi_task_rounds"] += 1
        if sched.fused_rounds > token[1]:
            c["fused_rounds"] += 1


class ApplyProbe(Probe):
    """Staleness and count of the records a rule applied."""

    def __init__(self) -> None:
        self.staleness: list[int] = []

    def after(self, tracer, token, args, result):
        records = args[2]
        if isinstance(records, list):  # apply_batch(w, records, alphas)
            tracer.counts["batch_records"] += len(records)
        elif result is None:  # apply rejected the record
            return
        else:
            records = [records]
        tracer.counts["applied"] += len(records)
        self.staleness.extend(r.staleness for r in records)


class LookupProbe(Probe):
    """A version lookup hits when no stored value is read on the way
    (no ``core.history.get`` span under it): the worker's cache had it."""

    def before(self, tracer, args):
        return len(tracer.spans)

    def after(self, tracer, token, args, result):
        tracer.counts["lookups"] += 1
        if not any(
            row[0] == "core.history.get" for row in tracer.spans[token + 1:]
        ):
            tracer.counts["lookup_hits"] += 1


def _probe_for(name: str, apply_probe: ApplyProbe) -> Probe | None:
    if name == "core.scheduler.submit_round":
        return RoundProbe()
    if name in ("optim.loop.apply", "optim.loop.apply_batch"):
        return apply_probe
    if name in ("core.history.value", "core.history.value_at"):
        return LookupProbe()
    return None


def _owners(modules, class_name, attr):
    """Classes (or modules) that hold their own ``attr`` to wrap."""
    mods = [importlib.import_module(m) for m in modules]
    if class_name is None:
        original = getattr(mods[0], attr)
        return [
            mod for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("repro")
            and getattr(mod, attr, None) is original
        ]
    base = getattr(mods[0], class_name)
    found = []
    for mod in mods:
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if (
                issubclass(cls, base)
                and cls.__module__ == mod.__name__
                and attr in vars(cls)
                and cls not in found
            ):
                found.append(cls)
    return found


def install(tracer: Tracer) -> ApplyProbe:
    """Wrap every function of ``LAYERS``; returns the apply probe, which
    holds the applied records' staleness."""
    apply_probe = ApplyProbe()
    for layer, entries in LAYERS.items():
        for modules, class_name, attr in entries:
            name = f"{layer}.{attr}"
            owners = _owners(modules, class_name, attr)
            if not owners:
                raise LookupError(f"nothing to wrap for {name}")
            probe = _probe_for(name, apply_probe)
            for owner in owners:
                tracer.wrap(owner, attr, name, probe)
    return apply_probe


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``trace`` for the roots)."""
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return "trace"


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    run: dict, setup: dict, counts: dict, staleness: list, info: dict
) -> dict:
    """Per-layer metrics of one traced run.

    ``run`` and ``setup`` are :meth:`Tracer.aggregate` results over the
    run phase and the set-up phase, ``counts`` the probes' counts over
    the run phase; ``info`` carries what the run's result reports
    (collected results, COMM ledger, HIST bytes, task queue times,
    metrics rows).
    """
    calls, self_ns = run["calls"], run["self_ns"]

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_ns.get(x, 0) for x in names) / 1e9

    st = np.asarray(staleness, dtype=float)
    pct = (lambda q: float(np.percentile(st, q))) if st.size else (lambda q: 0.0)
    m = {
        "core.policies.ready.calls": n("core.policies.ready"),
        "core.policies.select.calls": n("core.policies.select"),
        "core.policies.select.self_s": s("core.policies.select"),
        "core.policies.dispatch_share": _share(
            counts["dispatched_rounds"], counts["rounds"]),
        "core.scheduler.submit_round.calls": n("core.scheduler.submit_round"),
        "core.scheduler.submit_round.self_s": s("core.scheduler.submit_round"),
        "core.scheduler.tasks_per_round": _share(
            counts["round_tasks"], counts["rounds"]),
        "core.scheduler.fused_share": _share(
            counts["fused_rounds"], counts["multi_task_rounds"]),
        "engine.rdd.iterator.calls": n("engine.rdd.iterator"),
        "engine.dispatch.submit.calls": n("engine.dispatch.submit"),
        "engine.dispatch.submit.self_s": s("engine.dispatch.submit"),
        "engine.dispatch.metrics_rows": info["metrics_rows"],
        "cluster.simbackend.run_until.calls": n("cluster.simbackend.run_until"),
        "cluster.simbackend.run_until.self_s": s("cluster.simbackend.run_until"),
        "cluster.simbackend.submit.self_s": s("cluster.simbackend.submit"),
        "cluster.simbackend.submit_batch.self_s": s(
            "cluster.simbackend.submit_batch"),
        "cluster.simbackend.queue_ms_mean": info["queue_ms_mean"],
        "cluster.simbackend.lost_tasks": info["lost_tasks"],
        "core.coordinator.on_result.calls": n("core.coordinator.on_result"),
        "core.coordinator.on_result.self_s": s("core.coordinator.on_result"),
        "core.coordinator.staleness_p50": pct(50),
        "core.coordinator.staleness_p99": pct(99),
        "core.coordinator.staleness_max": float(st.max()) if st.size else 0.0,
        "core.history.append.calls": n("core.history.append"),
        "core.history.get.calls": n("core.history.get"),
        "core.history.stored_bytes": info["history_bytes"],
        "core.history.fetch_hit_share": _share(
            counts["lookup_hits"], counts["lookups"]),
        "comm.manager.encode_value.calls": n("comm.manager.encode_value"),
        "comm.manager.encode_value.self_s": s("comm.manager.encode_value"),
        "comm.manager.fetch_channel_value.self_s": s(
            "comm.manager.fetch_channel_value"),
        "comm.manager.raw_bytes": info["comm_raw_bytes"],
        "comm.manager.wire_bytes": info["comm_wire_bytes"],
        "comm.manager.ratio": info["comm_ratio"],
        "optim.problems.grad_sum.calls": n("optim.problems.grad_sum"),
        "optim.problems.grad_sum.self_s": s("optim.problems.grad_sum"),
        "optim.problems.grad_sum_stacked.self_s": s(
            "optim.problems.grad_sum_stacked"),
        "optim.problems.solve_optimum_s": (
            setup["total_ns"].get("optim.problems.solve_optimum", 0) / 1e9),
        "optim.loop.apply.calls": n("optim.loop.apply"),
        "optim.loop.apply.self_s": s("optim.loop.apply"),
        "optim.loop.apply_batch.calls": n("optim.loop.apply_batch"),
        "optim.loop.records_per_batch": _share(
            counts["batch_records"], n("optim.loop.apply_batch")),
        "optim.loop.accepted_share": _share(
            counts["applied"], info["collected"]),
        "data.registry.get_dataset_s": (
            setup["total_ns"].get("data.get_dataset", 0) / 1e9),
        "data.blocks.take_rows.self_s": s("data.take_rows"),
    }
    by_layer: dict[str, int] = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns.items():
        layer = layer_of(name)
        if layer != "trace":
            by_layer[layer] += ns
    for layer, ns in by_layer.items():
        m[f"{layer}.self_s"] = ns / 1e9
    return m
