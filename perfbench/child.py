"""One measurement in a fresh process; prints one JSON line.

Run from the repository root with ``src`` and the root on ``PYTHONPATH``
(``perfbench/run.py`` does this)::

    python3 -m perfbench.child run --workload asgd_asp_dense --seed 1 \
        --target 0.05 --serial-final 0.04

Modes:

- ``run``: time set-up (``import repro`` through ``make_optimizer``),
  then ``RUNS_PER_PROCESS`` untraced run phases (``opt.run()``), each
  between two timings of the host-speed control loop; report each run's
  outputs.
- ``reference``: the serial SGD run that fixes the workload's error
  target, and the single-worker baseline rate.
- ``trace``: the same run with every ``layers.LAYERS`` function wrapped;
  reports per-layer metrics, restores the program, and re-runs untraced.
- ``count``: the run phase under ``cProfile``; reports call counts.

This module imports nothing heavy at the top, so the set-up clock in
``run`` mode starts before NumPy and ``repro`` load.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from perfbench.workloads import BASELINE_ITERATIONS, BASELINE_WORKLOAD, WORKLOADS

#: Timed runs per ``run`` process: each process gives one ``setup_s``
#: sample and this many ``update_cost`` samples.
RUNS_PER_PROCESS = 2


def _setup(workload, seed, problem=None):
    """Set up a run; returns ``(prep, ctx, opt)`` with ``ctx`` open.

    ``problem`` reuses an already-solved problem of the same spec, the
    way ``run_grid`` shares one across sweep cells.
    """
    from repro.api.runner import prepare_experiment

    prep = prepare_experiment(workload.make_spec(seed), _problem=problem)
    ctx = prep.make_context()
    points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
    prep.problem.f_star  # summarize needs it; its solve belongs to set-up
    return prep, ctx, prep.make_optimizer(ctx, points)


def _digest(w) -> str:
    import hashlib

    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(w, dtype=np.float64).tobytes()).hexdigest()


def _outcome(prep, ctx, result, target, serial_final) -> dict:
    """Output and mechanism facts of a finished run (not timed)."""
    import math

    from repro.api.runner import summarize

    summary = summarize(prep, result)
    extras = result.extras
    queue = [m.queue_ms for m in result.metrics]
    out = {
        "updates": summary["updates"],
        "max_updates": prep.config.max_updates,
        "final_error": summary["final_error"],
        "initial_error": summary["initial_error"],
        "digest": _digest(result.w),
        "sim_elapsed_ms": summary["elapsed_ms"],
        "lost_tasks": extras["lost_tasks"],
        "collected": extras["collected"],
        "rounds": result.rounds,
        "fused_rounds": extras["fused_rounds"],
        "max_staleness": extras["max_staleness_seen"],
        "comm": prep.comm is not None,
        "comm_raw_bytes": extras.get("comm_raw_bytes", 0),
        "comm_wire_bytes": extras.get("comm_wire_bytes", 0),
        "comm_ratio": extras.get("comm_ratio", 0.0),
        "history_bytes": extras.get("history_bytes", 0),
        "history": {
            name: row["stored_bytes"]
            for name, row in extras.get("history", {}).items()
        },
        "queue_ms_mean": sum(queue) / len(queue) if queue else 0.0,
        "metrics_rows": len(ctx.dispatcher.metrics_log),
    }
    if target is not None:
        t = result.trace.time_to_error(prep.problem, target)
        out["sim_ms_to_target"] = t if math.isfinite(t) else None
    if serial_final is not None:
        out["final_error_vs_serial"] = summary["final_error"] / serial_final
    return out


def mode_run(args) -> dict:
    """Set-up once, then ``RUNS_PER_PROCESS`` timed runs; later runs
    reuse the solved problem but build everything else afresh."""
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    prep, ctx, opt = _setup(workload, args.seed)
    setup_s = time.perf_counter() - t0
    # Imported here: at the top it would load NumPy before the set-up clock.
    from perfbench import control

    out = {"setup_s": setup_s, "runs": []}
    for i in range(RUNS_PER_PROCESS):
        if i:
            prep, ctx, opt = _setup(workload, args.seed, prep.problem)
        with ctx:
            before = control.steps_per_s()
            t1 = time.perf_counter()
            result = opt.run()
            run_s = time.perf_counter() - t1
            control_rate = (before + control.steps_per_s()) / 2.0
            if i == 0:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                out["peak_rss_mb"] = rss_kib / 1024.0
            run = {
                "run_s": run_s,
                "updates_per_s": result.updates / run_s,
                "control_steps_per_s": control_rate,
                "update_cost": run_s / result.updates * control_rate,
            }
            run.update(_outcome(prep, ctx, result, args.target, args.serial_final))
        out["runs"].append(run)
    return out


def _serial_errors(problem, alpha, batch_fraction, iterations, seed, every):
    from repro.optim.reference import reference_sgd

    _, history = reference_sgd(
        problem, alpha0=alpha, batch_fraction=batch_fraction,
        iterations=iterations, seed=seed, record_every=every,
    )
    return dict(history)


def _serial_alpha(workload) -> float:
    """The dataset's tuned synchronous step, as ``prepare_experiment``
    would pick it for plain SGD."""
    from repro.data.registry import REGISTRY

    dataset = workload.spec["dataset"]
    name = dataset if isinstance(dataset, str) else dataset["name"]
    return REGISTRY[name].alpha_sgd


def mode_reference(args) -> dict:
    import math
    import statistics

    from repro.api.runner import prepare_experiment

    workload = WORKLOADS[args.workload]
    prep = prepare_experiment(workload.make_spec(args.seed))
    k, m = workload.target_iterations, workload.serial_iterations
    errors = _serial_errors(
        prep.problem, _serial_alpha(workload), prep.config.batch_fraction,
        m, args.seed, math.gcd(k, m),
    )
    base = WORKLOADS[BASELINE_WORKLOAD]
    if base is not workload:
        prep = prepare_experiment(base.make_spec(args.seed))
    rates = []
    for _ in range(3):
        t = time.perf_counter()
        _serial_errors(
            prep.problem, _serial_alpha(base), prep.config.batch_fraction,
            BASELINE_ITERATIONS, args.seed, BASELINE_ITERATIONS,
        )
        rates.append(BASELINE_ITERATIONS / (time.perf_counter() - t))
    return {
        "target": errors[k],
        "serial_final": errors[m],
        "reference_updates_per_s": statistics.median(rates),
    }


def mode_trace(args) -> dict:
    return trace_run(WORKLOADS[args.workload], args.seed, args.dump)


def trace_run(workload, seed: int, dump: str | None = None) -> dict:
    """One traced run, then restore and one untraced re-run."""
    from collections import Counter

    import repro.api.runner  # noqa: F401  (load every layer before wrapping)
    from perfbench import layers
    from perfbench.tracer import Tracer

    tracer = Tracer()
    apply_probe = layers.install(tracer)
    patched = tracer.wrapped()
    tracer.enter("setup")
    prep, ctx, opt = _setup(workload, seed)
    tracer.exit()
    run_row = len(tracer.spans)
    counts_before = Counter(tracer.counts)
    with ctx:
        with tracer.span("run"):
            result = opt.run()
        tracer.restore()
        outcome = _outcome(prep, ctx, result, None, None)
    restored = all(
        (vars(owner) if isinstance(owner, type) else owner.__dict__)[attr]
        is original
        for owner, attr, original in patched
    )
    run = tracer.aggregate(run_row)
    host_ns = run["total_ns"]["run"]
    metrics = layers.per_layer_metrics(
        run, tracer.aggregate(0, run_row), tracer.counts - counts_before,
        apply_probe.staleness, outcome,
    )
    metrics["trace.host_s"] = host_ns / 1e9
    metrics["trace.unwrapped_s"] = run["self_ns"]["run"] / 1e9
    if dump:
        tracer.dump(dump)
    # Hygiene: the same run, untraced, after restore, must land on the
    # same iterate.
    prep2, ctx2, opt2 = _setup(workload, seed)
    with ctx2:
        rerun_digest = _digest(opt2.run().w)
    return {
        "metrics": metrics,
        "self_ns_sum": sum(run["self_ns"].values()),
        "host_ns": host_ns,
        "traced_updates_per_s": result.updates / (host_ns / 1e9),
        "wrapped_functions": len(patched),
        "restored": restored,
        "digest": outcome["digest"],
        "rerun_digest": rerun_digest,
        "outcome": outcome,
    }


def mode_count(args) -> dict:
    return count_run(WORKLOADS[args.workload], args.seed)


def count_run(workload, seed: int) -> dict:
    """The run phase under ``cProfile``: whole-program call counts."""
    import cProfile
    import pstats

    from repro.engine.rdd import RDD
    from repro.utils.rng import spawn_generator
    from repro.utils.sizeof import sizeof_bytes

    prep, ctx, opt = _setup(workload, seed)
    profile = cProfile.Profile()
    with ctx:
        profile.enable()
        result = opt.run()
        profile.disable()
    stats = pstats.Stats(profile)

    def calls(fn) -> int:
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        return stats.stats.get(key, (0, 0))[1]

    updates = result.updates
    return {
        "updates": updates,
        "total_calls": stats.total_calls,
        "rdd_objects": calls(RDD.__init__),
        "generators": calls(spawn_generator),
        "sizeof_calls": calls(sizeof_bytes),
        "digest": _digest(result.w),
    }


MODES = {
    "run": mode_run,
    "reference": mode_reference,
    "trace": mode_trace,
    "count": mode_count,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--target", type=float, default=None)
    parser.add_argument("--serial-final", type=float, default=None)
    parser.add_argument("--dump", default=None,
                        help="trace mode: write spans to this JSON file")
    args = parser.parse_args(argv)
    out = MODES[args.mode](args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
