"""Repository benchmark: whole experiment specs through the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload asgd_asp_dense --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric; ``--workload all`` runs
every workload in turn. Each measurement runs in a fresh child process
(``perfbench/child.py``), one at a time. The last line of standard
output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only if
every output and mechanism check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.child import RUNS_PER_PROCESS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: The whole invocation ends within this many seconds.
DEADLINE_S = 170.0
#: Untraced measurement processes per invocation: at least this many,
#: then more while they fit in ``--seconds``.
MIN_PROCESSES = 2
MAX_PROCESSES = 40
#: Where full records and span dumps go (inside the checkout).
OUT_DIR = ROOT / ".perfbench"


class ChildError(Exception):
    """A measurement process failed, timed out, or printed no result."""


class Session:
    """One invocation: its workload, seed and deadline."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.slowest_child_s = 0.0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, mode: str, *extra: str) -> dict:
        """Run one ``perfbench.child`` process to completion."""
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            # A fixed hash seed and single-threaded BLAS: the closed loop
            # is one process on one thread, and call counts must repeat.
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        cmd = [
            sys.executable, "-m", "perfbench.child", mode,
            "--workload", self.workload.name, "--seed", str(self.seed), *extra,
        ]
        began = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} process passed the deadline") from None
        self.slowest_child_s = max(self.slowest_child_s, time.monotonic() - began)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip()[-1500:]
            raise ChildError(f"{mode} process exited {proc.returncode}: {tail}")
        return json.loads(lines[-1])

    def can_start_another(self) -> bool:
        return self.remaining() > 2.0 * self.slowest_child_s + 5.0


def untraced_runs(session: Session, ref: dict, seconds: float, log: list) -> tuple[list, list, int]:
    """Untraced processes for ``seconds`` (at least ``MIN_PROCESSES``).

    Returns the processes' set-up records, the runs that passed every
    check, and the number of runs attempted.
    """
    workload = session.workload
    extra = (
        "--target", repr(ref["target"]),
        "--serial-final", repr(ref["serial_final"]),
    )
    processes: list[dict] = []
    passed: list[dict] = []
    digest = None
    attempts = 0
    began = time.monotonic()
    launched = 0
    while launched < MAX_PROCESSES:
        elapsed = time.monotonic() - began
        # Start another only if it should end within ``seconds``.
        expected = elapsed / launched if launched else 0.0
        if launched >= MIN_PROCESSES and (
            elapsed + expected > seconds or not session.can_start_another()
        ):
            break
        launched += 1
        attempts += RUNS_PER_PROCESS
        try:
            proc = session.child("run", *extra)
        except ChildError as exc:
            log.append(str(exc))
            continue
        processes.append(proc)
        for run in proc["runs"]:
            problems = checks.output_failures(run) + checks.mechanism_failures(
                run, workload.expects)
            digest = digest or run["digest"]
            if run["digest"] != digest:
                problems.append("final iterate differs from the first run's")
            log.extend(f"run: {p}" for p in problems)
            if not problems:
                passed.append(run)
    return processes, passed, attempts


def median_of(rows: list, key: str) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(session: Session, ref: dict, seconds: float, log: list) -> tuple[dict, int, int, dict]:
    processes, runs, attempts = untraced_runs(session, ref, seconds, log)
    metrics = {}
    if runs:
        metrics = {
            key: median_of(runs, key)
            for key in ("update_cost", "updates_per_s", "sim_ms_to_target",
                        "final_error_vs_serial")
        }
        metrics["setup_s"] = median_of(processes, "setup_s")
        metrics["peak_rss_mb"] = median_of(processes, "peak_rss_mb")
    return metrics, attempts, attempts - len(runs), {"processes": processes}


def per_layer(session: Session, ref: dict, seconds: float, log: list) -> tuple[dict, int, int, dict]:
    """Untraced baseline runs, the traced run, and two count runs."""
    workload = session.workload
    processes, runs, attempts = untraced_runs(session, ref, seconds, log)
    failed = attempts - len(runs)
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{workload.name}-seed{session.seed}.json"
    record: dict = {"processes": processes}
    metrics: dict = {}
    attempts += 1
    try:
        trace = session.child("trace", "--dump", str(dump))
        record["trace"] = trace
        problems = checks.trace_failures(trace, workload.expects)
        problems += checks.output_failures(trace["outcome"])
        if runs and trace["digest"] != runs[0]["digest"]:
            problems.append("the traced run's final iterate differs from untraced runs'")
        log.extend(f"trace: {p}" for p in problems)
        failed += bool(problems)
        metrics.update(trace["metrics"])
        if runs:
            untraced = median_of(runs, "updates_per_s")
            metrics["trace.untraced_updates_per_s"] = untraced
            metrics["trace.overhead"] = 1.0 - trace["traced_updates_per_s"] / untraced
    except ChildError as exc:
        log.append(str(exc))
        failed += 1
    counts = []
    for _ in range(2):
        attempts += 1
        try:
            counts.append(session.child("count"))
        except ChildError as exc:
            log.append(str(exc))
            failed += 1
    record["counts"] = counts
    if len(counts) == 2:
        problems = checks.count_failures(*counts)
        log.extend(f"count: {p}" for p in problems)
        failed += bool(problems)
        c = counts[0]
        per_update = 1.0 / c["updates"]
        metrics["engine.rdd.objects_per_update"] = c["rdd_objects"] * per_update
        metrics["program.py_calls_per_update"] = c["total_calls"] * per_update
        metrics["utils.rng.generators_per_update"] = c["generators"] * per_update
        metrics["utils.sizeof.calls_per_update"] = c["sizeof_calls"] * per_update
    metrics["optim.reference.updates_per_s"] = ref["reference_updates_per_s"]
    return metrics, attempts, failed, record


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def report(declared: list, metrics: dict, log: list) -> dict:
    """Every declared metric with its unit; a missing one is a failure."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            log.append(f"metric {name} was not measured")
            continue
        out[name] = {"value": metrics[name], "unit": spec["unit"]}
    return out


def bench(workload, seed: int, seconds: float, trace: int, declared: dict) -> dict:
    """One workload: print its metrics and return the result object."""
    session = Session(workload, seed)
    log: list[str] = []
    print(f"workload {workload.name} seed {seed} trace {trace}: {workload.why}")
    try:
        ref = session.child("reference")
    except ChildError as exc:
        print(f"  FAIL {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"  serial target error {ref['target']:.6g} "
          f"(SGD after {workload.target_iterations} iterations); "
          f"single-worker baseline optim.reference.updates_per_s "
          f"{ref['reference_updates_per_s']:.1f}")
    if trace:
        metrics, attempted, failed, record = per_layer(session, ref, seconds / 2, log)
        out = report(declared["per_layer"], metrics, log)
        for name, spec in out.items():
            print(f"  {name:44s} {spec['value']:14.6g} {spec['unit']}")
    else:
        metrics, attempted, failed, record = end_to_end(session, ref, seconds, log)
        out = report(declared["end_to_end"], metrics, log)
        processes = record["processes"]
        for name, spec in out.items():
            if name in ("setup_s", "peak_rss_mb"):
                values = [p[name] for p in processes]
            else:
                values = [r[name] for p in processes for r in p["runs"]]
            print(f"  {name:24s} {spec['value']:14.6g} {spec['unit']:10s} "
                  f"median of {len(values)}, min {min(values):.6g}, "
                  f"max {max(values):.6g}")
        if "updates_per_s" in metrics:
            print(f"  {'updates_per_s':24s} {metrics['updates_per_s']:14.6g} "
                  "updates/s  raw host rate (not declared: it drifts with the host)")
    print(f"  failed_share {failed}/{attempted}")
    for line in log:
        print(f"  FAIL {line}")
    OUT_DIR.mkdir(exist_ok=True)
    record.update(workload=workload.name, seed=seed, trace=trace,
                  spec=workload.make_spec(seed), reference=ref, log=log)
    with open(OUT_DIR / f"result-{workload.name}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    return {
        "correct": not log and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long one workload's untraced runs take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    declared = load_declared()
    if args.workload != "all":
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                       args.trace, declared)
    else:
        # Metrics keyed "<workload>.<metric>"; correct only if all are.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, workload in WORKLOADS.items():
            one = bench(workload, args.seed, args.seconds, args.trace, declared)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                {f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
