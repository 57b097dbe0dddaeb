"""Output and mechanism checks. Each returns a list of failure messages;
an empty list means the run passed."""

from __future__ import annotations

import math

#: Bounds for "about 1" / "about 0" shares of fused rounds among all
#: rounds. (Per multi-task round, ASP's one fused start-up round would
#: read as a share of 1.)
FUSED_ALL = 0.95
FUSED_NONE = 0.05


def output_failures(run: dict) -> list[str]:
    """Checks every run's outputs must pass."""
    out = []
    if run["updates"] != run["max_updates"]:
        out.append(f"updates {run['updates']} != max_updates {run['max_updates']}")
    final, initial = run["final_error"], run["initial_error"]
    if not (math.isfinite(final) and final < initial):
        out.append(f"final_error {final} is not finite and below initial {initial}")
    if run["lost_tasks"] != 0:
        out.append(f"lost_tasks {run['lost_tasks']} != 0")
    if "sim_ms_to_target" in run and run["sim_ms_to_target"] is None:
        out.append("the error target was never reached")
    return out


def mechanism_failures(run: dict, expects: dict) -> list[str]:
    """Checks that a run exercised what its workload was chosen for."""
    out = []
    fused = run["fused_rounds"] / max(run["rounds"], 1)
    if expects.get("fused") == "all" and fused < FUSED_ALL:
        out.append(f"fused rounds share {fused:.3f} < {FUSED_ALL}")
    if expects.get("fused") == "none" and fused > FUSED_NONE:
        out.append(f"fused rounds share {fused:.3f} > {FUSED_NONE}")
    if expects.get("comm"):
        if not (run["comm"] and run["comm_wire_bytes"] < run["comm_raw_bytes"]):
            out.append(
                f"COMM wire bytes {run['comm_wire_bytes']} not below raw "
                f"bytes {run['comm_raw_bytes']}"
            )
    elif run["comm"]:
        out.append("a COMM layer ran on a workload without a compressor")
    if expects.get("avg_history"):
        avg = [v for k, v in run["history"].items() if k.endswith("avg_hist")]
        if not (avg and avg[0] > 0):
            out.append("no stored bytes on the averageHistory channel")
    if expects.get("stale") and run["max_staleness"] <= 0:
        out.append("no applied result was stale")
    return out


def trace_failures(trace: dict, expects: dict) -> list[str]:
    """Checks on the traced run: hygiene, accounting, and the mechanism
    numbers only the trace measures."""
    out = mechanism_failures(trace["outcome"], expects)
    m = trace["metrics"]
    if not trace["restored"]:
        out.append("a wrapped function was not restored")
    if trace["rerun_digest"] != trace["digest"]:
        out.append("the untraced re-run after restore changed the final iterate")
    if trace["self_ns_sum"] != trace["host_ns"]:
        out.append(
            f"self times sum to {trace['self_ns_sum']} ns, host time is "
            f"{trace['host_ns']} ns"
        )
    if not expects.get("comm") and m["comm.manager.encode_value.calls"]:
        out.append("COMM encode ran on a workload without a compressor")
    if expects.get("stale") and m["core.coordinator.staleness_max"] <= 0:
        out.append("staleness_max is 0")
    return out


def count_failures(first: dict, second: dict) -> list[str]:
    """The count run must repeat exactly."""
    diff = sorted(k for k in first if first[k] != second.get(k))
    return [f"count run differs between two runs in {diff}"] if diff else []
