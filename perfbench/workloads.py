"""The benchmark's workloads: fixed-shape experiment specs plus run sizes.

Each workload is a spec for the public API with every field pinned
except ``seed``, which the benchmark passes in. Run length and the error
target are set here, not by the program.

The error target is the error a plain single-worker SGD run
(``repro.optim.reference.reference_sgd``: same problem, same seed, the
dataset's tuned ``alpha_sgd`` and the engine's batch fraction) reaches
after ``target_iterations`` iterations. A fixed fraction of the initial
error would make the time to target swing by a factor of three between
seeds, because each seed draws a new dataset that is easier or harder;
the serial run on the same data cancels that out.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    #: Applied updates per run (the spec's ``max_updates``).
    max_updates: int
    #: Trace snapshot cadence (the spec's ``eval_every``); sets the
    #: resolution of ``sim_ms_to_target``.
    eval_every: int
    #: Serial SGD iterations whose error is the run's target.
    target_iterations: int
    #: What the run must show to count as exercising its mechanism; see
    #: ``checks.mechanism_failures``.
    expects: dict = field(default_factory=dict)

    @property
    def num_workers(self) -> int:
        return self.spec["num_workers"]

    @property
    def serial_iterations(self) -> int:
        """Serial iterations for the final-error comparison: one per
        ``num_workers`` engine updates, i.e. the same number of passes
        over the workers' gradients."""
        return self.max_updates // self.num_workers

    def make_spec(self, seed: int) -> dict:
        return {
            **self.spec,
            "seed": int(seed),
            "max_updates": self.max_updates,
            "eval_every": self.eval_every,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="asgd_asp_dense",
            why=(
                "small dense logistic ASGD under ASP with a straggler: "
                "per-round engine overhead dominates host time"
            ),
            spec={
                "algorithm": "asgd",
                "dataset": "synth_logistic",
                "problem": "logistic",
                "num_workers": 8,
                "num_partitions": 16,
                "policy": "asp",
                "delay": "cds:0.6",
            },
            max_updates=3000,
            eval_every=10,
            target_iterations=250,
            expects={"fused": "none", "comm": False, "stale": True},
        ),
        Workload(
            name="asgd_bsp_wide_topk",
            why=(
                "wide logistic ASGD under BSP with top-k delta COMM: fused "
                "rounds, batched apply and compression do the work"
            ),
            spec={
                "algorithm": "asgd",
                "dataset": {"name": "synth_logistic", "d": 1024, "n": 4096},
                "problem": "logistic",
                "num_workers": 8,
                "num_partitions": 16,
                "policy": "bsp",
                "delay": "cds:0.6",
                "compressor": {"name": "topk", "fraction": 0.1, "delta": True},
            },
            max_updates=1200,
            eval_every=8,
            target_iterations=100,
            expects={"fused": "all", "comm": True},
        ),
        Workload(
            name="asaga_ssp_sparse",
            why=(
                "sparse ASAGA in history mode under SSP: HIST reads and "
                "writes and sparse row-slicing kernels do the work"
            ),
            spec={
                "algorithm": "asaga",
                "params": {"mode": "history"},
                "dataset": "rcv1_like",
                "num_workers": 8,
                "num_partitions": 32,
                "policy": "ssp:8",
                "delay": "cds:0.6",
            },
            max_updates=480,
            eval_every=4,
            target_iterations=35,
            expects={"fused": "none", "comm": False, "avg_history": True},
        ),
    ]
}

#: The workload whose problem the single-worker baseline rate is timed on.
BASELINE_WORKLOAD = "asgd_asp_dense"
#: Serial iterations per timed baseline repeat.
BASELINE_ITERATIONS = 3000
