"""Fused task execution: parity, degradation, and metrics retention.

The fusion contract is strict bit-identity: a round of K same-kernel
tasks executed as one stacked host call must produce the trajectory the
per-task path produces, update for update — ``fuse_tasks=False`` is the
pinned escape hatch, and these tests are what pins it.

Backend split: the simulation backend actually runs the fused host call
(one stacked ``grad_sum`` over the round's per-block matrices) and replays
per-task virtual timing at each task's own arrival; the thread backend
accepts the same :class:`TaskBatch` but keeps genuine per-task execution
— there the suite asserts value-level parity and that the fused dispatch
path is exercised end to end.
"""

import numpy as np
import pytest

from repro.api.runner import prepare_experiment

# Pinned digests for the reference specs below (seed 0). These are the
# digest-pinned trajectories of the acceptance criteria: fused and
# unfused runs must both land exactly here.
ASP_DIGEST = 0.08400468212181117
BSP_DIGEST = 0.08207986613239232

BASE_SPEC = {
    "algorithm": "asgd",
    "dataset": "synth_logistic",
    "problem": "logistic",
    "num_workers": 8,
    "num_partitions": 8,
    "max_updates": 400,
    "eval_every": 100,
    "seed": 0,
}


def _run(spec):
    prep = prepare_experiment(spec)
    result = prep.execute()
    return prep, result


# -- simulation backend: full bitwise parity ---------------------------------

@pytest.mark.parametrize("compressor", [None, "topk:0.1"])
@pytest.mark.parametrize("granularity", ["worker", "partition"])
def test_fused_parity_sim(granularity, compressor):
    """Fused == unfused, bitwise, on multi-task (BSP) rounds."""
    spec = dict(BASE_SPEC, policy="bsp", granularity=granularity,
                max_updates=150, eval_every=50)
    if compressor is not None:
        spec["compressor"] = compressor
    prep_f, fused = _run(spec)
    prep_u, unfused = _run({**spec, "fuse_tasks": False})
    assert fused.extras["fused_rounds"] > 0
    assert unfused.extras["fused_rounds"] == 0
    assert np.array_equal(fused.w, unfused.w)
    assert fused.updates == unfused.updates
    assert fused.trace.updates == unfused.trace.updates


def test_fused_digest_pinned_bsp():
    """The all-rounds-fused BSP trajectory lands on the pinned digest."""
    prep, result = _run(dict(BASE_SPEC, policy="bsp"))
    assert result.extras["fused_rounds"] == result.rounds > 0
    assert result.final_error(prep.problem) == BSP_DIGEST
    prep_u, unfused = _run(dict(BASE_SPEC, policy="bsp", fuse_tasks=False))
    assert unfused.final_error(prep_u.problem) == BSP_DIGEST


def test_fused_digest_pinned_asp():
    """ASP rounds are single-task after round 1: nearly nothing fuses,
    and the trajectory is the pinned pre-fusion one either way."""
    prep, result = _run(dict(BASE_SPEC))
    assert result.extras["fused_rounds"] <= 1
    assert result.final_error(prep.problem) == ASP_DIGEST
    prep_u, unfused = _run(dict(BASE_SPEC, fuse_tasks=False))
    assert unfused.final_error(prep_u.problem) == ASP_DIGEST


def test_fused_round_mid_kill_degrades_to_per_task_retry():
    """Killing a worker mid-fused-round loses exactly what per-task
    execution loses; the retried work lands bit-identically."""
    spec = dict(BASE_SPEC, policy="bsp",
                fault_plan="kill:w3@5ms,revive:w3@40ms")
    prep_f, fused = _run(spec)
    prep_u, unfused = _run({**spec, "fuse_tasks": False})
    assert fused.extras["fused_rounds"] > 0
    assert fused.extras["lost_tasks"] == unfused.extras["lost_tasks"] > 0
    assert np.array_equal(fused.w, unfused.w)


def test_failing_fused_batch_raises(monkeypatch):
    """A fused round whose stacked kernel raises fails the run; it does
    not quietly rerun the round per task."""
    from repro.engine.matrix import StackedKernel
    from repro.optim.asgd import ASGDRule

    make_kernel = ASGDRule.make_kernel
    scalar_calls = []

    def broken_make_kernel(self, handle, seed):
        kernel = make_kernel(self, handle, seed)

        def fn(block):
            scalar_calls.append(block.block_id)
            return kernel.fn(block)

        def batch(state, blocks):
            raise RuntimeError("injected fused-batch failure")

        return StackedKernel(fn, kernel.prepare, batch)

    monkeypatch.setattr(ASGDRule, "make_kernel", broken_make_kernel)
    with pytest.raises(RuntimeError, match="injected fused-batch failure"):
        _run(dict(BASE_SPEC, policy="bsp", max_updates=20))
    assert scalar_calls == []


def test_escape_hatch_disables_fusion():
    spec = dict(BASE_SPEC, policy="bsp", max_updates=80, fuse_tasks=False)
    _, result = _run(spec)
    assert result.extras["fused_rounds"] == 0


def test_measured_cost_model_blocks_fusion():
    """Fusion requires an analytic cost model: measured compute times
    would be garbage for one stacked call split K ways, so the backend
    falls back to per-task execution (still bit-identical)."""
    from repro.cluster.cost import AnalyticCostModel, MeasuredCostModel, TaskCostModel

    assert AnalyticCostModel().fusion_safe is True
    assert MeasuredCostModel().fusion_safe is False
    assert TaskCostModel.fusion_safe is False


# -- thread backend: TaskBatch accepted, per-task execution kept --------------

def _thread_ctx(num_workers):
    from repro.cluster.threadbackend import ThreadBackend
    from repro.engine.context import ClusterContext

    return ClusterContext(backend=ThreadBackend(num_workers=num_workers))


def test_thread_backend_batch_value_parity():
    """A TaskBatch through the dispatcher produces exactly the values
    sequential submits produce (real per-task execution underneath)."""
    results = {}

    def collect(task_id, worker_id, value, metrics, error):
        assert error is None
        results[task_id] = value

    with _thread_ctx(2) as ctx:
        submissions = [
            ((lambda env, k=k: k * k), k % 2, collect, None)
            for k in range(6)
        ]
        ids = ctx.dispatcher.submit_batch(submissions)
        assert ctx.backend.run_until(lambda: len(results) == 6)
    assert [results[i] for i in ids] == [k * k for k in range(6)]


@pytest.mark.parametrize("granularity", ["worker", "partition"])
def test_thread_backend_fused_dispatch_end_to_end(granularity):
    """The fused dispatch path (scheduler -> TaskBatch) runs a full ASGD
    optimization on real threads and converges. Wall-clock timing makes
    thread trajectories run-dependent, so the bitwise pins live on the
    simulator; here the contract is that batch submission changes
    nothing about execution semantics."""
    from repro.core.barriers import BSP
    from repro.data.registry import get_dataset
    from repro.optim import AsyncSGD
    from repro.optim.base import OptimizerConfig
    from repro.optim.problems import LogisticRegressionProblem
    from repro.optim.stepsize import InvSqrtDecay

    X, y, _ = get_dataset("synth_logistic", seed=0)
    problem = LogisticRegressionProblem(X, y)
    with _thread_ctx(4) as ctx:
        pts = ctx.matrix(X, y, 8).cache()
        cfg = OptimizerConfig(
            batch_fraction=0.1, max_updates=80, seed=0,
            granularity=granularity,
        )
        result = AsyncSGD(
            ctx, pts, problem, InvSqrtDecay(0.5).scaled_for_async(4),
            cfg, barrier=BSP(),
        ).run()
    # The scheduler took the fused submission path (the thread backend
    # then executed per task); the run is a genuine optimization.
    assert result.extras["fused_rounds"] > 0
    assert problem.error(result.w) < problem.error(problem.initial_point())


# -- stacked kernel building blocks ------------------------------------------

def _dense_and_csr(X):
    from scipy import sparse

    return [X, sparse.csr_matrix(X)]


def test_stack_blocks_round_trips_segments():
    """``stack_blocks`` hands back the blocks' own matrices (no copy) and
    the concatenated targets cut at ``bounds``, dense and CSR alike."""
    from repro.data.blocks import split_matrix, stack_blocks

    rng = np.random.default_rng(0)
    X = rng.standard_normal((37, 5))
    X[X < 0.3] = 0.0
    y = rng.standard_normal(37)
    for Xk in _dense_and_csr(X):
        blocks = split_matrix(Xk, y, 4)
        xs, sy, bounds = stack_blocks(blocks)
        assert bounds[-1] == 37 and len(xs) == len(blocks)
        for x, block, lo, hi in zip(xs, blocks, bounds[:-1], bounds[1:]):
            assert x is block.X
            assert hi - lo == block.rows
            assert np.array_equal(sy[lo:hi], block.y)


@pytest.mark.parametrize("problem_name", ["least_squares", "logistic"])
def test_grad_sum_stacked_bitwise(problem_name):
    """Over row-sampled sub-blocks (what fused rounds see), the stacked
    kernel equals per-block ``grad_sum`` bit for bit, dense and CSR."""
    from repro.api.registry import PROBLEMS
    from repro.data.blocks import split_matrix, stack_blocks

    rng = np.random.default_rng(1)
    X = rng.standard_normal((64, 7))
    X[X < -0.5] = 0.0
    y = (
        np.sign(rng.standard_normal(64))
        if problem_name == "logistic" else rng.standard_normal(64)
    )
    w = rng.standard_normal(7)
    for Xk in _dense_and_csr(X):
        problem = PROBLEMS.create(problem_name, defaults={"X": Xk, "y": y})
        blocks = [
            b.take_rows(np.sort(rng.choice(b.rows, size=5, replace=False)))
            for b in split_matrix(Xk, y, 5)
        ]
        xs, sy, bounds = stack_blocks(blocks)
        stacked = problem.grad_sum_stacked(xs, sy, w, bounds)
        assert len(stacked) == len(blocks)
        for grad, block in zip(stacked, blocks):
            assert np.array_equal(grad, problem.grad_sum(block.X, block.y, w))


def test_stack_blocks_rejects_mixed_density():
    from scipy import sparse

    from repro.data.blocks import MatrixBlock, stack_blocks
    from repro.errors import DataError

    dense = MatrixBlock(X=np.ones((2, 3)), y=np.ones(2))
    csr = MatrixBlock(X=sparse.csr_matrix(np.ones((2, 3))), y=np.ones(2))
    with pytest.raises(DataError):
        stack_blocks([dense, csr])


# -- metrics retention ---------------------------------------------------------

def test_metrics_log_window_keeps_global_indexing():
    from repro.cluster.backend import TaskMetrics
    from repro.engine.dispatch import MetricsLog

    log = MetricsLog("window:3")
    rows = [TaskMetrics(task_id=i, worker_id=0) for i in range(8)]
    for row in rows:
        log.append(row)
    assert len(log) == 8
    assert log.dropped == 5
    assert list(log) == rows[5:]
    # Global-index slices omit dropped rows; the tail window optimizers
    # take (metrics_log[start:]) stays correct.
    assert log[6:] == rows[6:]
    assert log[0:] == rows[5:]
    assert log[7].task_id == 7
    with pytest.raises(IndexError):
        log[2]


def test_metrics_log_aggregate_mode_keeps_totals_only():
    from repro.cluster.backend import TaskMetrics
    from repro.engine.dispatch import MetricsLog

    log = MetricsLog("aggregate")
    for i in range(5):
        m = TaskMetrics(task_id=i, worker_id=0)
        m.compute_ms = 2.0
        m.in_bytes = 10
        log.append(m)
    assert len(log) == 5
    assert list(log) == []
    assert log[0:] == []
    summary = log.summary()
    assert summary["count"] == 5
    assert summary["dropped"] == 5
    assert summary["total_compute_ms"] == 10.0
    assert summary["mean_in_bytes"] == 10.0


def test_metrics_log_rejects_bad_retention():
    from repro.engine.dispatch import MetricsLog
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        MetricsLog("window:0")
    with pytest.raises(ReproError):
        MetricsLog("bogus")


def test_metrics_retention_spec_plumbing():
    """A windowed run bounds the metrics footprint without disturbing
    the trajectory (metrics are observational)."""
    spec = dict(BASE_SPEC, max_updates=120)
    prep_all, res_all = _run(spec)
    prep_win, res_win = _run({**spec, "metrics_retention": "window:16"})
    assert np.array_equal(res_all.w, res_win.w)
    # measured_ms is wall-clock, so compare identity by task id.
    win_ids = [m.task_id for m in res_win.metrics]
    all_ids = [m.task_id for m in res_all.metrics]
    assert win_ids == all_ids[-len(win_ids):]
    assert 0 < len(list(res_win.metrics)) <= 16 < len(all_ids)


def test_spec_default_knobs_omitted_from_canonical_json():
    """fuse_tasks/metrics_retention defaults stay out of to_dict so
    canonical spec JSON (and checkpoint keys) is byte-stable."""
    from repro.api.spec import ExperimentSpec

    base = ExperimentSpec().to_dict()
    assert "fuse_tasks" not in base
    assert "metrics_retention" not in base
    tuned = ExperimentSpec(
        fuse_tasks=False, metrics_retention="aggregate"
    ).to_dict()
    assert tuned["fuse_tasks"] is False
    assert tuned["metrics_retention"] == "aggregate"
    rt = ExperimentSpec.from_dict(tuned)
    assert rt.fuse_tasks is False and rt.metrics_retention == "aggregate"
