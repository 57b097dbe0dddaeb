"""The round plan: the dispatch lineage is built once per run, and every
round binds its own arguments by value.

``UpdateRule.dispatch`` submits the paper's Algorithm 2 chain
(``async_barrier -> sample -> map -> async_reduce``) every update. The
chain is built once, when the server loop binds its rule; a round only
binds its ``(kernel, seed)`` into fresh task closures. These tests pin
both halves: the number of RDD objects a run creates does not grow with
its length, and a task that executes after a later round was planned
still computes with its own round's model and sample.
"""

import numpy as np
import pytest

from repro.api.runner import prepare_experiment
from repro.core.barriers import ASP
from repro.core.ops import BarrierRDD
from repro.data.synthetic import make_dense_regression
from repro.engine.context import ClusterContext
from repro.engine.matrix import SampledMatrixRDD
from repro.engine.rdd import RDD, MappedRDD
from repro.errors import EngineError
from repro.optim import AsyncSGD, ConstantStep, LeastSquaresProblem, OptimizerConfig
from repro.optim.asgd import ASGDRule
from repro.optim.loop import ServerLoop
from repro.utils.rng import spawn_generator

COUNT_SPECS = {
    "asgd_asp": {"algorithm": "asgd", "policy": "asp"},
    "asgd_bsp": {"algorithm": "asgd", "policy": "bsp"},
    "asaga_history": {
        "algorithm": "asaga", "params": {"mode": "history"},
        "policy": "ssp:4",
    },
    "aadmm": {"algorithm": "aadmm"},
}


def _rdds_created(spec: dict, updates: int, monkeypatch) -> int:
    """``RDD.__init__`` calls during ``opt.run()`` only."""
    prep = prepare_experiment({
        "dataset": "tiny_dense", "num_workers": 4, "num_partitions": 8,
        "delay": "cds:0.6", "eval_every": 25, "seed": 3,
        "max_updates": updates, **spec,
    })
    ctx = prep.make_context()
    with ctx:
        points = ctx.matrix(prep.X, prep.y, prep.num_partitions).cache()
        opt = prep.make_optimizer(ctx, points)
        created = []
        init = RDD.__init__

        def counting_init(self, *args, **kwargs):
            created.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RDD, "__init__", counting_init)
        try:
            result = opt.run()
        finally:
            monkeypatch.setattr(RDD, "__init__", init)
    assert result.updates == updates
    return len(created)


@pytest.mark.parametrize("name", sorted(COUNT_SPECS))
def test_lineage_is_built_once_per_run(name, monkeypatch):
    short = _rdds_created(COUNT_SPECS[name], 150, monkeypatch)
    long = _rdds_created(COUNT_SPECS[name], 600, monkeypatch)
    assert short == long > 0


def _loop(pipeline_depth=1, fuse_tasks=True, workers=4, parts=8):
    X, y, _ = make_dense_regression(96, 5, cond=4.0, seed=11)
    problem = LeastSquaresProblem(X, y)
    ctx = ClusterContext(workers, seed=0)
    points = ctx.matrix(X, y, parts).cache()
    opt = AsyncSGD(
        ctx, points, problem, ConstantStep(0.01),
        OptimizerConfig(
            batch_fraction=0.5, max_updates=10, seed=0,
            pipeline_depth=pipeline_depth, fuse_tasks=fuse_tasks,
        ),
        barrier=ASP(),
    )
    loop = ServerLoop(opt, ASGDRule())
    loop.bind()
    return ctx, loop


def test_plan_lineage_has_the_papers_shape():
    ctx, loop = _loop()
    with ctx:
        plan = loop.plan
        assert isinstance(plan.rdd, MappedRDD)
        sampled = plan.rdd.deps[0]
        assert isinstance(sampled, SampledMatrixRDD)
        assert isinstance(sampled.deps[0], BarrierRDD)
        assert sampled.deps[0].deps[0] is loop.opt.points
        assert plan.policy is loop.policy
        assert plan.sampling == (0.5, False)
        # The map slot is bound per round, never evaluated from the lineage.
        with pytest.raises(EngineError, match="bound per round"):
            plan.rdd.collect()


def test_plan_samples_exactly_like_the_sampled_rdd():
    """The plan and ``SampledMatrixRDD.compute`` share one row sampler:
    same rows, same order, for every split and seed."""
    ctx, loop = _loop()
    with ctx:
        points = loop.opt.points
        for seed in (0, 7, 123456789):
            blocks = loop.plan.blocks(seed)
            lineage = points.sample(0.5, seed=seed)
            for split in points.partitions():
                ours = blocks(split, None)
                theirs = lineage.compute(split, None)
                assert len(ours) == len(theirs) == 1
                assert np.array_equal(ours[0].ids, theirs[0].ids)
                assert np.array_equal(ours[0].X, theirs[0].X)


def _sampled_gradient(opt, w, seed, splits):
    """One worker's reduced mini-batch gradient, computed without the engine."""
    problem = opt.problem
    total, count = None, 0
    for split in splits:
        block = opt.points.block(split)
        rng = spawn_generator(seed, "mbatch", split)
        rows = max(1, int(round(0.5 * block.rows)))
        idx = np.sort(rng.choice(block.rows, size=rows, replace=False))
        g = problem.grad_sum(block.X[idx], block.y[idx], w)
        total = g if total is None else total + g
        count += rows
    return total, count


def test_rounds_bind_their_arguments_by_value():
    """Two rounds planned before either executes: each task computes with
    its own round's model handle and sample seed."""
    ctx, loop = _loop(pipeline_depth=2, fuse_tasks=False)
    with ctx:
        opt, rule, ac = loop.opt, loop.rule, loop.ac
        rng = np.random.default_rng(5)
        rounds = [(rng.standard_normal(5), 1001), (rng.standard_normal(5), 2002)]
        handles = [rule.publish(w) for w, _ in rounds]
        executed = ctx.backend.executed_tasks
        for (_, seed), handle in zip(rounds, handles):
            rule.dispatch(handle, seed)
        # Nothing has run yet: both rounds are planned, every task queued.
        assert ctx.backend.executed_tasks == executed
        assert ac.in_flight == 2 * ctx.num_workers
        ac.wait_all()
        records = sorted(ac.drain(), key=lambda r: r.task_id)
    assert len(records) == 2 * ctx.num_workers
    num_parts = opt.points.num_partitions
    for k, record in enumerate(records):
        w, seed = rounds[k // ctx.num_workers]
        splits = ctx.partitions_of(record.worker_id, num_parts)
        g, count = _sampled_gradient(opt, w, seed, splits)
        assert record.value[1] == count
        assert np.array_equal(record.value[0], g)


def test_adhoc_stacked_map_still_fuses():
    """An ad-hoc ``map(StackedKernel).async_reduce`` goes through the same
    task body as a plan round, fused path included."""
    from repro.core.context import ASYNCContext
    from repro.engine.matrix import StackedKernel

    X, y, _ = make_dense_regression(64, 4, cond=4.0, seed=2)
    with ClusterContext(4, seed=0) as ctx:
        points = ctx.matrix(X, y, 4).cache()
        ac = ASYNCContext(ctx)
        batches = []

        def batch(state, blocks):
            batches.append(len(blocks))
            return [float(b.y.sum()) for b in blocks]

        kernel = StackedKernel(
            lambda b: float(b.y.sum()), lambda env: None, batch
        )
        points.map(kernel).async_reduce(lambda a, b: a + b, ac)
        ac.wait_all()
        values = sorted(r.value for r in ac.drain())
    assert batches == [4]
    assert values == sorted(
        float(points.block(p).y.sum()) for p in range(4)
    )
