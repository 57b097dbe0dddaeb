"""ASYNC's RDD verbs (Table 1): barrier, reduce, aggregate.

``async_reduce``/``async_aggregate`` differ from Spark's actions in the
two ways Section 5.1 describes: the reduction runs *on the worker, over
its local partitions only* (one locally-combined result per worker — the
capability Glint lacks), and the call returns immediately; results are
consumed later through the ASYNCcontext.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.backend import FusedOutcome, WorkerEnv
from repro.core.barriers import BarrierPolicy, as_barrier
from repro.core.stat import StatTable
from repro.engine.rdd import RDD, MappedRDD
from repro.engine.taskcontext import task_env

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ASYNCContext

__all__ = ["BarrierRDD", "async_barrier", "async_reduce", "async_aggregate",
           "find_barrier"]

_EMPTY = object()


class BarrierRDD(RDD):
    """Pass-through node that attaches a barrier-control policy.

    ``ASYNCbarrier`` is a transformation in the paper: it does not change
    the data, it changes *which workers are assigned tasks* when a
    downstream async action fires. We keep the same shape: identity
    compute, policy discovered by the scheduler via lineage.
    """

    def __init__(self, parent: RDD, policy: BarrierPolicy, stat: StatTable):
        super().__init__(parent.ctx, deps=[parent])
        self.policy = policy
        self.stat = stat
        self.is_matrix_like = getattr(parent, "is_matrix_like", False)

    def compute(self, split: int, env: WorkerEnv | None) -> list:
        return self.deps[0].iterator(split, env)


def async_barrier(
    rdd: RDD,
    policy: BarrierPolicy | Callable[[StatTable], bool],
    stat: StatTable,
) -> BarrierRDD:
    """Attach a barrier policy (accepts a policy object or a predicate)."""
    return BarrierRDD(rdd, as_barrier(policy), stat)


def find_barrier(rdd: RDD) -> BarrierPolicy | None:
    """Nearest barrier annotation in the lineage, if any."""
    stack = [rdd]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        if isinstance(node, BarrierRDD):
            return node.policy
        stack.extend(node.deps)
    return None


def _worker_reduce_factory(
    rdd: RDD, f: Callable[[Any, Any], Any]
) -> Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]:
    def make_fn(worker_id: int, splits: list[int]):
        def fn(env: WorkerEnv) -> tuple[Any, int]:
            with task_env(env):
                acc: Any = _EMPTY
                count = 0
                for split in splits:
                    for elem in rdd.iterator(split, env):
                        count += 1
                        acc = elem if acc is _EMPTY else f(acc, elem)
                return (None if acc is _EMPTY else acc, count)

        return fn

    kernel = rdd.f if isinstance(rdd, MappedRDD) else None
    if hasattr(kernel, "prepare") and hasattr(kernel, "batch"):
        make_fn.fused = _fused_reduce_factory(rdd, f)
    return make_fn


def _fused_reduce_factory(rdd: MappedRDD, f: Callable[[Any, Any], Any]):
    """Fused-round runner for a mapped RDD whose kernel is a
    :class:`~repro.engine.matrix.StackedKernel`.

    ``make_fused(entries)`` builds the ``TaskBatch.fused_fn``:
    ``entries[i] = (worker_id, splits, post)`` describes batch slot ``i``
    (``post`` is the per-task value hook, e.g. COMM encoding). The runner
    preserves per-task semantics exactly:

    1. *Arrival order*, per task: resolve the kernel's state and
       materialize the task's blocks under its own worker env (cache
       fills and history fetches land where per-task execution would put
       them), capturing the recorded cost/fetch accounting per task.
    2. Group tasks whose resolved state is the same object and run one
       stacked kernel call per group. A failing batch call raises out of
       the runner: ``batch`` must equal the scalar kernel bit for bit, so
       an error there is a bug to surface, not a reason to quietly rerun
       the round per task.
    3. Fold each task's element values with ``f`` exactly as the
       per-task closure would, then apply ``post`` under the task's env.
    """
    kernel = rdd.f
    source = rdd.deps[0]

    def make_fused(entries: list[tuple[int, list[int], Any]]):
        def fused_fn(
            ordered: list[tuple[int, WorkerEnv]],
        ) -> dict[int, FusedOutcome]:
            outcomes: dict[int, FusedOutcome] = {}
            prepped: list[tuple[int, WorkerEnv, Any, list]] = []
            for i, env in ordered:
                out = outcomes[i] = FusedOutcome()
                t0 = perf_counter()
                state: Any = None
                blocks: list = []
                try:
                    with task_env(env):
                        state = kernel.prepare(env)
                        for split in entries[i][1]:
                            blocks.extend(source.iterator(split, env))
                except Exception as exc:  # noqa: BLE001 - forwarded
                    out.error = exc
                out.cost_units = env.consume_cost_units()
                out.fetch_bytes = env.consume_fetch_bytes()
                out.measured_ms = (perf_counter() - t0) * 1000.0
                if out.error is None:
                    prepped.append((i, env, state, blocks))

            groups: dict[int, list[tuple[int, WorkerEnv, Any, list]]] = {}
            for item in prepped:
                groups.setdefault(id(item[2]), []).append(item)
            for group in groups.values():
                state = group[0][2]
                blocks = [b for _, _, _, bs in group for b in bs]
                t0 = perf_counter()
                values = kernel.batch(state, blocks) if blocks else []
                share_ms = ((perf_counter() - t0) * 1000.0) / len(group)
                pos = 0
                for i, env, _, bs in group:
                    out = outcomes[i]
                    t1 = perf_counter()
                    try:
                        with task_env(env):
                            acc: Any = _EMPTY
                            count = 0
                            for elem in values[pos : pos + len(bs)]:
                                count += 1
                                acc = elem if acc is _EMPTY else f(acc, elem)
                            value = (None if acc is _EMPTY else acc, count)
                            post = entries[i][2]
                            if post is not None:
                                value = post(env, value)
                            out.value = value
                    except Exception as exc:  # noqa: BLE001 - forwarded
                        out.error = exc
                        out.value = None
                    pos += len(bs)
                    out.cost_units += env.consume_cost_units()
                    out.fetch_bytes += env.consume_fetch_bytes()
                    out.measured_ms += (
                        share_ms + (perf_counter() - t1) * 1000.0
                    )
            return outcomes

        return fused_fn

    return make_fused


def _worker_aggregate_factory(
    rdd: RDD,
    zero: Any,
    seq_op: Callable[[Any, Any], Any],
    comb_op: Callable[[Any, Any], Any],
) -> Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]:
    def make_fn(worker_id: int, splits: list[int]):
        def fn(env: WorkerEnv) -> tuple[Any, int]:
            with task_env(env):
                # Deep-copy the zero per partition (Spark semantics): seq_op
                # may mutate its accumulator.
                acc: Any = _EMPTY
                count = 0
                for split in splits:
                    part = copy.deepcopy(zero)
                    elems = rdd.iterator(split, env)
                    for elem in elems:
                        count += 1
                        part = seq_op(part, elem)
                    acc = part if acc is _EMPTY else comb_op(acc, part)
                return (copy.deepcopy(zero) if acc is _EMPTY else acc, count)

        return fn

    return make_fn


def async_reduce(
    rdd: RDD,
    f: Callable[[Any, Any], Any],
    ac: "ASYNCContext",
    granularity: str = "worker",
) -> list[int]:
    """Worker-local reduction, submitted asynchronously.

    Returns immediately (after the barrier admits the round) with the list
    of workers that received tasks; results arrive via ``ac.collect()``.
    ``granularity="partition"`` makes each partition its own task: no
    worker-local combine, one result per partition, each tagged with its
    partition id — the stream partition-granular update rules (Hogwild,
    federated averaging) consume.
    """
    policy = find_barrier(rdd) or ac.default_barrier
    return ac.scheduler.submit_round(
        rdd, _worker_reduce_factory(rdd, f), policy, granularity
    )


def async_aggregate(
    rdd: RDD,
    zero: Any,
    seq_op: Callable[[Any, Any], Any],
    comb_op: Callable[[Any, Any], Any],
    ac: "ASYNCContext",
    granularity: str = "worker",
) -> list[int]:
    """Worker-local aggregate with a neutral zero value (Table 1)."""
    policy = find_barrier(rdd) or ac.default_barrier
    return ac.scheduler.submit_round(
        rdd, _worker_aggregate_factory(rdd, zero, seq_op, comb_op), policy,
        granularity,
    )
