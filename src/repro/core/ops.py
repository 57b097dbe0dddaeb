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
from repro.engine.matrix import StackedKernel, sample_rows
from repro.engine.rdd import RDD, MappedRDD
from repro.engine.taskcontext import task_env
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ASYNCContext

__all__ = ["BarrierRDD", "RoundPlan", "async_barrier", "async_reduce",
           "async_aggregate", "find_barrier"]

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


#: ``source(split, env)``: one partition's elements inside a task —
#: ``rdd.iterator`` for an ad-hoc lineage, a round-bound closure for a
#: :class:`RoundPlan`.
ElementSource = Callable[[int, "WorkerEnv | None"], list]


def _reduce_factory(rdd: RDD, f: Callable[[Any, Any], Any]):
    """The task factory of an ad-hoc ``rdd.async_reduce(f)``: an uncached
    ``map`` node folds its kernel into the task body, like a plan round."""
    if isinstance(rdd, MappedRDD) and not rdd.cached:
        return _worker_reduce_factory(rdd.deps[0].iterator, f, rdd.f)
    return _worker_reduce_factory(rdd.iterator, f)


def _worker_reduce_factory(
    source: ElementSource,
    f: Callable[[Any, Any], Any],
    kernel: Callable[[Any], Any] | None = None,
) -> Callable[[int, list[int]], Callable[[WorkerEnv], tuple[Any, int]]]:
    """Task factory folding each task's elements with ``f``.

    ``kernel``, when given, maps every element ``source`` yields first
    (the lineage's ``map`` step). A :class:`StackedKernel` also attaches
    the fused-round runner over the same source.
    """
    def make_fn(worker_id: int, splits: list[int]):
        def fn(env: WorkerEnv) -> tuple[Any, int]:
            with task_env(env):
                acc: Any = _EMPTY
                count = 0
                for split in splits:
                    for elem in source(split, env):
                        if kernel is not None:
                            elem = kernel(elem)
                        count += 1
                        acc = elem if acc is _EMPTY else f(acc, elem)
                return (None if acc is _EMPTY else acc, count)

        return fn

    if isinstance(kernel, StackedKernel):
        make_fn.fused = _fused_reduce_factory(kernel, source, f)
    return make_fn


def _fused_reduce_factory(
    kernel: StackedKernel, source: ElementSource, f: Callable[[Any, Any], Any]
):
    """Fused-round runner for a :class:`StackedKernel` mapped over the
    blocks ``source(split, env)`` yields.

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
                            blocks.extend(source(split, env))
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
    source: ElementSource,
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
                    for elem in source(split, env):
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
        rdd, _reduce_factory(rdd, f), policy, granularity
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
        rdd, _worker_aggregate_factory(rdd.iterator, zero, seq_op, comb_op),
        policy, granularity,
    )


def _round_kernel(block: Any) -> Any:
    """The map slot of a :class:`RoundPlan` lineage (bound per round)."""
    raise EngineError(
        "a RoundPlan's map kernel is bound per round; submit through "
        "RoundPlan.reduce instead of evaluating the plan's lineage"
    )


class RoundPlan:
    """The paper's per-update RDD chain, built once per run.

    Algorithm 2 submits ``points.async_barrier(policy, stat)
    [.sample(fraction)].map(kernel).async_reduce(f, AC)`` every update.
    The chain's shape is the same every round; only the sample's seed,
    the kernel (which closes over the round's model handle) and the
    targets the policy picks change. The plan builds the lineage
    (``rdd``) and resolves its barrier (``policy``) once; each round then
    binds its own ``(kernel, seed)`` *by value* into fresh task closures
    that read partitions straight from ``points`` (through its cache)
    and row-sample them with :func:`~repro.engine.matrix.sample_rows`,
    the helper :class:`~repro.engine.matrix.SampledMatrixRDD` computes
    with — same generators, same rows, same floats. A task of round
    ``r`` that executes after round ``r + 1`` has been planned still
    sees round ``r``'s arguments.
    """

    def __init__(
        self,
        points: RDD,
        policy: BarrierPolicy,
        ac: "ASYNCContext",
        fraction: float | None = None,
    ) -> None:
        self.ac = ac
        lineage = points.async_barrier(policy, ac.stat)
        if fraction is not None:
            lineage = lineage.sample(fraction)
        #: ``(fraction, with_replacement)`` of the lineage's sample node.
        self.sampling: tuple[float, bool] | None = (
            None if fraction is None
            else (lineage.fraction, lineage.with_replacement)
        )
        self.rdd = lineage.map(_round_kernel)
        self.policy = find_barrier(self.rdd)
        self._source = points.iterator

    def blocks(self, seed: int) -> ElementSource:
        """The round's block source: ``points`` row-sampled under ``seed``."""
        source = self._source
        if self.sampling is None:
            return source
        fraction, with_replacement = self.sampling

        def blocks(split: int, env: WorkerEnv | None) -> list:
            return sample_rows(
                source(split, env), split, fraction, seed, with_replacement,
                env,
            )

        return blocks

    def submit(self, make_fn, granularity: str = "worker") -> list[int]:
        """Submit one round of ``make_fn`` tasks under the plan's policy."""
        return self.ac.scheduler.submit_round(
            self.rdd, make_fn, self.policy, granularity
        )

    def reduce(
        self,
        kernel: Callable[[Any], Any],
        seed: int,
        f: Callable[[Any, Any], Any],
        granularity: str = "worker",
    ) -> list[int]:
        """One ``map(kernel).async_reduce(f)`` round over the seed's sample."""
        return self.submit(
            _worker_reduce_factory(self.blocks(seed), f, kernel), granularity
        )
