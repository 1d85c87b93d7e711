"""List scheduling of task graphs on partially reconfigurable nodes.

Combines the HEFT-style *upward rank* priority with the paper's four-phase
placement algorithm: whenever a graph task's dependencies are satisfied it
enters the ready pool; ready tasks are dispatched highest-rank-first through
a :class:`~repro.core.scheduler.DreamScheduler`, so placement decisions (and
their configuration costs) follow the published algorithm while inter-task
precedence is honoured by the graph driver.

``priority="fifo"`` replaces the rank order with ready-time order — the
baseline the task-graph ablation bench compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

from repro.core.base import ScheduleResult
from repro.core.policies import PlacementPolicy
from repro.core.scheduler import DreamScheduler
from repro.model.config import Configuration
from repro.model.node import Node
from repro.model.task import Task
from repro.resources.manager import ResourceInformationManager
from repro.sim.environment import Environment
from repro.taskgraph.dag import GraphTask, TaskGraph


def upward_ranks(graph: TaskGraph) -> dict[GraphTask, float]:
    """HEFT upward rank: rank(t) = w(t) + max over successors of
    (comm(t,s) + rank(s)); entry tasks have the highest ranks along the
    critical path."""
    ranks: dict[GraphTask, float] = {}
    for t in reversed(graph.topological_order()):
        succ = graph.successors(t)
        tail = max((graph.comm(t, s) + ranks[s] for s in succ), default=0.0)
        ranks[t] = t.required_time + tail
    return ranks


@dataclass
class GraphTaskRecord:
    """Execution record for one graph vertex."""

    gtask: GraphTask
    task: Task
    node: Optional[Node] = None
    ready_at: int = 0
    started_at: int = -1
    finished_at: int = -1


@dataclass
class GraphScheduleResult:
    """Outcome of scheduling one task graph."""

    makespan: int
    records: dict[int, GraphTaskRecord] = field(default_factory=dict)  # gid ->
    critical_path: int = 0
    discarded: int = 0

    @property
    def efficiency(self) -> float:
        """Critical-path bound over achieved makespan (1.0 = optimal chain)."""
        return self.critical_path / self.makespan if self.makespan else 0.0


class TaskGraphScheduler:
    """Event-driven driver scheduling one task graph to completion.

    Parameters
    ----------
    nodes, configs:
        The resource set (fresh state; the driver owns its manager).
    partial:
        Paper scenario switch, as in :class:`DreamScheduler`.
    priority:
        ``"rank"`` (HEFT upward rank, default) or ``"fifo"`` (ready order).
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        configs: Sequence[Configuration],
        partial: bool = True,
        priority: Literal["rank", "fifo"] = "rank",
        policy: Optional[PlacementPolicy] = None,
    ) -> None:
        if priority not in ("rank", "fifo"):
            raise ValueError(f"unknown priority {priority!r}")
        self.env = Environment()
        self.rim = ResourceInformationManager(list(nodes), list(configs))
        self.scheduler = DreamScheduler(self.rim, partial=partial, policy=policy)
        self.priority = priority

    def run(self, graph: TaskGraph) -> GraphScheduleResult:
        """Execute the whole graph; returns makespan and per-task records."""
        graph.validate()
        ranks = upward_ranks(graph) if self.priority == "rank" else {}
        remaining_deps = {t: len(graph.predecessors(t)) for t in graph.tasks}
        data_ready: dict[GraphTask, int] = {t: 0 for t in graph.tasks}
        records: dict[int, GraphTaskRecord] = {}
        ready: list[GraphTask] = []
        running: dict[int, GraphTask] = {}  # task_no -> graph task
        discarded = [0]

        def order_key(gt: GraphTask):
            if self.priority == "rank":
                return (-ranks[gt], records[gt.gid].ready_at, gt.gid)
            return (records[gt.gid].ready_at, gt.gid)

        def make_ready(gt: GraphTask, at: int) -> None:
            rec = records.setdefault(
                gt.gid, GraphTaskRecord(gtask=gt, task=self._as_task(gt), ready_at=at)
            )
            rec.ready_at = max(rec.ready_at, at)
            ready.append(gt)

        def try_dispatch() -> None:
            now = self.env.now
            ready.sort(key=order_key)
            i = 0
            while i < len(ready):
                gt = ready[i]
                rec = records[gt.gid]
                if rec.ready_at > now:
                    i += 1  # data still in flight; not dispatchable yet
                    continue
                task = rec.task
                if task.create_time < 0:
                    task.mark_created(now)
                outcome = self.scheduler.schedule(task, now)
                if outcome.result is ScheduleResult.SCHEDULED:
                    ready.pop(i)
                    placement = outcome.placement
                    rec.node = placement.node
                    rec.started_at = now
                    running[task.task_no] = gt
                    finish = now + placement.start_delay + task.required_time
                    self.env.call_at(finish, lambda g=gt: on_complete(g))
                elif outcome.result is ScheduleResult.DISCARDED:
                    ready.pop(i)
                    discarded[0] += 1
                    # A discarded vertex releases its successors (degraded
                    # semantics: downstream work proceeds without the input).
                    release_successors(gt, now)
                else:
                    # Suspended: the scheduler queued it; it leaves the ready
                    # pool and returns via the redispatch path.
                    ready.pop(i)

        def release_successors(gt: GraphTask, now: int) -> None:
            for succ in graph.successors(gt):
                arrival = now + graph.comm(gt, succ)
                data_ready[succ] = max(data_ready[succ], arrival)
                remaining_deps[succ] -= 1
                if remaining_deps[succ] == 0:
                    at = data_ready[succ]
                    make_ready(succ, at)
                    self.env.call_at(max(at, self.env.now), try_dispatch)

        def on_complete(gt: GraphTask) -> None:
            now = self.env.now
            rec = records[gt.gid]
            task = rec.task
            task.mark_completed(now)
            rec.finished_at = now
            node = rec.node
            assert node is not None
            self.rim.complete_task(task, node)
            running.pop(task.task_no, None)
            # Redispatch suspended graph tasks suitable for the freed node.
            while True:
                cand = self.scheduler.next_redispatch(node)
                if cand is None:
                    break
                gt_c = next(
                    (g for g in records.values() if g.task is cand), None
                )
                out = self.scheduler.schedule(cand, now)
                if out.result is ScheduleResult.SCHEDULED and gt_c is not None:
                    gt_c.node = out.placement.node
                    gt_c.started_at = now
                    running[cand.task_no] = gt_c.gtask
                    finish = now + out.placement.start_delay + cand.required_time
                    self.env.call_at(finish, lambda g=gt_c.gtask: on_complete(g))
                else:
                    break
            release_successors(gt, now)
            try_dispatch()

        for entry in graph.entry_tasks():
            make_ready(entry, 0)
        self.env.call_at(0, try_dispatch)
        self.env.run()

        makespan = max(
            (r.finished_at for r in records.values() if r.finished_at >= 0),
            default=0,
        )
        return GraphScheduleResult(
            makespan=makespan,
            records=records,
            critical_path=graph.critical_path_length(),
            discarded=discarded[0],
        )

    def _as_task(self, gt: GraphTask) -> Task:
        task = Task(
            task_no=gt.gid,
            required_time=gt.required_time,
            pref_config=gt.pref_config,
        )
        return task


__all__ = ["TaskGraphScheduler", "GraphScheduleResult", "upward_ranks", "GraphTaskRecord"]
