"""Table I — the simulator's performance-metric set.

:func:`compute_report` assembles every Table I metric from end-of-run state.
Two metrics admit more than one reading of the paper's prose; both readings
are computed and the choice used for the figures is documented:

* **Average wasted area per task** (Fig. 6).  The headline value is the mean
  over scheduled tasks of the hosting node's ``AvailableArea`` right after
  placement — the area rendered unusable by that task's placement, which is
  what the §VI-A discussion describes ("when the node is reconfigured with
  the C_pref … the remaining area is wasted").  The literal Eq. 6/7 reading
  (system-wide wasted area sampled per scheduling event, divided by total
  tasks) is also reported as ``avg_system_wasted_area_per_task``.
* **Average reconfiguration time per task** (Fig. 10, Eq. 10).  Computed
  from the per-configuration reconfiguration counts; cross-checkable against
  the scheduler's summed configuration-time payments (they are equal —
  a unit test enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.base import SchedulerStats
from repro.metrics.accumulators import RunningStats
from repro.metrics.taskfold import TaskFold
from repro.model.config import Configuration
from repro.model.node import Node
from repro.model.task import Task
from repro.resources.counters import SearchCounters


@dataclass(frozen=True)
class MetricsReport:
    """All Table I metrics plus reproduction extras, for one simulation run."""

    # -- Table I ---------------------------------------------------------------
    avg_wasted_area_per_task: float  # Fig. 6 headline (placement reading)
    avg_running_time_per_task: float  # arrival → completion
    avg_reconfig_count_per_node: float  # Fig. 7
    avg_reconfig_time_per_task: float  # Fig. 10, Eq. 10
    avg_waiting_time_per_task: float  # Fig. 8, Eqs. 8–9
    avg_scheduling_steps_per_task: float  # Fig. 9a
    total_discarded_tasks: int
    total_scheduler_workload: int  # Fig. 9b
    total_used_nodes: int
    total_simulation_time: int  # Eq. 5

    # -- supplementary ------------------------------------------------------------
    avg_system_wasted_area_per_task: float  # literal Eq. 6/7 reading
    total_tasks_generated: int
    total_completed_tasks: int
    total_suspension_events: int
    total_reconfigurations: int
    total_configuration_time: int  # Eq. 10 numerator
    closest_match_tasks: int
    placements_by_kind: Mapping[str, int] = field(default_factory=dict)
    waiting_time_stats: Mapping[str, float] = field(default_factory=dict)
    running_time_stats: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Flat dict for report writers (XML/CSV)."""
        out: dict[str, object] = {}
        for name in (
            "avg_wasted_area_per_task",
            "avg_running_time_per_task",
            "avg_reconfig_count_per_node",
            "avg_reconfig_time_per_task",
            "avg_waiting_time_per_task",
            "avg_scheduling_steps_per_task",
            "total_discarded_tasks",
            "total_scheduler_workload",
            "total_used_nodes",
            "total_simulation_time",
            "avg_system_wasted_area_per_task",
            "total_tasks_generated",
            "total_completed_tasks",
            "total_suspension_events",
            "total_reconfigurations",
            "total_configuration_time",
            "closest_match_tasks",
        ):
            out[name] = getattr(self, name)
        out["placements_by_kind"] = dict(self.placements_by_kind)
        return out


def total_configuration_time(
    configs: Sequence[Configuration], reconfig_count_by_config: Mapping[int, int]
) -> int:
    """Eq. 10: Σ_k ReconfigCount_k · ConfigTime_k."""
    return sum(
        reconfig_count_by_config.get(c.config_no, 0) * c.config_time for c in configs
    )


def assemble_report(
    *,
    total_tasks: int,
    waiting: RunningStats,
    running: RunningStats,
    completed: int,
    discarded: int,
    closest: int,
    total_reconfigs: int,
    config_time_total: int,
    node_count: int,
    scheduling_steps: int,
    total_workload: int,
    total_used_nodes: int,
    final_time: int,
    suspension_events: int,
    placements_by_kind: Mapping[str, int],
    placement_waste: Optional[RunningStats] = None,
    system_waste_total: float = 0.0,
) -> MetricsReport:
    """Build a :class:`MetricsReport` from primitive aggregates.

    Shared by :func:`compute_report` (live end-of-run state) and
    :class:`repro.trace.replay.TraceReplayer` (aggregates re-derived from an
    event trace), so both paths perform bit-identical arithmetic.
    """

    def per_task(x: float) -> float:
        return x / total_tasks if total_tasks else 0.0

    return MetricsReport(
        avg_wasted_area_per_task=(placement_waste.mean if placement_waste else 0.0),
        avg_running_time_per_task=running.mean,
        avg_reconfig_count_per_node=(total_reconfigs / node_count) if node_count else 0.0,
        avg_reconfig_time_per_task=per_task(config_time_total),
        avg_waiting_time_per_task=waiting.mean,
        avg_scheduling_steps_per_task=per_task(scheduling_steps),
        total_discarded_tasks=discarded,
        total_scheduler_workload=total_workload,
        total_used_nodes=total_used_nodes,
        total_simulation_time=final_time,
        avg_system_wasted_area_per_task=per_task(system_waste_total),
        total_tasks_generated=total_tasks,
        total_completed_tasks=completed,
        total_suspension_events=suspension_events,
        total_reconfigurations=total_reconfigs,
        total_configuration_time=config_time_total,
        closest_match_tasks=closest,
        placements_by_kind=dict(placements_by_kind),
        waiting_time_stats=waiting.snapshot(),
        running_time_stats=running.snapshot(),
    )


def compute_report(
    tasks: Sequence[Task],
    nodes: Sequence[Node],
    configs: Sequence[Configuration],
    counters: SearchCounters,
    scheduler_stats: SchedulerStats,
    reconfig_count_by_config: Mapping[int, int],
    final_time: int,
    total_used_nodes: int,
    placement_waste: Optional[RunningStats] = None,
    system_waste_total: float = 0.0,
    fold: Optional[TaskFold] = None,
) -> MetricsReport:
    """Assemble the Table I report from end-of-run state.

    ``placement_waste`` carries the per-placement hosting-node free-area
    samples; ``system_waste_total`` the Eq. 6 samples summed over scheduling
    events.  ``fold`` holds the tasks already folded — ``tasks[:fold.cursor]``
    (see :mod:`repro.metrics.taskfold`); the rest of ``tasks`` is folded onto
    a copy, in arrival order, so the report reads fold ⊕ ``tasks[cursor:]``.
    """
    acc = TaskFold() if fold is None else fold.copy()
    live = acc.absorb(tasks)
    total_reconfigs = sum(n.reconfig_count for n in nodes)
    config_time_total = total_configuration_time(configs, reconfig_count_by_config)

    return assemble_report(
        total_tasks=acc.count + live,
        waiting=acc.waiting,
        running=acc.running,
        completed=acc.completed,
        discarded=acc.discarded,
        closest=acc.closest,
        total_reconfigs=total_reconfigs,
        config_time_total=config_time_total,
        node_count=len(nodes),
        scheduling_steps=counters.scheduling_steps,
        total_workload=counters.total_workload,
        total_used_nodes=total_used_nodes,
        final_time=final_time,
        suspension_events=scheduler_stats.suspended,
        placements_by_kind=scheduler_stats.by_kind,
        placement_waste=placement_waste,
        system_waste_total=system_waste_total,
    )


__all__ = ["MetricsReport", "assemble_report", "compute_report", "total_configuration_time"]
