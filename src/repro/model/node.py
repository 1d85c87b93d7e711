"""Reconfigurable nodes — Eq. 1 of the system model.

A node owns a *config–task-pair list* (Fig. 3): one entry per currently
loaded configuration, each either idle (no task) or busy (executing exactly
one task).  The class maintains Eq. 4 as a hard invariant:

    AvailableArea = TotalArea − Σ ReqArea(loaded configurations)

and exposes the methods of the paper's ``Node`` class: ``SendBitstream``,
``MakeNodeBlank``, ``MakeNodePartiallyBlank``, ``AddTaskToNode``,
``RemoveTaskFromNode`` (snake_cased here).

Nodes never touch the per-configuration idle/busy chains directly — chain
membership is owned by :mod:`repro.resources`, which observes these mutations
through the resource information manager.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.model.config import Configuration
from repro.model.errors import AreaError, ConfigurationError
from repro.model.family import Capability, DeviceFamily
from repro.model.task import Task


class NodeState(enum.Enum):
    """Aggregate node state (Eq. 1 ``state``).

    With partial reconfiguration a node can simultaneously hold busy and idle
    regions; the aggregate state is BUSY if *any* entry is executing a task,
    mirroring the paper's coarse busy/idle flag.
    """

    IDLE = "idle"
    BUSY = "busy"


@dataclass(eq=False)
class ConfigTaskEntry:
    """One configuration–task pair on a node (Fig. 3's ``ConfigTaskPair``).

    ``task is None`` ⇔ this configured region is idle (the figure's NULL).
    """

    config: Configuration
    task: Optional[Task] = None
    loaded_at: int = 0  # timetick when the bitstream finished loading

    @property
    def is_idle(self) -> bool:
        return self.task is None

    @property
    def is_busy(self) -> bool:
        return self.task is not None

    def __repr__(self) -> str:
        t = f"T{self.task.task_no}" if self.task else "NULL"
        return f"<Entry C{self.config.config_no}:{t}>"


@dataclass(eq=False)
class Node:
    """A partially reconfigurable processing node (Eq. 1)."""

    node_no: int
    total_area: int
    family: Optional[DeviceFamily] = None
    caps: frozenset[Capability] = field(default_factory=frozenset)
    network_delay: int = 0  # t_comm contribution for tasks sent to this node
    entries: list[ConfigTaskEntry] = field(default_factory=list)
    reconfig_count: int = 0  # total bitstream loads (Table I numerator)
    in_service: bool = True  # False while failed (failure-injection studies)
    # Recent-failure health score in integer milli-units (1000 per failure,
    # dyadic decay), maintained by bump_health — kept integral so quarantine
    # decisions are platform-deterministic.
    health_milli: int = 0
    health_updated: int = 0  # tick of the last health-score update

    def __post_init__(self) -> None:
        if self.node_no < 0:
            raise ValueError("node_no must be non-negative")
        if self.total_area <= 0:
            raise ValueError(f"total_area must be positive, got {self.total_area}")
        if self.network_delay < 0:
            raise ValueError("network_delay must be non-negative")
        self._available_area = self.total_area - sum(e.config.req_area for e in self.entries)
        if self._available_area < 0:
            raise AreaError(f"node {self.node_no}: initial entries exceed total area")
        # Busy-region counter and busy-area accumulator keep the state and
        # load queries O(1); maintained by add_task/remove_task/interrupt_all.
        self._busy_count = sum(1 for e in self.entries if e.is_busy)
        self._busy_area = sum(e.config.req_area for e in self.entries if e.is_busy)

    # -- Eq. 4 ------------------------------------------------------------------

    @property
    def available_area(self) -> int:
        """Remaining reconfigurable area (Eq. 4); maintained incrementally."""
        return self._available_area

    def check_area_invariant(self) -> None:
        """Recompute Eq. 4 from scratch; raises on drift (debug/test hook)."""
        expected = self.total_area - sum(e.config.req_area for e in self.entries)
        if expected != self._available_area:
            raise AreaError(
                f"node {self.node_no}: area invariant violated "
                f"(cached {self._available_area}, recomputed {expected})"
            )

    # -- state queries ---------------------------------------------------------------

    @property
    def is_blank(self) -> bool:
        """No configurations at all (the paper's 'blank node')."""
        return not self.entries

    @property
    def is_partially_blank(self) -> bool:
        """Configured, but with free area remaining for another region."""
        return bool(self.entries) and self._available_area > 0

    @property
    def state(self) -> NodeState:
        return NodeState.BUSY if self._busy_count > 0 else NodeState.IDLE

    @property
    def running_tasks(self) -> list[Task]:
        return [e.task for e in self.entries if e.task is not None]

    @property
    def config_count(self) -> int:
        """Cardinality m of the configuration set C (Eq. 1)."""
        return len(self.entries)

    def idle_entries(self) -> list[ConfigTaskEntry]:
        """Loaded regions with no running task."""
        return [e for e in self.entries if e.is_idle]

    def busy_entries(self) -> list[ConfigTaskEntry]:
        """Loaded regions currently executing a task."""
        return [e for e in self.entries if e.is_busy]

    @property
    def busy_area(self) -> int:
        """Area under configurations currently executing a task (O(1))."""
        return self._busy_area

    @property
    def busy_count(self) -> int:
        """Number of entries currently executing a task (O(1)).

        Public read-only view of the incremental counter, for the resource
        manager's state classification and the invariant checker (which must
        not reach into ``_busy_count`` from another module).
        """
        return self._busy_count

    def reclaimable_area(self) -> int:
        """Free area + area under idle configurations (Alg. 1's accumulator).

        Identically ``TotalArea − busy area``, answered from the incremental
        busy-area accumulator in O(1).
        """
        return self.total_area - self._busy_area

    def find_idle_entry(self, config: Configuration) -> Optional[ConfigTaskEntry]:
        """First idle entry holding exactly ``config``, if any."""
        for e in self.entries:
            if e.is_idle and e.config is config:
                return e
        return None

    def has_capability(self, cap: Capability) -> bool:
        """Does this node advertise the given Eq. 1 capability?"""
        return cap in self.caps

    # -- health score ------------------------------------------------------------------

    def bump_health(self, now: int, half_life: int) -> int:
        """Record one failure on the recent-failure score; returns it.

        The score is an exponentially decayed failure count in integer
        milli-units: 1000 per failure, halved for every ``half_life`` ticks
        elapsed since the last update (dyadic integer decay — no floats, so
        quarantine decisions are bit-identical across platforms and across
        backends).
        """
        elapsed = now - self.health_updated
        score = self.health_milli >> min(63, max(0, elapsed // max(1, half_life)))
        score += 1000
        self.health_milli = score
        self.health_updated = now
        return score

    # -- mutations (the paper's Node methods) ----------------------------------------

    def send_bitstream(self, config: Configuration, now: int = 0) -> ConfigTaskEntry:
        """Load ``config`` into a free region (the paper's ``SendBitstream``).

        Adjusts ``AvailableArea``, increments the reconfiguration count and
        returns the new idle entry.
        """
        if not config.compatible_with_node_family(self.family):
            raise ConfigurationError(
                f"node {self.node_no}: family incompatible with config {config.config_no}"
            )
        if config.req_area > self._available_area:
            raise AreaError(
                f"node {self.node_no}: config {config.config_no} needs "
                f"{config.req_area} but only {self._available_area} available"
            )
        entry = ConfigTaskEntry(config=config, loaded_at=now)
        self.entries.append(entry)
        self._available_area -= config.req_area
        self.reconfig_count += 1
        return entry

    def make_blank(self) -> list[ConfigTaskEntry]:
        """Remove *all* configurations (the paper's ``MakeNodeBlank``).

        Only legal when no entry is executing a task.  Returns the removed
        entries so the resource manager can unlink them from idle chains.
        """
        busy = self.busy_entries()
        if busy:
            raise ConfigurationError(
                f"node {self.node_no}: cannot blank while {len(busy)} task(s) running"
            )
        removed, self.entries = self.entries, []
        self._available_area = self.total_area
        return removed

    def make_partially_blank(self, entries: Iterable[ConfigTaskEntry]) -> int:
        """Remove specific idle entries (the paper's ``MakeNodePartiallyBlank``).

        Returns the area reclaimed.  Raises if any entry is busy or foreign.
        """
        to_remove = list(entries)
        reclaimed = 0
        for e in to_remove:
            if e not in self.entries:
                raise ConfigurationError(f"node {self.node_no}: entry {e!r} not on this node")
            if e.is_busy:
                raise ConfigurationError(
                    f"node {self.node_no}: cannot remove busy entry {e!r}"
                )
        for e in to_remove:
            self.entries.remove(e)
            reclaimed += e.config.req_area
        self._available_area += reclaimed
        return reclaimed

    def add_task(self, task: Task, entry: ConfigTaskEntry) -> None:
        """Bind a task to an idle entry (the paper's ``AddTaskToNode``)."""
        if entry not in self.entries:
            raise ConfigurationError(f"node {self.node_no}: entry {entry!r} not on this node")
        if entry.is_busy:
            raise ConfigurationError(
                f"node {self.node_no}: entry already running task {entry.task.task_no}"  # type: ignore[union-attr]
            )
        if task.assigned_config is not None and task.assigned_config is not entry.config:
            raise ConfigurationError(
                f"task {task.task_no} assigned config "
                f"{task.assigned_config.config_no} != entry config {entry.config.config_no}"
            )
        entry.task = task
        self._busy_count += 1
        self._busy_area += entry.config.req_area

    def remove_task(self, task: Task) -> ConfigTaskEntry:
        """Unbind a finished task (the paper's ``RemoveTaskFromNode``).

        The configuration stays loaded (an idle entry remains), which is what
        enables later zero-cost direct allocations.
        """
        for e in self.entries:
            if e.task is task:
                e.task = None
                self._busy_count -= 1
                self._busy_area -= e.config.req_area
                return e
        raise ConfigurationError(f"node {self.node_no}: task {task.task_no} not running here")

    def interrupt_all(self) -> list[Task]:
        """Detach every running task (node failure); returns them in entry order.

        The entries stay on the node (now idle) — the caller decides whether
        the configurations survive (they do not on SRAM loss; the resource
        manager follows with :meth:`make_blank`).
        """
        interrupted: list[Task] = []
        for e in self.entries:
            if e.is_busy:
                task = e.task
                assert task is not None
                e.task = None
                self._busy_count -= 1
                self._busy_area -= e.config.req_area
                interrupted.append(task)
        return interrupted

    def __repr__(self) -> str:
        return (
            f"Node(#{self.node_no}, total={self.total_area}, "
            f"avail={self._available_area}, entries={len(self.entries)}, "
            f"state={self.state.value})"
        )


def load_weights(nodes: Sequence[Node]) -> list[int]:
    """Integer load weights of a node table, ``D // total_area`` with ``D``
    the lcm of the areas: ``busy_area * w`` is a node's load ``busy_area /
    total_area`` scaled by ``D``, so load sums stay exact integers."""
    den = math.lcm(*(n.total_area for n in nodes))
    return [den // n.total_area for n in nodes]


__all__ = ["Node", "NodeState", "ConfigTaskEntry", "load_weights"]
