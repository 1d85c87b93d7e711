"""Application tasks — Eq. 3 of the system model.

``Taskᵢ(t_required, C_pref, data)``: a task needs ``t_required`` timeticks on
its preferred processor configuration, and records the timestamps from which
Table I's per-task metrics are derived.  The waiting time follows Eq. 8:

    t_wait = t_start − t_create + t_comm + t_config
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.model.config import Configuration
from repro.model.errors import ConfigurationError, TaskStateError

UNSET = -1  # sentinel for timestamps not yet recorded (matches the C++ -1 idiom)


class TaskStatus(enum.Enum):
    """Task lifecycle states."""

    CREATED = "created"
    SUSPENDED = "suspended"  # waiting in the suspension queue
    RUNNING = "running"
    COMPLETED = "completed"
    DISCARDED = "discarded"


# Legal lifecycle transitions.  RUNNING -> SUSPENDED covers node-failure
# interruption (fail-restart semantics): the task loses its progress and
# re-queues.  RUNNING -> DISCARDED covers retry-budget exhaustion: the fault
# that interrupted the run also terminates the task.
_TRANSITIONS = {
    TaskStatus.CREATED: {TaskStatus.RUNNING, TaskStatus.SUSPENDED, TaskStatus.DISCARDED},
    TaskStatus.SUSPENDED: {TaskStatus.RUNNING, TaskStatus.DISCARDED, TaskStatus.SUSPENDED},
    TaskStatus.RUNNING: {TaskStatus.COMPLETED, TaskStatus.SUSPENDED, TaskStatus.DISCARDED},
    TaskStatus.COMPLETED: set(),
    TaskStatus.DISCARDED: set(),
}


@dataclass(eq=False, slots=True)
class Task:
    """One application task (Eq. 3) plus its bookkeeping timestamps.

    Parameters
    ----------
    task_no:
        Sequence number assigned by the job submission manager.
    required_time:
        Execution timeticks needed on the preferred configuration
        (``t_required``; Table II draws it from [100, 100 000]).
    pref_config:
        The preferred processor configuration ``C_pref``.  May be a
        configuration that does *not* exist in the system's configurations
        list — Table II makes that true for 15% of tasks, forcing the
        closest-match path.
    data:
        Opaque input payload (size in bytes in the synthetic workloads).
    """

    task_no: int
    required_time: int
    pref_config: Configuration
    data: Any = None
    create_time: int = UNSET
    start_time: int = UNSET
    completion_time: int = UNSET  # terminal tick: completion or discard
    comm_time: int = 0  # t_comm of Eq. 8 (network delay to reach the node)
    config_time_paid: int = 0  # t_config of Eq. 8 (0 on direct allocation)
    assigned_config: Optional[Configuration] = None
    on_gpp: bool = False  # executed on a general-purpose processor (hybrid)
    status: TaskStatus = TaskStatus.CREATED
    sus_retry: int = 0  # times popped from the suspension queue for retry
    fault_retries: int = 0  # times interrupted by a fault (retry-budget counter)
    scheduling_steps: int = 0  # search steps the scheduler spent on this task

    def __post_init__(self) -> None:
        if self.task_no < 0:
            raise ValueError("task_no must be non-negative")
        if self.required_time <= 0:
            raise ValueError(f"required_time must be positive, got {self.required_time}")

    # -- derived quantities ---------------------------------------------------

    @property
    def needed_area(self) -> int:
        """Area the task's preferred configuration occupies."""
        return self.pref_config.req_area

    @property
    def waiting_time(self) -> int:
        """Eq. 8: t_start − t_create + t_comm + t_config.

        Only defined once the task has started; raises otherwise.
        """
        if self.start_time == UNSET or self.create_time == UNSET:
            raise TaskStateError(f"task {self.task_no} has not started; no waiting time yet")
        return self.start_time - self.create_time + self.comm_time + self.config_time_paid

    @property
    def running_time(self) -> int:
        """Time from arrival to completion (Table I 'average running time')."""
        if self.status is not TaskStatus.COMPLETED:
            raise TaskStateError(f"task {self.task_no} has not completed")
        return self.completion_time - self.create_time

    @property
    def used_closest_match(self) -> bool:
        """True if the task ran on a configuration other than its preference.

        GPP executions are not closest matches — they bypass configuration
        matching entirely.
        """
        if self.on_gpp:
            return False
        return self.assigned_config is not None and self.assigned_config is not self.pref_config

    # -- lifecycle ---------------------------------------------------------------

    def _transition(self, new: TaskStatus) -> None:
        if new not in _TRANSITIONS[self.status]:
            raise TaskStateError(
                f"task {self.task_no}: illegal transition {self.status.value} -> {new.value}"
            )
        self.status = new

    def mark_created(self, now: int) -> None:
        """Record arrival into the system (CreateTask)."""
        if self.create_time != UNSET:
            raise TaskStateError(f"task {self.task_no} already created")
        self.create_time = now

    def mark_suspended(self, now: int) -> None:
        """Enter the suspension queue."""
        self._transition(TaskStatus.SUSPENDED)

    def mark_started(
        self,
        now: int,
        assigned_config: Configuration,
        comm_time: int = 0,
        config_time_paid: int = 0,
        on_gpp: bool = False,
    ) -> None:
        """Record dispatch to a node (SendTaskToNode)."""
        self._transition(TaskStatus.RUNNING)
        self.start_time = now
        self.assigned_config = assigned_config
        self.comm_time = comm_time
        self.config_time_paid = config_time_paid
        self.on_gpp = on_gpp

    def mark_completed(self, now: int) -> None:
        """Record completion (TaskCompletionProc)."""
        self._transition(TaskStatus.COMPLETED)
        self.completion_time = now

    def mark_discarded(self, now: int) -> None:
        """Record discard (no placement possible, or retries exhausted)."""
        self._transition(TaskStatus.DISCARDED)
        self.completion_time = now

    def __repr__(self) -> str:
        return (
            f"Task(#{self.task_no}, t_req={self.required_time}, "
            f"pref=C{self.pref_config.config_no}, status={self.status.value})"
        )


# -- snapshot serialization ----------------------------------------------------
#
# A task travels as one positional row, in the order of ``TASK_ROW``.
# Configurations are referenced as ``[config_no, req_area, config_time]``
# triples: snapshot restore maps known numbers back onto the system's own
# Configuration objects (the object-identity contract behind
# ``used_closest_match`` and ``Node.add_task``) and fabricates fresh objects
# for the unknown preferences the workload generator invented.

#: Field order of a task row (:func:`export_task` / :func:`restore_task`).
TASK_ROW = (
    "no", "req", "pref", "data", "create", "start", "completion", "comm",
    "ctp", "assigned", "on_gpp", "status", "sus_retry", "fault_retries",
    "steps",
)


def export_task(task: Task) -> list[object]:
    """Serialize one task to a JSON-safe positional row (snapshot support)."""
    pref = task.pref_config
    assigned = task.assigned_config
    # ``_name_`` is the member's plain name attribute; ``.name`` goes
    # through a descriptor, which costs more than the rest of the row.
    return [
        task.task_no,
        task.required_time,
        [pref.config_no, pref.req_area, pref.config_time],
        task.data,
        task.create_time,
        task.start_time,
        task.completion_time,
        task.comm_time,
        task.config_time_paid,
        (
            None
            if assigned is None
            else [assigned.config_no, assigned.req_area, assigned.config_time]
        ),
        task.on_gpp,
        task.status._name_,
        task.sus_retry,
        task.fault_retries,
        task.scheduling_steps,
    ]


def _row_int(row: list[object], index: int, low: int) -> int:
    value = row[index]
    if type(value) is not int or value < low:
        raise ConfigurationError(
            f"snapshot task row field {TASK_ROW[index]!r} must be an integer "
            f">= {low}, got {value!r}"
        )
    return value


def _row_triple(value: object, what: str) -> list[int]:
    if (
        type(value) is not list
        or len(value) != 3
        or any(type(x) is not int for x in value)
    ):
        raise ConfigurationError(
            f"snapshot task row field {what!r} must be a [config_no, "
            f"req_area, config_time] integer triple, got {value!r}"
        )
    return value


def _row_status(value: object, what: str) -> TaskStatus:
    if type(value) is not str or value not in TaskStatus.__members__:
        raise ConfigurationError(
            f"snapshot task row {what} {value!r} is not a task status"
        )
    return TaskStatus[value]


def restore_task(
    row: list[object], resolve_config: Callable[[list[int]], Configuration]
) -> Task:
    """Rebuild a task from an :func:`export_task` row.

    ``resolve_config`` maps a ``[config_no, req_area, config_time]`` triple
    to a Configuration — the same resolver must serve every task of one
    snapshot so exact-match preferences regain object identity with the
    system list (and with each other).  A row of the wrong arity, or a
    field of the wrong type or range, raises :class:`ConfigurationError`.
    """
    if type(row) is not list or len(row) != len(TASK_ROW):
        raise ConfigurationError(
            f"snapshot task row must be a list of {len(TASK_ROW)} fields, "
            f"got {row!r}"
        )
    on_gpp = row[10]
    if type(on_gpp) is not bool:
        raise ConfigurationError(
            f"snapshot task row field 'on_gpp' must be a boolean, got {on_gpp!r}"
        )
    assigned = row[9]
    try:
        pref = resolve_config(_row_triple(row[2], "pref"))
        assigned_config = (
            None if assigned is None else resolve_config(_row_triple(assigned, "assigned"))
        )
    except ValueError as exc:
        raise ConfigurationError(f"snapshot task row configuration: {exc}") from None
    task = Task(
        task_no=_row_int(row, 0, 0),
        required_time=_row_int(row, 1, 1),
        pref_config=pref,
        data=row[3],
    )
    task.create_time = _row_int(row, 4, UNSET)
    task.start_time = _row_int(row, 5, UNSET)
    task.completion_time = _row_int(row, 6, UNSET)
    task.comm_time = _row_int(row, 7, 0)
    task.config_time_paid = _row_int(row, 8, 0)
    task.assigned_config = assigned_config
    task.on_gpp = on_gpp
    task.status = _row_status(row[11], "status")
    task.sus_retry = _row_int(row, 12, 0)
    task.fault_retries = _row_int(row, 13, 0)
    task.scheduling_steps = _row_int(row, 14, 0)
    return task


__all__ = ["TASK_ROW", "Task", "TaskStatus", "UNSET", "export_task", "restore_task"]
