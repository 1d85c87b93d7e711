"""The arrival-order fold of a run's terminal tasks.

Table I's per-task inputs — completed/discarded/closest-match counts and
the waiting/running Welford statistics — are folded over the simulator's
task list in *arrival* order.  Terminal states are final
(``COMPLETED``/``DISCARDED`` have no outgoing transition), so a task that
has been folded never changes again: :class:`TaskFold` keeps the
aggregates of ``tasks[:cursor]`` and a cursor that advances lazily over the
terminal prefix, stopping at the first task still live.  The service's
mid-run view reads it too (``ServiceSimulator.report_view``).

Readers see *fold ⊕ tasks[cursor:]*: :func:`repro.metrics.table1.compute_report`
copies the fold and folds the rest onto the copy, so the Welford updates
run in arrival order and are bit-identical to one pass over the whole list.

A checkpoint writes the fold record plus positional rows for the live tasks
only (:meth:`TaskFold.export_state`).  Terminal tasks past the cursor — a
long task still running holds the cursor back while later tasks finish —
are counted into the record at once; a completed one also leaves its
``[k, wait, run]`` Welford sample in ``deferred``, where ``k`` is the number
of rows before it in arrival order.  A restored fold replays each sample
right after its ``k``-th row is folded, so the statistics keep their order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.metrics.accumulators import RunningStats
from repro.model.errors import ConfigurationError
from repro.model.task import Task, TaskStatus, export_task

_COMPLETED = TaskStatus.COMPLETED
_DISCARDED = TaskStatus.DISCARDED

#: Non-negative integer fields of an exported fold record.
_COUNTS = ("count", "completed", "discarded", "closest", "first_try", "last_time")
_STATS = ("waiting", "running")


class TaskFold:
    """Table I's per-task aggregates over ``tasks[:cursor]``, all terminal.

    ``last_time`` is the latest terminal time folded (Eq. 5's end of
    workload); ``first_try`` counts completed tasks that were never
    interrupted by a fault (the goodput numerator).  ``last_no`` and
    ``rows`` describe the cut a restored fold came from: the number of the
    last task to arrive before the cut, and how many live tasks (the head
    of the restored task list) were written as rows.
    """

    __slots__ = (
        "cursor",
        "count",
        "completed",
        "discarded",
        "closest",
        "first_try",
        "last_time",
        "waiting",
        "running",
        "deferred",
        "_next",
        "last_no",
        "rows",
    )

    def __init__(self) -> None:
        self.cursor = 0
        self.count = 0
        self.completed = 0
        self.discarded = 0
        self.closest = 0
        self.first_try = 0
        self.last_time = 0
        self.waiting = RunningStats()
        self.running = RunningStats()
        # (k, wait, run) Welford samples of tasks already counted, due right
        # after tasks[k - 1] is folded; self._next indexes the first not yet
        # folded.  Only a restored fold has any.
        self.deferred: list[list[int]] = []
        self._next = 0
        self.last_no: Optional[int] = None
        self.rows = 0

    def copy(self) -> "TaskFold":
        """An independent fold with identical state (``deferred`` is shared
        read-only)."""
        out = TaskFold()
        out.cursor = self.cursor
        out.count, out.completed, out.discarded = self.count, self.completed, self.discarded
        out.closest, out.first_try, out.last_time = self.closest, self.first_try, self.last_time
        out.waiting = self.waiting.copy()
        out.running = self.running.copy()
        out.deferred, out._next = self.deferred, self._next
        out.last_no, out.rows = self.last_no, self.rows
        return out

    # -- folding ----------------------------------------------------------------

    def advance(self, tasks: Sequence[Task]) -> None:
        """Fold the terminal tasks at the cursor; stop at the first live one."""
        self._walk(tasks, True, None, None)

    def absorb(self, tasks: Sequence[Task]) -> int:
        """Fold every terminal task of ``tasks[cursor:]``; returns how many
        live tasks were passed over (they count toward the task total)."""
        return self._walk(tasks, False, None, None)

    def last_arrival_no(self, tasks: Sequence[Task]) -> Optional[int]:
        """The number of the latest task to arrive, ``tasks`` being the
        owner's list (a restored fold knows the cut's latest arrival)."""
        if len(tasks) > self.rows:
            return tasks[-1].task_no
        return self.last_no

    def _walk(
        self,
        tasks: Sequence[Task],
        stop: bool,
        rows: Optional[list[list[object]]],
        defer: Optional[list[list[int]]],
    ) -> int:
        """The one per-task loop: fold ``tasks[cursor:]`` in arrival order.

        ``stop`` halts at the first live task (advancing the cursor);
        otherwise live tasks are passed over and counted (returned), and,
        for an export, encoded into ``rows`` while completed tasks leave
        their Welford samples in ``defer`` instead of folding them.  The
        waiting/running updates are inlined with ``RunningStats.add``'s
        exact operation order (bit-identical aggregates); the
        ``waiting_time``/``running_time``/``used_closest_match`` properties
        are expanded over the task fields (a COMPLETED task has them set).
        """
        waiting, running = self.waiting, self.running
        w_n, w_total, w_mean, w_m2 = waiting.n, waiting.total, waiting._mean, waiting._m2
        w_min, w_max = waiting.min, waiting.max
        r_n, r_total, r_mean, r_m2 = running.n, running.total, running._mean, running._m2
        r_min, r_max = running.min, running.max
        count, completed, discarded = self.count, self.completed, self.discarded
        closest, first_try, last_time = self.closest, self.first_try, self.last_time
        deferred = self.deferred
        d = self._next
        nd = len(deferred)
        i = self.cursor
        end = len(tasks)
        live = 0
        while True:
            if d < nd and deferred[d][0] <= i:
                _k, wait, run = deferred[d]
                d += 1
                if defer is not None:
                    assert rows is not None
                    defer.append([len(rows), wait, run])
                    continue
            else:
                if i == end:
                    break
                t = tasks[i]
                status = t.status
                if status is _COMPLETED:
                    count += 1
                    completed += 1
                    ct = t.completion_time
                    if ct > last_time:
                        last_time = ct
                    ac = t.assigned_config
                    if not t.on_gpp and ac is not None and ac is not t.pref_config:
                        closest += 1
                    if t.fault_retries == 0:
                        first_try += 1
                    wait = t.start_time - t.create_time + t.comm_time + t.config_time_paid
                    run = ct - t.create_time
                    i += 1
                    if defer is not None:
                        assert rows is not None
                        defer.append([len(rows), wait, run])
                        continue
                elif status is _DISCARDED:
                    count += 1
                    discarded += 1
                    ct = t.completion_time
                    if ct > last_time:
                        last_time = ct
                    i += 1
                    continue
                else:
                    if stop:
                        break
                    if rows is not None:
                        rows.append(export_task(t))
                    live += 1
                    i += 1
                    continue
            w_n += 1
            w_total += wait
            delta = wait - w_mean
            w_mean += delta / w_n
            w_m2 += delta * (wait - w_mean)
            if wait < w_min:
                w_min = wait
            if wait > w_max:
                w_max = wait
            r_n += 1
            r_total += run
            delta = run - r_mean
            r_mean += delta / r_n
            r_m2 += delta * (run - r_mean)
            if run < r_min:
                r_min = run
            if run > r_max:
                r_max = run
        waiting.n, waiting.total, waiting._mean, waiting._m2 = w_n, w_total, w_mean, w_m2
        waiting.min, waiting.max = w_min, w_max
        running.n, running.total, running._mean, running._m2 = r_n, r_total, r_mean, r_m2
        running.min, running.max = r_min, r_max
        self.count, self.completed, self.discarded = count, completed, discarded
        self.closest, self.first_try, self.last_time = closest, first_try, last_time
        self._next = d
        self.cursor = i
        return live

    # -- snapshot support -------------------------------------------------------

    def export_state(
        self, tasks: Sequence[Task]
    ) -> tuple[dict[str, object], list[list[object]]]:
        """The fold record and the live task rows of a cut over ``tasks``.

        Advances the fold first; terminal tasks still past the cursor are
        counted into the record, their samples deferred (module docstring).
        """
        self.advance(tasks)
        rec = self.copy()
        rows: list[list[object]] = []
        deferred: list[list[int]] = []
        rec._walk(tasks, False, rows, deferred)
        return {
            "count": rec.count,
            "last_no": self.last_arrival_no(tasks),
            "completed": rec.completed,
            "discarded": rec.discarded,
            "closest": rec.closest,
            "first_try": rec.first_try,
            "last_time": rec.last_time,
            "waiting": rec.waiting.export_state(),
            "running": rec.running.export_state(),
            "deferred": deferred,
        }, rows

    def restore_state(self, state: object, rows: int) -> None:
        """Rebuild an exported record onto this fresh fold.

        ``rows`` is the number of live task rows restored with it, which
        become the head of the owner's task list.  A record with a missing
        field, a wrong type, a negative count or inconsistent totals raises
        :class:`ConfigurationError`.
        """
        if type(state) is not dict:
            raise ConfigurationError(f"snapshot fold record must be an object, got {state!r}")
        for name in _COUNTS:
            value = state.get(name)
            if type(value) is not int or value < 0:
                raise ConfigurationError(
                    f"snapshot fold field {name!r} must be an integer >= 0, got {value!r}"
                )
        last_no = state.get("last_no")
        if "last_no" not in state or (
            last_no is not None and (type(last_no) is not int or last_no < 0)
        ):
            raise ConfigurationError(
                f"snapshot fold field 'last_no' must be a task number or null, got {last_no!r}"
            )
        stats = [_restore_stats(state.get(name), name) for name in _STATS]
        deferred = state.get("deferred")
        if type(deferred) is not list:
            raise ConfigurationError(
                f"snapshot fold field 'deferred' must be a list, got {deferred!r}"
            )
        k_prev = 1
        for sample in deferred:
            if (
                type(sample) is not list
                or len(sample) != 3
                or any(type(x) is not int or x < 0 for x in sample)
                or not k_prev <= sample[0] <= rows
            ):
                raise ConfigurationError(
                    f"snapshot fold sample {sample!r} must be [k, wait, run] "
                    f"integers with k non-decreasing in 1..{rows}"
                )
            k_prev = sample[0]
        count, completed, discarded = state["count"], state["completed"], state["discarded"]
        closest, first_try = state["closest"], state["first_try"]
        waiting, running = stats
        if (
            count != completed + discarded
            or closest > completed
            or first_try > completed
            or waiting.n != running.n
            or waiting.n + len(deferred) != completed
            or (last_no is None and (count or rows))
        ):
            raise ConfigurationError(
                "snapshot fold totals are inconsistent: "
                f"count={count} completed={completed} discarded={discarded} "
                f"closest={closest} first_try={first_try} folded={waiting.n}/"
                f"{running.n} deferred={len(deferred)} last_no={last_no!r}"
            )
        self.cursor = 0
        self.count, self.completed, self.discarded = count, completed, discarded
        self.closest, self.first_try = closest, first_try
        self.last_time = state["last_time"]
        self.waiting, self.running = waiting, running
        self.deferred = deferred
        self._next = 0
        self.last_no = last_no
        self.rows = rows


def _restore_stats(state: object, name: str) -> RunningStats:
    """A validated :meth:`RunningStats.export_state` record."""
    if (
        type(state) is not dict
        or type(state.get("n")) is not int
        or state["n"] < 0
        or any(type(state.get(key)) is not str for key in ("mean", "m2", "total"))
        or any(type(state.get(key)) not in (int, str) for key in ("min", "max"))
    ):
        raise ConfigurationError(
            f"snapshot fold field {name!r} must be exported running statistics, "
            f"got {state!r}"
        )
    stats = RunningStats()
    try:
        stats.restore_state(state)
    except ValueError as exc:
        raise ConfigurationError(f"snapshot fold field {name!r}: {exc}") from None
    return stats


__all__ = ["TaskFold"]
