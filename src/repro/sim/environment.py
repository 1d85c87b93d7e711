"""The event-driven simulation environment.

:class:`Environment` owns the event queue (a binary heap of
``(time, sequence, event)`` records) and the integer simulation clock.  It
replaces the explicit ``IncreaseTimeTick`` loop of the original C++
DReAMSim: instead of visiting every tick, the clock jumps straight to the
next scheduled event.  The per-tick state maintenance the reference performs
on every tick is billed by the simulator's per-tick housekeeping charge, and
the golden traces pin the resulting timetick accounting.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.core import Event, SimulationError

#: The priority column snapshots carry for every pending record.  The kernel
#: has a single priority class, so this is a constant of the export format
#: (``[when, 1, seq, tag]``), kept so existing snapshot files stay valid.
EXPORT_PRIORITY = 1


class Environment:
    """Event-driven execution environment with an integer clock.

    Events fire in ``(time, insertion sequence)`` order, so two runs that
    schedule the same calls replay identically.
    """

    def __init__(self) -> None:
        self._now = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._event_count = 0

    @property
    def now(self) -> int:
        """Current simulation time in timeticks."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (kernel statistics)."""
        return self._event_count

    @property
    def schedule_seq(self) -> int:
        """Total events ever scheduled (the heap tie-break counter).

        Snapshots record this so a restored run hands out exactly the
        sequence numbers the uninterrupted run would have.
        """
        return self._seq

    @property
    def pending_count(self) -> int:
        """Number of events currently waiting in the queue."""
        return len(self._queue)

    def call_at(
        self,
        when: int,
        fn: Callable[[], None],
        tag: Optional[tuple] = None,
    ) -> Event:
        """Schedule a plain function call at an absolute integer time.

        ``tag`` is an optional serializable tuple naming the call (e.g.
        ``("complete", task_no)``); snapshots export pending events by tag
        and rebuild their callables from it on restore.  A ``when`` that is
        not an ``int`` (a ``bool`` does not count) raises :class:`TypeError`.
        """
        if type(when) is not int:
            raise TypeError(f"event time {when!r} is not an integer tick")
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        event = Event(fn, tag)
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, event))
        return event

    def step(self) -> None:
        """Fire the single next event.

        Raises :class:`SimulationError` if the queue is empty; an exception
        raised by the event's callable propagates unchanged.
        """
        if not self._queue:
            raise SimulationError("event queue is empty")
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        self._event_count += 1
        event.fn()

    def run(self, until: Optional[int] = None, *, idle_advance: bool = True) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        With ``until`` set, every event at or before it fires and the clock
        is then idled forward to exactly ``until``.  ``idle_advance=False``
        leaves the clock at the last fired event instead; windowed drivers
        use this so a run that ends mid-window produces the same event
        stream, byte for byte, as one driven straight through.  An ``until``
        that is not an ``int`` (a ``bool`` does not count) raises :class:`TypeError`.
        """
        queue = self._queue
        if until is None:
            while queue:
                self.step()
            return
        if type(until) is not int:
            raise TypeError(f"until={until!r} is not an integer tick")
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while queue and queue[0][0] <= until:
            self.step()
        if idle_advance:
            self._now = until

    # -- snapshot support --------------------------------------------------------

    def export_pending(
        self, rewrite: Optional[Callable[[tuple, Event], tuple]] = None
    ) -> list[tuple[int, int, int, tuple]]:
        """Export every pending event as ``(time, priority, seq, tag)``.

        Records come out in firing order so the export is canonical, and
        the priority is always :data:`EXPORT_PRIORITY`.  Every pending event
        must carry a tag; an untagged event means some subsystem scheduled
        work the snapshot layer cannot rebuild, so the run is not
        snapshottable and we refuse loudly.  ``rewrite`` may substitute the
        exported tag per event — e.g. mapping a stale completion to a no-op
        marker so the restored queue keeps the event (and its clock advance)
        without needing the dead callable; it sees ``(tag, event)`` and
        returns the tag to export.  Events are never dropped.
        """
        out: list[tuple[int, int, int, tuple]] = []
        for when, seq, event in sorted(self._queue):
            tag = event.tag
            if tag is None:
                raise SimulationError(
                    "cannot snapshot: pending event without a tag "
                    f"(scheduled for t={when}); only call_at(..., tag=...) "
                    "events are serializable"
                )
            if rewrite is not None:
                tag = rewrite(tag, event)
            out.append((when, EXPORT_PRIORITY, seq, tag))
        return out

    def restore_pending(
        self,
        records: list[tuple[int, int, int, tuple]],
        resolver: Callable[[tuple], Callable[[], None]],
        *,
        now: int,
        seq: int,
        event_count: int,
    ) -> list[Event]:
        """Rebuild the event queue from exported records.

        ``resolver`` maps each tag back to the zero-argument callable the
        original event would have run.  Original sequence numbers are
        preserved so heap tie-breaks replay identically; the clock, sequence
        counter and fired-event count are reset to the snapshot's values.
        Returns the rebuilt events in record order so callers can re-register
        them (e.g. the simulator's completion-event registry).

        Snapshot data comes from outside the program, so a non-``int``
        ``now``/``seq``/``event_count``, a record whose time or sequence is
        not an ``int``, a priority other than :data:`EXPORT_PRIORITY`, or a
        record earlier than ``now`` raises :class:`SimulationError` and
        leaves the environment untouched.
        """
        if self._queue:
            raise SimulationError("restore_pending requires an empty event queue")
        for name, value in (("now", now), ("seq", seq), ("event_count", event_count)):
            if type(value) is not int:
                raise SimulationError(f"snapshot {name}={value!r} is not an int")
        queue: list[tuple[int, int, Event]] = []
        for when, prio, ev_seq, tag in records:
            if type(when) is not int or type(ev_seq) is not int:
                raise SimulationError(
                    f"pending record ({when!r}, {ev_seq!r}) has a non-int time or seq"
                )
            if prio != EXPORT_PRIORITY or type(prio) is not int:
                raise SimulationError(
                    f"pending record at t={when} has priority {prio!r}, "
                    f"expected {EXPORT_PRIORITY}"
                )
            if when < now:
                raise SimulationError(
                    f"pending record at t={when} is earlier than now={now}"
                )
            tag = tuple(tag)
            queue.append((when, ev_seq, Event(resolver(tag), tag)))
        events = [event for _when, _seq, event in queue]
        heapq.heapify(queue)
        self._queue = queue
        self._now = now
        self._seq = seq
        self._event_count = event_count
        return events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment now={self._now} queued={len(self._queue)}>"
