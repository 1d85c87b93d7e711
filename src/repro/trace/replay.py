"""Deterministic golden-trace replay: Table I re-derived from a trace alone.

:class:`TraceReplayer` consumes a recorded event stream (the contents of a
:class:`~repro.trace.bus.MemorySink`, or a JSONL file re-read with
:func:`~repro.trace.bus.read_jsonl`) and re-derives, from the events alone:

* every Table I counter (:class:`~repro.metrics.table1.MetricsReport`), and
* the Fig. 6–10 inputs — Fig. 6 from the per-placement waste samples on
  ``Placed`` events, Fig. 7 from the ``ConfigLoaded`` count, Fig. 8 from the
  Eq. 8 components on ``Completed`` events, Fig. 9a/9b from the counter
  stamps, Fig. 10 from the per-load configuration times (Eq. 10) — plus the
  monitoring time series (busy nodes, queue length, wasted area, running
  tasks) from ``MonitorSampled`` events.

Each event is folded once, by :meth:`TraceReplayer.write`; the reports are
assembled against the stream's ``RunFinished``.  A prefix of a run replays
once a ``RunFinished`` framing is appended to it.

The reconstruction is **bit-identical** to the live accumulators: floating
aggregates are folded in the same order the live run folds them (placement
waste in placement order, waiting/running statistics in task-arrival order),
and the final report is assembled through the same
:func:`~repro.metrics.table1.assemble_report` code path the simulator uses.
``tests/test_trace_replay.py`` asserts equality on the paper's 100- and
200-node scenarios; the golden suite (``tests/golden/``) pins digests and
replayed counters for small scenarios across manager modes;
``tests/test_live_view.py`` holds the service's mid-run view, which the
simulator assembles from its own state, equal to a replay of the same
prefix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.metrics.accumulators import RunningStats
from repro.metrics.resilience import FaultLog, ResilienceReport, assemble_resilience
from repro.metrics.table1 import MetricsReport, assemble_report
from repro.metrics.timeseries import TimeSeries
from repro.trace import events as ev
from repro.trace.events import TraceEvent


class TraceError(ValueError):
    """The trace is malformed (missing framing events, unknown types…)."""


def _sampled(name: str) -> TimeSeries:
    """A series over ``array('q')`` columns, the live monitor's layout, so a
    replayed series equals the live one column for column."""
    return TimeSeries(name, array("q"), array("q"))


@dataclass
class ReplaySeries:
    """Monitor time series rebuilt from ``MonitorSampled`` events."""

    busy_nodes: TimeSeries = field(default_factory=lambda: _sampled("busy_nodes"))
    queue_length: TimeSeries = field(
        default_factory=lambda: _sampled("suspension_queue_length")
    )
    wasted_area: TimeSeries = field(default_factory=lambda: _sampled("wasted_area"))
    running_tasks: TimeSeries = field(
        default_factory=lambda: _sampled("running_tasks")
    )


class TraceReplayer:
    """Fold a trace into Table I aggregates and the monitor series.

    ``TraceReplayer(events).replay().report()``.  A malformed stream never
    raises from :meth:`write`: the first defect is recorded, folding stops,
    and every later query raises it as a :class:`TraceError`.  ``len()`` is
    the number of events written.
    """

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None) -> None:
        self.params: dict = {}
        self.series = ReplaySeries()
        # Resilience accumulation: the same primitive integer facts the live
        # failure injector records, in the same (event) order, so the
        # assembled ResilienceReport is bit-identical to the live one.
        self.fault_log = FaultLog()
        self._count = 0
        self._error: Optional[str] = None
        self._sample_system = True
        self._finished: Optional[TraceEvent] = None
        self._arrival_order: list[int] = []
        self._completed: dict[int, tuple[int, int, bool]] = {}  # task -> (wait, run, closest)
        self._discarded: set[int] = set()
        self._interrupted: set[int] = set()
        self._first_try = 0  # completed task numbers never interrupted
        self._suspension_events = 0
        self._placements_by_kind: dict[str, int] = {}
        self._placement_waste = RunningStats()
        self._system_waste_total = 0.0
        self._reconfig_loads = 0
        self._config_time_total = 0
        self._nodes_used: set[int] = set()
        self._open_fail: dict[int, int] = {}  # node -> index of its open failure span
        self._open_quar: dict[int, int] = {}  # node -> index of its open quarantine span
        if events is not None:
            for event in events:
                self.write(event)
            if not self._count:
                raise TraceError("empty trace")

    def __len__(self) -> int:
        return self._count

    # -- folding --------------------------------------------------------------

    def write(self, e: TraceEvent) -> None:
        """Fold one event into the aggregates."""
        self._count += 1
        if self._error is not None:
            return
        if self._count == 1 and not self._open(e):
            return
        et = e.type
        f = e.fields
        if et == ev.PLACED:
            kind = f["kind"]
            by_kind = self._placements_by_kind
            by_kind[kind] = by_kind.get(kind, 0) + 1
            node = f.get("node")
            if node is not None:
                self._nodes_used.add(node)
                # Fig. 6 headline sample: hosting node's free area, folded
                # in placement order exactly as the live run folds it.
                self._placement_waste.add(float(f["avail"]))
                if self._sample_system and "sw" in f:
                    self._system_waste_total += f["sw"]
        elif et == ev.TASK_ARRIVED:
            self._arrival_order.append(f["task"])
        elif et == ev.COMPLETED:
            task = f["task"]
            completed = self._completed
            if task not in completed and task not in self._interrupted:
                self._first_try += 1
            completed[task] = (f["wait"], f["run"], bool(f["closest"]))
        elif et == ev.CONFIG_LOADED:
            self._reconfig_loads += 1
            self._config_time_total += f["ctime"]
            self._nodes_used.add(f["node"])
        elif et == ev.MONITOR_SAMPLED:
            series = self.series
            try:
                series.busy_nodes.add(e.time, f["busy"])
                series.queue_length.add(e.time, f["queued"])
                series.wasted_area.add(e.time, f["waste"])
                series.running_tasks.add(e.time, f["running"])
            except (TypeError, ValueError, OverflowError) as exc:
                # A non-integer count or a sample before the previous one.
                self._error = f"bad MonitorSampled at seq {e.seq}: {exc}"
        elif et == ev.SUSPENDED:
            self._suspension_events += 1
        elif et == ev.DISCARDED:
            self._discarded.add(f["task"])
            if f.get("reason") == "retry_budget":
                self.fault_log.retry_discards += 1
        elif et == ev.RUN_FINISHED:
            self._finished = e
        elif et == ev.TASK_INTERRUPTED:
            task = f["task"]
            self.fault_log.interrupt(f.get("cls", "crash"))
            if task not in self._interrupted:
                self._interrupted.add(task)
                if task in self._completed:
                    self._first_try -= 1
        elif et == ev.NODE_FAILED:
            flog = self.fault_log
            self._open_fail[f["node"]] = len(flog.failures)
            flog.failures.append((e.time, f.get("cls", "crash"), -1))
        elif et == ev.NODE_REPAIRED:
            idx = self._open_fail.pop(f["node"], None)
            if idx is not None:
                failures = self.fault_log.failures
                start, cls, _end = failures[idx]
                failures[idx] = (start, cls, e.time)
        elif et == ev.CONFIG_FAULT:
            self.fault_log.config_faults += 1
        elif et == ev.TASK_RETRY:
            self.fault_log.retry(f["delay"])
        elif et == ev.NODE_QUARANTINED:
            flog = self.fault_log
            self._open_quar[f["node"]] = len(flog.quarantines)
            flog.quarantines.append((e.time, -1))
        elif et == ev.NODE_PROBATION:
            idx = self._open_quar.pop(f["node"], None)
            if idx is not None:
                quarantines = self.fault_log.quarantines
                start, _end = quarantines[idx]
                quarantines[idx] = (start, e.time)
        elif et in (ev.RUN_STARTED, ev.RESUMED, ev.CONFIG_EVICTED):
            # Explicit no-ops: framing (consumed by _open), resume markers,
            # and evictions contribute to no Table I aggregate.  Every
            # taxonomy member must appear in this dispatch chain (dreamlint
            # DL004) — a blanket EVENT_TYPES pass-through would silently
            # skip future event types instead.
            pass
        else:
            self._error = f"unknown event type {et!r} at seq {e.seq}"

    def _open(self, first: TraceEvent) -> bool:
        """Take the run parameters from the opening ``RunStarted``."""
        if first.type != ev.RUN_STARTED:
            if first.seq > 0:
                # Not a malformed trace — a checkpoint segment: a resumed
                # service's JSONL continues mid-stream (its first event
                # carries the next emission seq, not 0).  Replay needs the
                # whole logical stream; join the segments first.
                self._error = (
                    f"trace starts mid-stream at seq {first.seq} "
                    f"({first.type}): this is a checkpoint segment, not a "
                    "full trace — stitch it to the segments before it "
                    "(repro.trace.replay.stitch_traces) and replay the "
                    "joined stream"
                )
            else:
                self._error = f"trace must open with RunStarted, got {first.type}"
            return False
        self.params = dict(first.fields)
        self._sample_system = bool(self.params.get("sample_system", True))
        return True

    # -- public API -----------------------------------------------------------

    def replay(self) -> "TraceReplayer":
        """Check the folded stream is a whole run; returns self for chaining.

        Raises :class:`TraceError` for a malformed stream or one without
        ``RunFinished``, and stamps :attr:`fault_log` with the run's totals.
        """
        self._stamp_fault_log(self._end())
        return self

    def report(self) -> MetricsReport:
        """The Table I report of the folded stream."""
        end = self._end()
        # Waiting/running statistics fold in task-*arrival* order — the order
        # compute_report walks the simulator's task list — not in completion
        # order, so the Welford aggregates match bit for bit.
        waiting = RunningStats()
        running = RunningStats()
        closest = 0
        completed = self._completed
        for task_no in self._arrival_order:
            rec = completed.get(task_no)
            if rec is None:
                continue
            wait, run, used_closest = rec
            waiting.add(wait)
            running.add(run)
            if used_closest:
                closest += 1
        ss = end.fields["ss"]
        hk = end.fields["hk"]
        return assemble_report(
            total_tasks=len(self._arrival_order),
            waiting=waiting,
            running=running,
            completed=len(completed),
            discarded=len(self._discarded),
            closest=closest,
            total_reconfigs=self._reconfig_loads,
            config_time_total=self._config_time_total,
            node_count=self.params["nodes"],
            scheduling_steps=ss,
            total_workload=ss + hk,
            total_used_nodes=len(self._nodes_used),
            final_time=end.fields["final"],
            suspension_events=self._suspension_events,
            placements_by_kind=self._placements_by_kind,
            placement_waste=self._placement_waste,
            system_waste_total=self._system_waste_total,
        )

    def resilience_report(self) -> ResilienceReport:
        """The fault-campaign report of the folded stream.

        Folds the replayed :class:`FaultLog` through the same
        :func:`assemble_resilience` the live injector uses, so the result is
        bit-identical to :meth:`FailureInjector.resilience` for the run that
        produced the trace.
        """
        self._stamp_fault_log(self._end())
        return assemble_resilience(self.fault_log)

    # -- helpers --------------------------------------------------------------

    def _end(self) -> TraceEvent:
        """The stream's ``RunFinished``, or the stream's defect."""
        if self._error is not None:
            raise TraceError(self._error)
        if not self._count:
            raise TraceError("empty trace")
        if self._finished is None:
            raise TraceError("trace has no RunFinished event")
        return self._finished

    def _stamp_fault_log(self, end: TraceEvent) -> None:
        flog = self.fault_log
        flog.node_count = self.params["nodes"]
        flog.final_time = end.fields["final"]
        flog.total_tasks = len(self._arrival_order)
        flog.completed_first_try = self._first_try


def replay_report(events: Iterable[TraceEvent]) -> MetricsReport:
    """One-call convenience: events → replayed :class:`MetricsReport`."""
    return TraceReplayer(events).report()


def stitch_traces(*segments: Iterable[TraceEvent]) -> list[TraceEvent]:
    """Join checkpoint segments into one replayable stream.

    A checkpoint/resume cycle can leave the trace split across files: the
    prefix up to the cut, then each resumed service's continuation.  This
    validates the pieces actually form ONE stream — the first segment opens
    at seq 0 with ``RunStarted``, every later segment starts exactly where
    the previous one stopped (no gap, no overlap) — and returns the
    concatenation, ready for :class:`TraceReplayer`.
    """
    joined: list[TraceEvent] = []
    for index, segment in enumerate(segments):
        events = list(segment)
        if not events:
            continue
        expected = joined[-1].seq + 1 if joined else 0
        got = events[0].seq
        if got != expected:
            if got > expected:
                raise TraceError(
                    f"segment {index} starts at seq {got} but the previous "
                    f"segment ended at seq {expected - 1}: events "
                    f"{expected}..{got - 1} are missing"
                )
            raise TraceError(
                f"segment {index} starts at seq {got} but seq {expected} is "
                "next: the segments overlap (was the same prefix passed "
                "twice?)"
            )
        for prev, cur in zip(events, events[1:]):
            if cur.seq != prev.seq + 1:
                raise TraceError(
                    f"segment {index} is not contiguous: seq {cur.seq} "
                    f"follows seq {prev.seq}"
                )
        joined.extend(events)
    if not joined:
        raise TraceError("empty trace")
    return joined


__all__ = [
    "TraceReplayer",
    "TraceError",
    "ReplaySeries",
    "replay_report",
    "stitch_traces",
]
