"""The DReAMSim simulation driver.

Wires the event kernel, the resource information manager, the scheduler and
the metric accumulators into the run loop of the original's ``DreamSim``
class (``RunScheduler`` + ``MakeReport``):

* task arrivals are fed lazily from the workload stream (the *job submission
  manager*), one pending arrival event at a time, so memory stays O(active);
* each arrival is scheduled immediately (the paper's scheduler is invoked
  per arriving task);
* completions release node regions, then re-dispatch suitable suspended
  tasks (the ``TaskCompletionProc`` / suspension-queue protocol of §IV);
* every placement samples the wasted-area accumulators (Eqs. 6–7);
* the end-of-run :class:`~repro.metrics.table1.MetricsReport` is Table I.

Determinism: identical (nodes, configs, arrival stream, mode, policy) inputs
replay identically — the kernel breaks event ties by insertion order and all
randomness lives in the workload generators.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, Optional

from repro.core.base import Placement, PlacementKind, ScheduleOutcome, ScheduleResult
from repro.core.policies import PlacementPolicy
from repro.core.scheduler import DreamScheduler
from repro.metrics.accumulators import RunningStats
from repro.metrics.table1 import MetricsReport, compute_report
from repro.metrics.taskfold import TaskFold
from repro.model.config import Configuration
from repro.model.errors import ConfigurationError
from repro.model.node import ConfigTaskEntry, Node
from repro.model.task import Task, export_task, restore_task
from repro.resources import create_manager, resolve_backend
from repro.resources.counters import SearchCounters
from repro.resources.invariants import InvariantViolation, check_invariants
from repro.resources.susqueue import SuspensionQueue
from repro.sim.core import Event, SimulationError
from repro.sim.environment import Environment
from repro.trace.events import (
    COMPLETED,
    DISCARDED,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_ARRIVED,
    line_encoder,
)
from repro.workload.generator import TaskArrival

from repro.framework.hotloop import (
    export_pending,
    hot_eligible,
    in_hot_envelope,
    queue_arrival,
    run_hot,
)
from repro.framework.loadbalance import LoadBalancer
from repro.framework.monitoring import Monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.gpp import GppPool
    from repro.trace.bus import TraceBus

# Trace shapes (TraceBus.emit takes the values in this order).
_RUN_STARTED = line_encoder(RUN_STARTED, "nodes", "configs", "partial", "sample_system")
_RUN_FINISHED = line_encoder(RUN_FINISHED, "final")
_TASK_ARRIVED = line_encoder(TASK_ARRIVED, "task", "pref", "req")
_COMPLETED = line_encoder(COMPLETED, "task", "node", "wait", "run", "closest")
_DISCARDED = line_encoder(DISCARDED, "task", "reason")


class IngestError(ValueError):
    """An arrival pushed through :meth:`DReAMSim.ingest` breaks its contract."""


@dataclass
class SimulationResult:
    """Everything a run produces: metrics, per-task records, monitor series.

    ``tasks`` lists every task in arrival order — except on a run resumed
    from a snapshot, which carries only the tasks live at the cut (the
    rest are folded into its reports), followed by every later arrival.
    """

    report: MetricsReport
    tasks: list[Task]
    monitor: Monitor
    load: LoadBalancer
    final_time: int
    partial: bool
    params: dict[str, object] = field(default_factory=dict)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector for a whole-run loop (or one service window).

    Both run loops allocate heavily, and gen-0 scans of the growing
    task/sample lists otherwise cost >10% of the run.  Reference counting
    still frees everything acyclic; any cycle waits for the collector to
    resume.  Liveness is unaffected, so results are identical.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class DReAMSim:
    """One simulation run over a fixed node table and arrival stream.

    Parameters
    ----------
    nodes, configs:
        The generated resource set (see :mod:`repro.workload.generator`).
    arrivals:
        Iterable of :class:`TaskArrival`, non-decreasing in time.
    partial:
        Scenario switch: partial reconfiguration on (paper's "with") or off
        (one node – one task baseline).
    policy:
        Placement-selection policy (default: the paper's min-area rule).
    max_retries / max_queue_length:
        Suspension-queue bounds (both unbounded by default, as in the paper's
        parameter set where discards arise only from impossible areas).
    debug_invariants_every:
        If set, every N placements run the full invariant checker, the
        suspension queue's index check and an integer-clock check (slow;
        testing/diagnosis only).
    sample_system_waste:
        Sample Eq. 6 at every placement (O(nodes) each; on by default).
    backend:
        Resource-manager backend: ``"array"`` (the default, also for
        ``None``: :class:`repro.resources.arraycore.ArrayRIM`, driven by the
        flat-table hot loop, fault campaigns and :meth:`advance` windows
        included) or ``"scan"`` (the reference linear-scan manager, the
        differential baseline).  Both share one
        :class:`~repro.resources.susqueue.SuspensionQueue`.  An ``"array"``
        request outside the hot loop's envelope — a GPP pool, a non-default
        ``policy``, ``debug_invariants_every``, a ``TraceBus`` subclass
        (:func:`repro.framework.hotloop.in_hot_envelope`) — runs on the
        scan manager, as a heterogeneous (device-family) system does.
    trace:
        Optional :class:`repro.trace.TraceBus`.  The simulator wires its
        clock and counters onto the bus and hands it to every subsystem, so
        one attached bus observes the full event stream (DESIGN.md §9).
        The backend is deliberately NOT recorded in the trace — both
        backends must produce identical digests.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        configs: Iterable[Configuration],
        arrivals: Iterable[TaskArrival],
        partial: bool = True,
        policy: Optional[PlacementPolicy] = None,
        max_retries: Optional[int] = None,
        max_queue_length: Optional[int] = None,
        debug_invariants_every: Optional[int] = None,
        sample_system_waste: bool = True,
        monitor_min_interval: int = 0,
        per_tick_housekeeping: Optional[int] = None,
        queue_order: str = "fifo",
        gpp: Optional["GppPool"] = None,
        backend: Optional[str] = None,
        trace: Optional["TraceBus"] = None,
    ) -> None:
        self.env = Environment()
        self.counters = SearchCounters()
        self.trace = trace
        if trace is not None:
            trace.clock = lambda: self.env.now
            trace.counters = self.counters
        self.backend = resolve_backend(backend)
        manager = self.backend
        if not in_hot_envelope(policy, gpp, debug_invariants_every, trace):
            manager = "scan"
        self.rim = create_manager(
            list(nodes), list(configs), self.counters, backend=manager, trace=trace
        )
        self.susqueue = SuspensionQueue(
            self.counters,
            max_retries=max_retries,
            max_length=max_queue_length,
            order=queue_order,
            trace=trace,
        )
        self.scheduler = DreamScheduler(
            self.rim, self.susqueue, partial=partial, policy=policy,
            gpp_pool=gpp, trace=trace,
        )
        self.gpp = gpp
        self.partial = partial
        self.monitor = Monitor(min_interval=monitor_min_interval, trace=trace)
        self.load = LoadBalancer(self.rim)
        self.tasks: list[Task] = []
        # Arrival-order terminal fold: tasks[:_fold.cursor] are terminal and
        # folded into one record; the cursor advances lazily, at export and
        # report time (repro.metrics.taskfold).
        self._fold = TaskFold()
        self.placement_waste = RunningStats()
        self.system_waste_total = 0.0
        self._system_waste_samples = 0
        self._arrivals: Iterator[TaskArrival] = iter(arrivals)
        self._placements: dict[int, Placement] = {}  # task_no -> placement
        self._debug_every = debug_invariants_every
        self._sample_system = sample_system_waste
        self._placed_count = 0
        self._started = False
        self._done = False
        self._final_value: Optional[int] = None  # cached by run()
        self._arrivals_done = False  # the lazy arrival feed hit stream end
        self._arrivals_consumed = 0  # tasks drawn from the constructor stream
        # The arrival drawn from the stream but not yet fired — snapshot
        # restore cannot redraw it (the generator moved on), so it travels
        # in the snapshot explicitly.
        self._pending_arrival: Optional[TaskArrival] = None
        # Live completion event per placed task.  A completion event whose
        # placement was invalidated (node crash) is *stale*: the live run
        # no-ops it, and the snapshot export rewrites it to a
        # ``("noop", task_no)`` clock-advancer — this registry is how export
        # tells live events from stale ones.
        self._completion_events: dict[int, Event] = {}
        # Incremental-ingest seam (service mode): tasks pushed in from
        # outside interleave after the constructor stream drains.
        self._ingest_buffer: deque[TaskArrival] = deque()
        self._ingest_open = False
        # System configurations by number, for canonicalizing ingested
        # preferences onto the identity-compared objects.
        self._config_by_no: dict[int, Configuration] = {
            c.config_no: c for c in self.rim.configs
        }
        # Tasks parked in a fault-retry backoff: interrupted, scheduled to
        # re-enter at now + delay, in neither _placements nor the susqueue.
        # The failure injector maintains the count; the workload is not
        # finished while any retry is pending.
        self._pending_retries = 0
        # Per-tick housekeeping cost: the reference simulator advances time
        # tick-by-tick, maintaining node/config state each tick; the default
        # bills one step per node per elapsed tick (the monitoring walk).
        if per_tick_housekeeping is None:
            per_tick_housekeeping = len(self.rim.nodes)
        self._per_tick_hk = per_tick_housekeeping
        self._last_hk_time = 0
        # The flat-table loop once a drive has taken it (repro.framework.
        # hotloop.run_hot): paused between windows, it owns the heap, whose
        # arrival and completion records are then loop records.
        self._hot: Optional[Generator[None, Optional[int], None]] = None

    # -- public API --------------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once :meth:`start` (or :meth:`run`, or a restore) has run."""
        return self._started

    @property
    def done(self) -> bool:
        """True once :meth:`finish` has sealed the run."""
        return self._done

    def run(self, until: Optional[int] = None) -> SimulationResult:
        """Run to completion (or to time ``until``) and build the report.

        A bounded run idles the clock forward to ``until``, as
        :meth:`Environment.run` does.
        """
        if self._done:
            raise RuntimeError("simulation already ran; create a new DReAMSim")
        if not self._started:
            self.start()
        with _gc_paused():
            self._advance(until)
            if until is not None:
                # Nothing at or before ``until`` is left queued: this only
                # moves the clock.
                self.env.run(until=until)
        return self.finish()

    def advance(self, until: int) -> None:
        """Fire every event at or before ``until`` (one service window).

        The clock ends at the last fired event, not at ``until``, so a run
        driven in windows produces the same event stream, byte for byte, as
        one driven straight through.  Windows must be non-decreasing; an
        ``until`` that is not an ``int`` raises :class:`TypeError`, one
        before the clock :class:`ValueError`.
        """
        if not self._started or self._done:
            raise RuntimeError("advance requires a started, unfinished run")
        with _gc_paused():
            self._advance(until)

    def _advance(self, until: Optional[int]) -> None:
        """One drive of the run: the hot loop on the array manager, else the kernel.

        An array-backed run takes the flat-table hot loop
        (:mod:`repro.framework.hotloop`), which replays the exact
        event/charge/sampling semantics of the generic path several times
        faster; its first drive adopts whatever was queued before it
        (``start()``'s arrival, a restored snapshot's events, an armed
        injector's), and it then drives every later window of the run.
        """
        if until is not None:
            if type(until) is not int:
                raise TypeError(f"until={until!r} is not an integer tick")
            if until < self.env.now:
                raise ValueError(f"until={until} is in the past (now={self.env.now})")
        if hot_eligible(self):
            run_hot(self, until)
        else:
            self.env.run(until=until, idle_advance=False)

    def start(self) -> None:
        """Begin a run without draining it (service mode / snapshot harness).

        Emits ``RunStarted`` and primes the lazy arrival feed; the caller
        then drives the run (:meth:`advance` windows, or a restore) and
        seals it with :meth:`finish` or :meth:`run_to_end`.
        """
        if self._done:
            raise RuntimeError("simulation already ran; create a new DReAMSim")
        if self._started:
            raise RuntimeError("simulation already started")
        if self.trace is not None:
            self._emit_run_started()
        self._started = True
        self._feed_next_arrival()

    def _emit_run_started(self) -> None:
        assert self.trace is not None
        self.trace.emit(
            _RUN_STARTED,
            len(self.rim.nodes),
            len(self.rim.configs),
            self.partial,
            self._sample_system,
        )

    def run_to_end(self) -> SimulationResult:
        """Drain every pending event, then seal a started run."""
        if not self._started or self._done:
            raise RuntimeError("run_to_end requires a started, unfinished run")
        with _gc_paused():
            self._advance(None)
        return self.finish()

    def finish(self) -> SimulationResult:
        """Seal a started run: final housekeeping, ``RunFinished``, report."""
        if not self._started:
            raise RuntimeError("finish requires a started run")
        if self._done:
            raise RuntimeError("simulation already finished")
        final = self._final_time()
        self._final_value = final
        self._charge_tick_housekeeping(final)
        if self.trace is not None:
            self.trace.emit(_RUN_FINISHED, final)
        self._done = True
        # The paused loop's frame holds the simulator: dropping it lets a
        # sealed run be freed by reference counting, not the cyclic collector.
        self._hot = None
        report = self.make_report()
        return SimulationResult(
            report=report,
            tasks=self.tasks,
            monitor=self.monitor,
            load=self.load,
            final_time=final,
            partial=self.partial,
            params={
                "nodes": len(self.rim.nodes),
                "configs": len(self.rim.configs),
                "partial": self.partial,
            },
        )

    # -- incremental ingest (service mode) --------------------------------------

    def open_ingest(self) -> None:
        """Accept externally pushed arrivals (see :mod:`repro.service`).

        While ingest is open the workload is never considered finished —
        more tasks may arrive — so :meth:`advance` windows interleave with
        :meth:`ingest` calls.
        """
        if self._done:
            raise RuntimeError("cannot open ingest on a finished run")
        self._ingest_open = True
        self._arrivals_done = False

    def ingest(self, arrivals: Iterable[TaskArrival]) -> int:
        """Queue externally supplied arrivals; returns how many were taken.

        Arrivals must be integer-timed and non-decreasing across calls: an
        ``at`` or ``required_time`` that is not an ``int`` (``bool``
        excluded), or an ``at`` earlier than the ingest watermark — the
        latest of the clock, the pending arrival and the buffered tail —
        raises :class:`IngestError` and queues nothing from the batch.  Task
        numbers must strictly increase across calls: a ``task_no`` not
        greater than the last one accepted (the buffered tail, else the
        pending arrival, else the last task to arrive) raises
        :class:`IngestError` the same way, so a repeated task can never run
        twice.  If the arrival chain had drained, it is restarted so the new
        tasks get their events scheduled.

        Each task's preference is canonicalized onto the system's own
        Configuration object when it names one (same number, same area and
        config time).  ``used_closest_match`` and ``Node.add_task`` compare
        by object identity, so a value-equal copy carried in over the seam
        would otherwise read as "not my preference" — and a snapshot restore
        (which maps known numbers back onto the system's objects) would
        disagree with the live run.
        """
        if not self._ingest_open:
            raise RuntimeError("ingest is not open; call open_ingest() first")
        batch = list(arrivals)
        watermark = self._ingest_watermark()
        last_no = self._last_task_no()
        for arrival in batch:
            at = arrival.at
            task_no = arrival.task.task_no
            if type(at) is not int:
                raise IngestError(
                    f"task {task_no}: arrival time {at!r} is not an integer tick"
                )
            req = arrival.task.required_time
            if type(req) is not int:
                raise IngestError(
                    f"task {task_no}: required time {req!r} is not an integer tick count"
                )
            if at < watermark:
                raise IngestError(
                    f"task {task_no}: arrival at {at} is earlier "
                    f"than the ingest watermark {watermark}"
                )
            if last_no is not None and task_no <= last_no:
                raise IngestError(
                    f"task {task_no}: task number is not greater than the "
                    f"last accepted task {last_no}"
                )
            watermark = at
            last_no = task_no
        for arrival in batch:
            task = arrival.task
            pref = task.pref_config
            own = self._config_by_no.get(pref.config_no)
            if (
                own is not None
                and own is not pref
                and own.req_area == pref.req_area
                and own.config_time == pref.config_time
            ):
                task.pref_config = own
            self._ingest_buffer.append(arrival)
        if batch and self._started and self._pending_arrival is None:
            self._feed_next_arrival()
        return len(batch)

    def _ingest_watermark(self) -> int:
        """The earliest tick an ingested arrival may still carry."""
        mark = self.env.now
        if self._pending_arrival is not None:
            mark = max(mark, self._pending_arrival.at)
        if self._ingest_buffer:
            mark = max(mark, self._ingest_buffer[-1].at)
        return mark

    def _last_task_no(self) -> Optional[int]:
        """The number of the latest task accepted, in arrival order."""
        if self._ingest_buffer:
            return self._ingest_buffer[-1].task.task_no
        if self._pending_arrival is not None:
            return self._pending_arrival.task.task_no
        return self._fold.last_arrival_no(self.tasks)

    @property
    def ingest_open(self) -> bool:
        """True while :meth:`ingest` accepts externally pushed arrivals."""
        return self._ingest_open

    def close_ingest(self) -> None:
        """No more external arrivals; the run can now finish."""
        self._ingest_open = False
        if (
            self._started
            and self._pending_arrival is None
            and not self._ingest_buffer
        ):
            self._arrivals_done = True

    def _workload_end(self) -> Optional[int]:
        """The tick the workload finished, or None while it is unfinished.

        That is the last terminal event's time: stray non-workload events
        (e.g. a failure scheduled past the end) must not inflate it.
        """
        fold = self._fold
        fold.advance(self.tasks)
        if fold.cursor < len(self.tasks) or not self._arrivals_done:
            return None
        return fold.last_time

    def _final_time(self) -> int:
        """Eq. 5's total simulation time: the tick the workload finished,
        or the clock on a bounded-horizon run."""
        end = self._workload_end()
        return self.env.now if end is None else end

    def make_report(self) -> MetricsReport:
        """Assemble Table I from current state (``MakeReport``).

        Before the run is sealed, a finished workload's report already
        includes the per-tick housekeeping :meth:`finish` bills up to the
        final time, so a view in the fault tail equals the sealed report;
        ``counters`` itself is not charged.
        """
        end = self._workload_end()
        final = self._final_value
        counters = self.counters
        if final is None:
            final = self.env.now if end is None else end
            due = 0 if end is None else self._tick_housekeeping_due(end)
            if due:
                counters = SearchCounters(
                    scheduling_steps=counters.scheduling_steps,
                    housekeeping_steps=counters.housekeeping_steps + due,
                )
        return compute_report(
            tasks=self.tasks,
            nodes=self.rim.nodes,
            configs=self.rim.configs,
            counters=counters,
            scheduler_stats=self.scheduler.stats,
            reconfig_count_by_config=self.rim.reconfig_count_by_config,
            final_time=final,
            total_used_nodes=self.rim.total_used_nodes,
            placement_waste=self.placement_waste,
            system_waste_total=self.system_waste_total,
            fold=self._fold,
        )

    def task_totals(self) -> tuple[TaskFold, int]:
        """Every task so far: the fold ⊕ the tasks past its cursor.

        Returns the folded aggregates over all terminal tasks and the
        number of tasks still live (``count + live`` is the task total).
        """
        fold = self._fold
        fold.advance(self.tasks)
        totals = fold.copy()
        return totals, totals.absorb(self.tasks)

    # -- event handlers ----------------------------------------------------------------

    @property
    def workload_finished(self) -> bool:
        """True once every generated task reached a terminal state."""
        return (
            self._arrivals_done
            and not self._placements
            and not self.susqueue
            and self._pending_retries == 0
        )

    def _feed_next_arrival(self) -> None:
        arrival = next(self._arrivals, None)
        if arrival is not None:
            self._arrivals_consumed += 1
        elif self._ingest_buffer:
            arrival = self._ingest_buffer.popleft()
        if arrival is None:
            self._pending_arrival = None
            if not self._ingest_open:
                self._arrivals_done = True
            return
        self._pending_arrival = arrival
        at = max(arrival.at, self.env.now)
        if self._hot is not None:
            queue_arrival(self.env, at, arrival.task)
        else:
            self.env.call_at(at, lambda: self._on_arrival(arrival), tag=("arrival",))

    def _tick_housekeeping_due(self, now: int) -> int:
        """The per-tick housekeeping not yet billed for the ticks up to ``now``."""
        elapsed = now - self._last_hk_time
        return elapsed * self._per_tick_hk if elapsed > 0 else 0

    def _charge_tick_housekeeping(self, now: int) -> None:
        """Bill the reference's per-tick state maintenance for elapsed ticks."""
        due = self._tick_housekeeping_due(now)
        if due:
            self.counters.charge_housekeeping(due)
        self._last_hk_time = max(self._last_hk_time, now)

    def _on_arrival(self, arrival: TaskArrival) -> None:
        if hot_eligible(self):
            # The hot loop adopts the arrival event on its first drive, so
            # only a caller stepping the kernel by hand gets here.
            raise SimulationError(
                "an array-backed run is driven by the hot loop: cut it with "
                "DReAMSim.advance(until) instead of stepping sim.env, or build "
                "it with backend='scan' to step it event by event"
            )
        now = self.env.now
        self._pending_arrival = None
        self._charge_tick_housekeeping(now)
        task = arrival.task
        task.mark_created(now)
        self.tasks.append(task)
        if self.trace is not None:
            self.trace.emit(
                _TASK_ARRIVED, task.task_no, task.pref_config.config_no, task.required_time
            )
        self._submit(task, now)
        self._feed_next_arrival()

    def _submit(self, task: Task, now: int) -> ScheduleOutcome:
        outcome = self.scheduler.schedule(task, now)
        if outcome.result is ScheduleResult.SCHEDULED:
            placement = outcome.placement
            assert placement is not None
            self._placements[task.task_no] = placement
            self._record_placement(placement, now)
            exec_time = (
                placement.exec_time if placement.exec_time is not None
                else task.required_time
            )
            finish = now + placement.start_delay + exec_time
            # The closure captures the placement so a completion scheduled
            # before a node failure is recognised as stale and ignored.
            self._completion_events[task.task_no] = self.env.call_at(
                finish,
                lambda p=placement: self._on_complete(task, p),
                tag=("complete", task.task_no),
            )
        return outcome

    def _record_placement(self, placement: Placement, now: int) -> None:
        if placement.node is None:  # GPP offload: no reconfigurable area involved
            self.monitor.sample(now, self.rim, self.susqueue)
            self._placed_count += 1
            return
        # Fig. 6 headline sample: free area left on the hosting node.
        self.placement_waste.add(float(placement.node.available_area))
        if self._sample_system:
            self.system_waste_total += self.rim.total_wasted_area()
            self._system_waste_samples += 1
        self.monitor.sample(now, self.rim, self.susqueue)
        self._placed_count += 1
        if self._debug_every and self._placed_count % self._debug_every == 0:
            check_invariants(self.rim)
            self.susqueue.validate_index()
            if type(self.env.now) is not int:
                raise InvariantViolation(
                    f"simulation clock {self.env.now!r} is not an int"
                )

    def _on_complete(self, task: Task, expected_placement: Optional[Placement] = None) -> None:
        now = self.env.now
        current = self._placements.get(task.task_no)
        if expected_placement is not None and current is not expected_placement:
            return  # stale completion: the node failed and the task restarted
        self._completion_events.pop(task.task_no, None)
        self._charge_tick_housekeeping(now)
        task.mark_completed(now)
        placement = self._placements.pop(task.task_no)
        if self.trace is not None:
            self.trace.emit(
                _COMPLETED,
                task.task_no,
                placement.node.node_no if placement.node is not None else None,
                task.waiting_time,
                task.running_time,
                task.used_closest_match,
            )
        if placement.node is None:
            # GPP completion: free the core and offer it to the queue head.
            assert self.gpp is not None
            self.gpp.release(placement.gpp_slot)
            if self.susqueue:
                rec = self.susqueue.head
                if rec is not None:
                    candidate = self.susqueue.remove(rec)
                    self._submit(candidate, now)
            return
        node = placement.node
        self.rim.complete_task(task, node)
        self.monitor.sample(now, self.rim, self.susqueue)
        self.load.observe(now)
        self._redispatch_from(node, now)

    def _redispatch_from(self, node: Node, now: int) -> None:
        """Suspension-queue re-dispatch (§IV TaskCompletionProc protocol).

        Repeatedly pull the suitable task for the freed node (exact-config
        reuse first, reconfiguration fallback) and schedule it, until the
        node stops admitting tasks or a dispatch fails (a failed task
        re-suspends at the tail, so this always terminates).  Shared by task
        completion and by the failure injector when a scrub frees a region.
        """
        while True:
            candidate = self.scheduler.next_redispatch(node)
            if candidate is None:
                break
            outcome = self._submit(candidate, now)
            if outcome.result is not ScheduleResult.SCHEDULED:
                break
        # Enforce the retry bound, if configured.
        for expired in self.susqueue.expired():
            expired.mark_discarded(now)
            self.scheduler.stats.discarded += 1
            if self.trace is not None:
                self.trace.emit(_DISCARDED, expired.task_no, "retries")

    # -- snapshot support --------------------------------------------------------

    def _export_tag(self, tag: tuple, event: Event) -> tuple:
        """Rewrite stale completion events to no-op markers at export.

        A completion is live only while its task is still placed AND the
        registered event is this one; a crashed task's old completion and a
        re-placed task's superseded completion both fail that test, and the
        live run no-ops them in :meth:`_on_complete`.  They cannot be
        *dropped* from the snapshot though: a stale completion still fires
        in the uninterrupted run and advances the kernel clock, and when it
        is the last queued event it stamps the run's final time — so the
        restored queue must carry it as an explicit ``("noop", task_no)``
        to keep ``RunFinished`` (and with it the trace digest) identical.
        """
        if tag[0] != "complete":
            return tag
        task_no = tag[1]
        if (
            task_no in self._placements
            and self._completion_events.get(task_no) is event
        ):
            return tag
        return ("noop", task_no)

    def _export_placement(
        self,
        kind: str,
        node: Optional[Node],
        entry: Optional[ConfigTaskEntry],
        config: Configuration,
        config_time: int,
        comm_time: int,
        evicted_area: int,
        closest: bool,
        gpp_slot: Optional[object] = None,
        exec_time: Optional[int] = None,
    ) -> dict:
        """One checkpoint placement row, from a :class:`Placement`'s fields
        (``kind`` is its :class:`PlacementKind` name) or from the hot loop's
        token and completion record (:func:`export_pending`)."""
        entry_idx: Optional[int] = None
        if entry is not None:
            assert node is not None
            # Identity scan: ConfigTaskEntry has value equality, so
            # list.index could hit a different-but-equal entry.
            entry_idx = next(i for i, e in enumerate(node.entries) if e is entry)
        return {
            "kind": kind,
            "node": node.node_no if node is not None else None,
            "entry": entry_idx,
            "config": [config.config_no, config.req_area, config.config_time],
            "config_time": config_time,
            "comm_time": comm_time,
            "evicted_area": evicted_area,
            "closest": closest,
            "gpp_slot": (
                self.gpp.slot_index(gpp_slot)  # type: ignore[arg-type]
                if gpp_slot is not None and self.gpp is not None
                else None
            ),
            "exec_time": exec_time,
        }

    def _restore_placement(
        self, data: dict, node_by_no: dict[int, Node], resolve: Callable
    ) -> Placement:
        node = node_by_no[data["node"]] if data["node"] is not None else None
        entry = node.entries[data["entry"]] if data["entry"] is not None else None
        return Placement(
            kind=PlacementKind[data["kind"]],
            node=node,
            entry=entry,
            config=resolve(data["config"]),
            config_time=data["config_time"],
            comm_time=data["comm_time"],
            evicted_area=data["evicted_area"],
            used_closest_match=data["closest"],
            gpp_slot=(
                self.gpp.slot_at(data["gpp_slot"])
                if data["gpp_slot"] is not None and self.gpp is not None
                else None
            ),
            exec_time=data["exec_time"],
        )

    def export_state(self) -> dict:
        """Serialize the full mid-run state to JSON-safe plain data.

        Captured between events (the harness and the service driver only
        snapshot at event boundaries), so the state is self-consistent:
        every pending event is reconstructable from its tag plus the
        exported task/placement tables.  The injector's state, if one is
        armed, is exported separately (:meth:`FailureInjector.export_state`)
        and the two travel together inside a :class:`repro.service.Snapshot`.
        """
        if not self._started:
            raise RuntimeError("cannot snapshot: run not started")
        if self._done:
            raise RuntimeError("cannot snapshot: run already finished")
        if self._hot is not None:
            pending, placements = export_pending(self)
        else:
            pending = self.env.export_pending(rewrite=self._export_tag)
            placements = [
                [no, self._export_placement(
                    p.kind.name, p.node, p.entry, p.config, p.config_time,
                    p.comm_time, p.evicted_area, p.used_closest_match,
                    p.gpp_slot, p.exec_time,
                )]
                for no, p in sorted(self._placements.items())
            ]
        fold, rows = self._fold.export_state(self.tasks)
        return {
            "backend": self.backend,
            "partial": self.partial,
            "nodes": len(self.rim.nodes),
            "configs": len(self.rim.configs),
            "sample_system": self._sample_system,
            "per_tick_hk": self._per_tick_hk,
            "env": {
                "now": self.env.now,
                "seq": self.env.schedule_seq,
                "event_count": self.env.events_processed,
                "pending": [
                    [when, prio, seq, list(tag)] for when, prio, seq, tag in pending
                ],
            },
            "fold": fold,
            "tasks": rows,
            "rim": self.rim.export_state(),
            "susqueue": self.susqueue.export_state(),
            "scheduler_stats": self.scheduler.stats.snapshot(),
            "counters": {
                "ss": self.counters.scheduling_steps,
                "hk": self.counters.housekeeping_steps,
            },
            "placements": placements,
            "placement_waste": self.placement_waste.export_state(),
            "system_waste_total": float(self.system_waste_total).hex(),
            "system_waste_samples": self._system_waste_samples,
            "placed_count": self._placed_count,
            "arrivals_done": self._arrivals_done,
            "arrivals_consumed": self._arrivals_consumed,
            "pending_arrival": (
                None
                if self._pending_arrival is None
                else [
                    self._pending_arrival.at,
                    export_task(self._pending_arrival.task),
                ]
            ),
            "ingest": {
                "open": self._ingest_open,
                "buffer": [
                    [a.at, export_task(a.task)] for a in self._ingest_buffer
                ],
            },
            "pending_retries": self._pending_retries,
            "last_hk_time": self._last_hk_time,
            "monitor": self.monitor.export_state(),
            "gpp": self.gpp.export_state() if self.gpp is not None else None,
            "trace_seq": (
                self.trace.events_emitted if self.trace is not None else None
            ),
        }

    def restore_state(
        self,
        state: dict,
        *,
        injector: Optional[object] = None,
        injector_state: Optional[dict] = None,
    ) -> None:
        """Rebuild :meth:`export_state` output onto a fresh simulator.

        The simulator must be freshly constructed over the *identical*
        static system and arrival stream (same generator seed and
        parameters — typically via ``build_campaign`` with the original
        spec); the stream is fast-forwarded past the consumed prefix here.
        The backend may differ from the snapshot's — the exported formats
        are backend-neutral and the exactness contract makes cross-backend
        resume digest-preserving (DESIGN.md §14).

        When the original run had an armed :class:`FailureInjector`, pass a
        freshly constructed (NOT armed) injector with identical parameters
        plus its exported state; restore rewires its callbacks in place of
        :meth:`FailureInjector.arm`.
        """
        if self._started or self._done or self.tasks or self.env.now != 0:
            raise RuntimeError(
                "restore_state requires a freshly constructed DReAMSim"
            )
        if (injector is None) != (injector_state is None):
            raise ValueError("injector and injector_state must be given together")
        if state["nodes"] != len(self.rim.nodes) or state["configs"] != len(
            self.rim.configs
        ):
            raise ValueError(
                f"snapshot system shape ({state['nodes']}n/{state['configs']}c) "
                f"does not match this simulator "
                f"({len(self.rim.nodes)}n/{len(self.rim.configs)}c)"
            )
        for knob in ("partial", "sample_system", "per_tick_hk"):
            mine = {
                "partial": self.partial,
                "sample_system": self._sample_system,
                "per_tick_hk": self._per_tick_hk,
            }[knob]
            if state[knob] != mine:
                raise ValueError(
                    f"snapshot {knob}={state[knob]!r} does not match "
                    f"this simulator's {mine!r}"
                )
        from repro.model.gpp import GPP_CONFIG

        known = {c.config_no: c for c in self.rim.configs}
        known[GPP_CONFIG.config_no] = GPP_CONFIG
        resolve = _config_resolver(known)
        rows = state.get("tasks")
        if type(rows) is not list:
            raise ConfigurationError(f"snapshot task rows must be a list, got {rows!r}")
        task_by_no: dict[int, Task] = {}
        for row in rows:
            task = restore_task(row, resolve)
            self.tasks.append(task)
            task_by_no[task.task_no] = task
        self._fold.restore_state(state.get("fold"), len(rows))
        if injector is not None:
            # Phase 1: scrub tasks exist outside the task table but are
            # referenced by node entries, so the manager restore needs them.
            task_by_no.update(injector.restore_scrub_tasks(injector_state, resolve))  # type: ignore[attr-defined]

        def task_of(no: int) -> Task:
            return task_by_no[no]

        self.rim.restore_state(state["rim"], task_of)
        if injector is not None:
            # Phase 2: entries exist now; bind scrubs, timers, log, RNG.
            injector.restore_state(injector_state)  # type: ignore[attr-defined]
        self.susqueue.restore_state(state["susqueue"], task_of)
        self.scheduler.stats.restore(state["scheduler_stats"])
        self.counters.scheduling_steps = state["counters"]["ss"]
        self.counters.housekeeping_steps = state["counters"]["hk"]
        if state["gpp"] is not None:
            if self.gpp is None:
                raise ValueError("snapshot has a GPP pool, this simulator has none")
            self.gpp.restore_state(state["gpp"], task_of)
        node_by_no = {n.node_no: n for n in self.rim.nodes}
        for no, pdata in state["placements"]:
            self._placements[no] = self._restore_placement(pdata, node_by_no, resolve)
        self.placement_waste.restore_state(state["placement_waste"])
        self.system_waste_total = float.fromhex(state["system_waste_total"])
        self._system_waste_samples = state["system_waste_samples"]
        self._placed_count = state["placed_count"]
        self._pending_retries = state["pending_retries"]
        self._last_hk_time = state["last_hk_time"]
        self.monitor.restore_state(state["monitor"])
        # Fast-forward the regenerated arrival stream past the consumed
        # prefix.  The pending arrival was drawn (so it is counted) but not
        # fired; it travels in the snapshot and must NOT be redrawn.
        consumed = state["arrivals_consumed"]
        for _ in range(consumed):
            if next(self._arrivals, None) is None:
                raise ValueError(
                    "arrival stream shorter than the snapshot consumed; "
                    "rebuild the simulator with the identical workload"
                )
        self._arrivals_consumed = consumed
        self._arrivals_done = state["arrivals_done"]
        self._ingest_open = state["ingest"]["open"]
        for at, tdata in state["ingest"]["buffer"]:
            task = restore_task(tdata, resolve)
            task_by_no[task.task_no] = task
            self._ingest_buffer.append(TaskArrival(at=at, task=task))
        if state["pending_arrival"] is not None:
            at, tdata = state["pending_arrival"]
            task = restore_task(tdata, resolve)
            task_by_no[task.task_no] = task
            self._pending_arrival = TaskArrival(at=at, task=task)
        env_state = state["env"]
        records = [
            (when, prio, seq, tuple(tag)) for when, prio, seq, tag in env_state["pending"]
        ]
        events = self.env.restore_pending(
            records,
            self._event_resolver(task_of, injector),
            now=env_state["now"],
            seq=env_state["seq"],
            event_count=env_state["event_count"],
        )
        for (_when, _prio, _seq, tag), event in zip(records, events):
            if tag[0] == "complete":
                self._completion_events[tag[1]] = event
        if self.trace is not None and state["trace_seq"] is not None:
            self.trace.resume_at(state["trace_seq"])
        self._started = True

    def _event_resolver(
        self, task_of: Callable[[int], Task], injector: Optional[object]
    ) -> Callable[[tuple], Callable[[], None]]:
        """Map exported event tags back to their callbacks (restore)."""

        def resolver(tag: tuple) -> Callable[[], None]:
            kind = tag[0]
            if kind == "noop":
                # A stale completion exported as a pure clock-advancer: the
                # live run's _on_complete would return without effect, so the
                # restored event only has to exist and fire.
                return lambda: None
            if kind == "arrival":
                arrival = self._pending_arrival
                if arrival is None:
                    raise ValueError(
                        "snapshot has an arrival event but no pending arrival"
                    )
                return lambda: self._on_arrival(arrival)
            if kind == "complete":
                task = task_of(tag[1])
                placement = self._placements[tag[1]]
                return lambda: self._on_complete(task, placement)
            if injector is not None:
                return injector.resolve_tag(tag, task_of)  # type: ignore[attr-defined]
            raise ValueError(
                f"unknown event tag {tag!r} (no failure injector attached)"
            )

        return resolver


def _config_resolver(known: dict[int, "Configuration"]):
    """Shared triple→Configuration resolver for one restore.

    Known numbers map onto the manager's own objects (the identity
    contract behind ``used_closest_match`` and ``Node.add_task``); unknown
    preferences — the generator invents them for ~15% of tasks — are
    fabricated once and cached, so every reference to one config_no
    regains a single shared object.
    """
    fabricated: dict[tuple, Configuration] = {}

    def resolve(triple: list) -> Configuration:
        config_no, req_area, config_time = triple
        cfg = known.get(config_no)
        if cfg is not None and cfg.req_area == req_area and cfg.config_time == config_time:
            return cfg
        # Not a system configuration (or a same-numbered impostor with
        # different values — keep it distinct): fabricate once per triple.
        key = (config_no, req_area, config_time)
        made = fabricated.get(key)
        if made is None:
            made = Configuration(
                config_no=config_no, req_area=req_area, config_time=config_time
            )
            fabricated[key] = made
        return made

    return resolve


__all__ = ["DReAMSim", "IngestError", "SimulationResult"]
