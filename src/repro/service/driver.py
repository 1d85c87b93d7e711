"""The service driver: a simulator advanced in windows, queryable mid-run.

:class:`ServiceSimulator` owns the trace wiring a long-lived run needs — a
:class:`~repro.trace.bus.DigestSink` (the determinism witness) is always
attached, plus an optional JSONL file sink.  The service keeps no event
list: memory does not grow with the trace, and a caller who wants the
stream itself passes ``jsonl_path`` (``dreamsim serve --trace``) or attaches
a :class:`~repro.trace.bus.MemorySink` to :attr:`ServiceSimulator.bus`
before the first window.  The driver advances simulated time with
:meth:`advance_to`, pulling each window's due arrivals from its
:class:`~repro.service.sources.ArrivalSource` through the simulator's
ingest seam, until :attr:`ServiceSimulator.ready_to_drain`, and
:meth:`drain` seals the run.

:meth:`report_view` answers "what does Table I look like *right now*" from
the simulator's own state: ``DReAMSim.make_report`` (the ``MakeReport``
the end of the run calls) framed at the run's Eq. 5 final time so far, and
the injector's fault log folded through the same
:func:`~repro.metrics.resilience.assemble_resilience` as the end-of-run
resilience report.  A view costs the tasks still in flight (the simulator's
task fold), not the length of the run so far.

:meth:`checkpoint` / :meth:`ServiceSimulator.resume` wrap the snapshot
layer; resuming re-folds the trace prefix into the fresh digest and
verifies it against the checkpoint before restoring, so a mismatched
prefix fails loudly instead of producing a silently different stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.framework.campaign import FaultCampaignSpec, build_campaign
from repro.framework.failures import FailureInjector
from repro.framework.simulator import DReAMSim, SimulationResult, _gc_paused
from repro.metrics.resilience import FaultLog, ResilienceReport, assemble_resilience
from repro.metrics.table1 import MetricsReport
from repro.service.snapshot import Snapshot, SnapshotError, restore_snapshot, snapshot_of
from repro.service.sources import ArrivalSource
from repro.trace.bus import DigestSink, JsonlSink, TraceBus
from repro.trace.events import TraceEvent


@dataclass(frozen=True)
class ReportView:
    """Table I (and the resilience report) as of one mid-run moment."""

    time: int
    events_seen: int
    report: MetricsReport
    resilience: ResilienceReport


class ServiceSimulator:
    """One campaign run as an incrementally driven, checkpointable service.

    Parameters
    ----------
    spec:
        The campaign (workload + fault knobs); the constructor-side task
        stream it implies still feeds first — set ``tasks=0`` for a run
        fed purely from ``source``.
    backend:
        Resource-manager backend (``array``/``scan``; ``None`` = ``array``).
    source:
        Optional :class:`ArrivalSource`; its due arrivals are ingested at
        every :meth:`advance_to` window.
    jsonl_path:
        Optional trace persistence — how the event stream is kept, since
        the service itself keeps none (``append=True`` continues a file,
        as :meth:`resume` does).
    arm:
        Internal: ``False`` builds the injector un-armed for a restore.
    """

    def __init__(
        self,
        spec: FaultCampaignSpec,
        *,
        backend: Optional[str] = None,
        source: Optional[ArrivalSource] = None,
        jsonl_path: Optional[str] = None,
        append: bool = False,
        arm: bool = True,
    ) -> None:
        self.spec = spec
        self.source = source
        self.bus = TraceBus()
        self.digest = DigestSink()
        # Event counters read ``len(memory)``: the number of events digested.
        self.memory = self.digest
        self.bus.attach(self.digest)
        self.jsonl: Optional[JsonlSink] = None
        if jsonl_path is not None:
            self.jsonl = JsonlSink(jsonl_path, append=append)
            self.bus.attach(self.jsonl)
        self.sim: DReAMSim
        self.injector: Optional[FailureInjector]
        self.sim, self.injector = build_campaign(
            spec, backend=backend, trace=self.bus, arm=arm
        )
        self.result: Optional[SimulationResult] = None

    @classmethod
    def resume(
        cls,
        snapshot: Snapshot,
        spec: FaultCampaignSpec,
        *,
        backend: Optional[str] = None,
        source: Optional[ArrivalSource] = None,
        prefix_events: Iterable[TraceEvent] = (),
        jsonl_path: Optional[str] = None,
    ) -> "ServiceSimulator":
        """Restore a checkpoint into a fresh service.

        ``spec`` must be the original campaign spec (identical workload
        and fault parameters); ``backend`` may differ from the snapshot's.
        ``prefix_events`` is the trace up to the cut (``read_jsonl`` of the
        previous service's file, or the events a ``MemorySink`` attached to
        its bus collected) — it is re-folded into the new digest so the
        digest continues seamlessly (:meth:`report_view` reads the restored
        simulator and needs no prefix).  Its length must be the checkpoint's
        ``trace_seq`` and its digest the checkpoint's, or
        :class:`SnapshotError` is raised.  A JSONL file
        already holding the prefix is continued with ``append=True`` (the
        prefix is not re-written to it).
        """
        svc = cls(
            spec,
            backend=backend,
            source=source,
            jsonl_path=jsonl_path,
            append=True,
            arm=False,
        )
        try:
            folded = 0
            for event in prefix_events:
                svc.digest.write(event)
                folded += 1
            if snapshot.trace_digest is not None:
                # A short (or empty) prefix would leave the digest silently
                # forged: it must cover exactly the events before the cut.
                if folded != snapshot.trace_seq:
                    raise SnapshotError(
                        f"trace prefix has {folded} events but the checkpoint "
                        f"was cut after {snapshot.trace_seq}; pass the whole "
                        "prefix the snapshot was cut from"
                    )
                got = svc.digest.hexdigest()
                if got != snapshot.trace_digest:
                    raise SnapshotError(
                        f"trace prefix digest {got} does not match the "
                        f"checkpoint's {snapshot.trace_digest}; the prefix is "
                        "not the stream this snapshot was cut from"
                    )
            if snapshot.trace_seq is not None:
                svc.bus.resume_at(snapshot.trace_seq)
            restore_snapshot(snapshot, svc.sim, svc.injector)
        except BaseException:
            if svc.jsonl is not None:
                svc.jsonl.close()
            raise
        return svc

    # -- driving -----------------------------------------------------------------

    def _ensure_started(self) -> None:
        if not self.sim.started:
            if self.source is not None:
                self.sim.open_ingest()
            self.sim.start()

    def _ingest_sealed(self) -> bool:
        """True once the ingest seam has been closed for good.

        Derived from the simulator's own state (not stored here) so a
        resumed service inherits the seal from its snapshot: a started run
        whose ingest seam is shut never reopens it.
        """
        return self.sim.started and not self.sim.ingest_open

    def advance_to(self, t: int) -> int:
        """Ingest arrivals due by ``t`` and fire everything due by then.

        Returns the number of arrivals ingested this window.  The window is
        :meth:`DReAMSim.advance` — on the array backend, the same hot loop
        a batch run takes.  The clock ends at the last fired event (not
        idled forward to ``t``), so a run that finishes mid-window seals
        with exactly the byte stream a straight batch run produces.  Call
        again with a later ``t`` (windows must be non-decreasing).
        """
        if self.result is not None:
            raise RuntimeError("service run already finished")
        self._ensure_started()
        taken = 0
        if self.source is not None and not self._ingest_sealed():
            taken = self.sim.ingest(self.source.take_until(t))
            if self.source.exhausted:
                self.sim.close_ingest()
        self.sim.advance(t)
        return taken

    @property
    def ready_to_drain(self) -> bool:
        """True once only the fault tail is left: the run has started, no
        source is alive, and the workload is finished or nothing is pending.

        What is still queued then (stale completions, repairs) changes no
        task: window with :meth:`advance_to` until this holds, then
        :meth:`drain`.
        """
        sim = self.sim
        source_alive = self.source is not None and not self.source.exhausted
        finished = sim.workload_finished or sim.env.pending_count == 0
        return sim.started and not source_alive and finished

    def drain(self) -> SimulationResult:
        """Ingest everything left, run to completion, seal the run."""
        if self.result is not None:
            raise RuntimeError("service run already finished")
        self._ensure_started()
        if self.source is not None and not self._ingest_sealed():
            self.sim.ingest(self.source.take_all())
            self.sim.close_ingest()
        self.result = self.sim.run_to_end()
        return self.result

    # -- queries -----------------------------------------------------------------

    def report_view(self) -> ReportView:
        """Table I and the resilience report as of now, from the simulator.

        Until the run is sealed, both are assembled from the simulator's
        current state, through the code :meth:`drain` uses, at its Eq. 5
        final time so far — the last terminal tick once the workload is
        done, even while fault events are still pending.  Afterwards they
        are the sealed result's.
        """
        sim = self.sim
        report = sim.make_report() if self.result is None else self.result.report
        final = report.total_simulation_time
        if self.injector is not None:
            log = self.injector.fault_log(final)
        else:
            # No injector, no interrupts: every completion is a first try.
            log = FaultLog(
                node_count=len(sim.rim.nodes),
                final_time=final,
                total_tasks=report.total_tasks_generated,
                completed_first_try=report.total_completed_tasks,
            )
        return ReportView(
            time=sim.env.now,
            events_seen=self.bus.events_emitted,
            report=report,
            resilience=assemble_resilience(log),
        )

    def checkpoint(self) -> Snapshot:
        """Cut a snapshot at the current (between-events) moment."""
        # The export allocates a row per live task; like a window, it runs
        # with the collector paused.
        with _gc_paused():
            return snapshot_of(self.sim, self.injector, digest=self.digest.hexdigest())

    def hexdigest(self) -> str:
        """The trace digest so far (the determinism witness)."""
        return self.digest.hexdigest()


__all__ = ["ReportView", "ServiceSimulator"]
