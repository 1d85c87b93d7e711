"""Live Table I: the service's view from simulator state equals a batch replay.

``ServiceSimulator.report_view`` assembles Table I and the resilience report
from the simulator's own state (``make_report`` and the injector's fault
log) at the run's Eq. 5 final time so far.  These tests hold it to the batch
definition — a fresh replayer over the whole prefix plus a ``RunFinished``
framing at that final time — at every window, in the fault tail, after
``drain()``, and across a checkpoint/resume; and check by counting (not
timing) that a view re-folds only the tasks still in flight.
"""

import pytest

from tests.snapshot_harness import BACKENDS, CLEAN, QUARANTINE, SEU

from repro.metrics.accumulators import RunningStats
from repro.model.task import TaskStatus
from repro.service import ServiceSimulator, Snapshot
from repro.trace import events as ev
from repro.trace.bus import MemorySink
from repro.trace.events import TraceEvent
from repro.trace.replay import TraceError, TraceReplayer

WINDOW = 12_000
CAMPAIGNS = {"clean": CLEAN, "seu": SEU, "quarantine": QUARANTINE}


def batch_view(svc, events):
    """The batch definition of a mid-run view over ``events``: the prefix
    framed by the ``RunFinished`` the run would stamp at its final time
    so far."""
    stream = list(events)
    if svc.result is None:
        sim = svc.sim
        final = sim._final_time()
        hk = sim.counters.housekeeping_steps
        if sim.workload_finished:
            # finish() bills the per-tick housekeeping up to the final time
            # before it stamps RunFinished.
            hk += max(final - sim._last_hk_time, 0) * sim._per_tick_hk
        stream.append(
            TraceEvent(
                seq=svc.bus.events_emitted,
                time=int(sim.env.now),
                type=ev.RUN_FINISHED,
                fields={"final": final, "ss": sim.counters.scheduling_steps, "hk": hk},
            )
        )
    replayer = TraceReplayer(stream).replay()
    return replayer.report(), replayer.resilience_report()


def assert_view_is_batch(svc, events):
    view = svc.report_view()
    report, resilience = batch_view(svc, events)
    assert view.events_seen == len(events) == svc.bus.events_emitted
    assert view.report == report
    assert view.resilience == resilience
    return view


def run_windows(svc, mem, prefix=(), stop=None):
    """Advance window by window, checking the view at each; returns windows run."""
    windows = 0
    now = int(svc.sim.env.now)
    while stop is None or windows < stop:
        now += WINDOW
        svc.advance_to(now)
        windows += 1
        assert_view_is_batch(svc, [*prefix, *mem])
        if svc.sim.env.pending_count == 0:
            break
    return windows


def assert_sealed_view(svc, mem, prefix=()):
    result = svc.drain()
    view = assert_view_is_batch(svc, [*prefix, *mem])
    assert view.report == result.report
    if svc.injector is not None:
        assert view.resilience == svc.injector.resilience(result)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_window_view_equals_batch_replay(name, backend):
    svc = ServiceSimulator(CAMPAIGNS[name], backend=backend)
    mem = MemorySink()
    svc.bus.attach(mem)
    assert run_windows(svc, mem) > 5
    assert_sealed_view(svc, mem)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_resumed_service_view_equals_batch_replay(name, backend):
    spec = CAMPAIGNS[name]
    svc = ServiceSimulator(spec, backend=backend)
    mem = MemorySink()
    svc.bus.attach(mem)
    run_windows(svc, mem, stop=6)
    snap = Snapshot.from_json(svc.checkpoint().to_json())
    prefix = list(mem)
    other = "scan" if backend == "array" else "array"
    resumed = ServiceSimulator.resume(snap, spec, backend=other, prefix_events=prefix)
    tail = MemorySink()
    resumed.bus.attach(tail)
    # The restored simulator already answers like the original service.
    assert resumed.report_view().report == svc.report_view().report
    run_windows(resumed, tail, prefix=prefix)
    assert_sealed_view(resumed, tail, prefix=prefix)


def test_view_in_the_fault_tail_equals_the_sealed_run():
    """Once the workload is done, fault events may still be pending (repairs,
    probation releases).  A view taken then reports the run's final time —
    the last terminal tick, not the clock — and the resilience report the
    sealed run will report."""
    for spec in (SEU, QUARANTINE):
        svc = ServiceSimulator(spec, backend="array")
        mem = MemorySink()
        svc.bus.attach(mem)
        tail_views = []
        now = 0
        while svc.sim.env.pending_count:
            now += WINDOW // 24
            svc.advance_to(now)
            if svc.sim.workload_finished and svc.sim.env.pending_count:
                tail_views.append(assert_view_is_batch(svc, list(mem)))
        result = svc.drain()
        resilience = svc.injector.resilience(result)
        assert tail_views
        assert any(view.time > result.final_time for view in tail_views)
        for view in tail_views:
            assert view.report.total_simulation_time == result.report.total_simulation_time
            assert view.resilience == resilience


def test_every_fault_tail_view_equals_the_drained_report():
    """In the fault tail every view's whole Table I — the total scheduler
    workload included, which needs the per-tick housekeeping the seal
    bills up to the final time — equals the drained run's."""
    svc = ServiceSimulator(SEU, backend="array")
    tail = []
    now = 0
    while svc.sim.env.pending_count:
        now += 500
        svc.advance_to(now)
        if svc.sim.workload_finished and svc.sim.env.pending_count:
            tail.append(svc.report_view().report.as_dict())
    drained = svc.drain().report.as_dict()
    assert len(tail) > 10
    assert all(view == drained for view in tail)


@pytest.fixture
def counted(monkeypatch):
    """Count RunningStats.add calls."""
    calls = {"add": 0}
    add = RunningStats.add

    def counting_add(self, x):
        calls["add"] += 1
        add(self, x)

    monkeypatch.setattr(RunningStats, "add", counting_add)
    return calls


def completed_in_flight_window(sim):
    """Completed tasks arrived after the oldest non-terminal one.

    The oldest non-terminal arrival is where the task fold's cursor stops;
    the completed tasks after it are what a view re-folds.
    """
    terminal = (TaskStatus.COMPLETED, TaskStatus.DISCARDED)
    tasks = sim.tasks
    start = next(
        (i for i, task in enumerate(tasks) if task.status not in terminal),
        len(tasks),
    )
    return sum(1 for task in tasks[start:] if task.status is TaskStatus.COMPLETED)


def test_view_refold_work_is_bounded_by_the_in_flight_window(counted):
    """A view re-folds the in-flight window, never the tasks already folded.

    Every task enters the simulator's task fold once (two adds); beyond
    that, a view costs two adds per completed task in the window from the
    oldest non-terminal arrival on — a span set by task lifetimes, not by
    how long the service has run.
    """
    svc = ServiceSimulator(CLEAN, backend="array")
    view_adds = window_bound = views = now = 0
    while views == 0 or svc.sim.env.pending_count:
        now += WINDOW // 4
        svc.advance_to(now)
        before = counted["add"]
        svc.report_view()
        view_adds += counted["add"] - before
        window_bound += 2 * completed_in_flight_window(svc.sim)
        views += 1
    assert views > 50
    assert view_adds <= 2 * CLEAN.tasks + window_bound


def test_sink_errors_surface_at_query_time_not_in_write():
    replayer = TraceReplayer()
    with pytest.raises(TraceError, match="empty"):
        replayer.report()
    replayer.write(TraceEvent(seq=7, time=3, type=ev.SUSPENDED, fields={"task": 1}))
    assert len(replayer) == 1
    with pytest.raises(TraceError, match="checkpoint segment"):
        replayer.report()
