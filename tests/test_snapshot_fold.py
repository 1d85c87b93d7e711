"""The v3 snapshot: terminal tasks fold into one record, live tasks are rows.

A checkpoint must cost the tasks live at the cut, not the session so far
(:mod:`repro.metrics.taskfold`).  These tests pin the flat property — the
rows are exactly the live tasks, and an all-terminal cut writes none and
does not grow with the session — and the re-export path: a restored fold
exports the identical record, and keeps its arrival order through a
further cut, so the finished run still matches batch.
"""

import json
import os
from pathlib import Path

import pytest

from tests.snapshot_harness import SEU, SEU_SMALL, baseline

from repro.framework.campaign import FaultCampaignSpec, run_campaign
from repro.model.task import TASK_ROW, Task, TaskStatus
from repro.service import ServiceSimulator, Snapshot, SnapshotError
from repro.service.snapshot import SNAPSHOT_VERSION, snapshot_of
from repro.trace import DigestSink, MemorySink, TraceBus
from repro.workload.generator import TaskArrival

GOLDEN = Path(__file__).parent / "golden" / "snapshot_n20_t200_s42"
TERMINAL = (TaskStatus.COMPLETED, TaskStatus.DISCARDED)
NO = TASK_ROW.index("no")


def _row_numbers(snap: Snapshot) -> list[int]:
    return [row[NO] for row in snap.sim["tasks"]]


def _live_numbers(svc: ServiceSimulator) -> list[int]:
    return [t.task_no for t in svc.sim.tasks if t.status not in TERMINAL]


def test_rows_are_exactly_the_live_tasks_and_resume_matches_batch():
    """At every cut the rows are the live tasks, in arrival order; terminal
    tasks behind a live one leave deferred samples; a resume from any cut
    re-exports the identical state and finishes like the batch run."""
    digest = DigestSink()
    batch, injector = run_campaign(SEU, backend="array", trace=TraceBus(digest))
    svc = ServiceSimulator(SEU, backend="array")
    prefix = MemorySink()
    svc.bus.attach(prefix)
    deferred_seen = 0
    for k in range(1, 7):
        svc.advance_to(k * 2500)
        snap = Snapshot.from_json(svc.checkpoint().to_json())
        fold = snap.sim["fold"]
        live = _live_numbers(svc)
        assert _row_numbers(snap) == live
        assert fold["count"] == len(svc.sim.tasks) - len(live)
        deferred_seen += len(fold["deferred"])

        resumed = ServiceSimulator.resume(
            snap, SEU, backend="scan", prefix_events=list(prefix)
        )
        assert [t.task_no for t in resumed.sim.tasks] == live
        again = Snapshot.from_json(
            snapshot_of(resumed.sim, resumed.injector, digest=resumed.hexdigest()).to_json()
        )
        assert again.sim == {**snap.sim, "backend": "scan"}
        assert again.injector == snap.injector

        final = resumed.drain()
        assert resumed.hexdigest() == digest.hexdigest()
        assert final.report == batch.report
        assert resumed.injector is not None and injector is not None
        assert resumed.injector.resilience(final) == injector.resilience(batch)
        # A resumed run's task list: the tasks live at the cut, then every
        # later arrival.
        later = [t.task_no for t in batch.tasks[len(svc.sim.tasks):]]
        assert [t.task_no for t in final.tasks] == live + later
    assert deferred_seen, "no cut had a terminal task behind a live one"


def _all_terminal_checkpoint(tasks: int) -> Snapshot:
    """A clean session whose every ingested task has finished, ingest open."""
    spec = FaultCampaignSpec(nodes=20, configs=10, tasks=0, seed=42)
    svc = ServiceSimulator(spec, backend="array")
    svc.sim.open_ingest()
    svc.sim.start()
    configs = svc.sim.rim.configs
    svc.sim.ingest(
        TaskArrival(
            at=10 * no,
            task=Task(task_no=no, required_time=100 + no % 7, pref_config=configs[no % 3]),
        )
        for no in range(tasks)
    )
    svc.advance_to(10 * tasks + 10_000)
    assert len(svc.sim.tasks) == tasks
    assert not _live_numbers(svc)
    return svc.checkpoint()


def test_all_terminal_cut_writes_no_rows_and_stays_flat():
    small = _all_terminal_checkpoint(500)
    large = _all_terminal_checkpoint(2000)
    for snap in (small, large):
        assert snap.sim["tasks"] == []
        assert snap.sim["fold"]["deferred"] == []
    assert small.sim["fold"]["count"] == 500
    assert large.sim["fold"]["count"] == 2000
    small_bytes = len(small.to_json())
    large_bytes = len(large.to_json())
    assert abs(large_bytes - small_bytes) <= 0.1 * small_bytes, (small_bytes, large_bytes)


#: The repo benchmark's ``faults`` campaign (200 nodes / 5 000 tasks, seed 42).
FAULTS = FaultCampaignSpec(
    nodes=200, tasks=5_000, partial=True, seed=42, seu_rate=300, scrub_factor=2,
    mtbf=5000, mttr=500, retry_budget=3, backoff_base=16, backoff_cap=1024,
)


def test_fault_log_checkpoint_stays_flat_in_interrupts():
    """The injector's fault log tallies interrupts and retries: between the
    checkpoints at windows 50 and 350 of the ``faults`` session (2 000-tick
    windows) only the failure and quarantine span lists grow; every other
    field keeps its shape, although thousands more faults were counted."""
    svc = ServiceSimulator(FAULTS, backend="array")
    logs = {}
    for k in range(1, 351):
        svc.advance_to(k * 2_000)
        if k in (50, 350):
            logs[k] = Snapshot.from_json(svc.checkpoint().to_json()).injector["log"]
    assert not svc.sim.workload_finished
    early, late = (
        {name: v for name, v in logs[k].items() if name not in ("failures", "quarantines")}
        for k in (50, 350)
    )
    assert early.keys() == late.keys()
    tallies = [
        [cls for cls, _n in log.pop("interrupts_by_class")] for log in (early, late)
    ]
    assert tallies[0] == tallies[1] == ["seu", "crash"]
    assert all(type(v) is int for log in (early, late) for v in log.values())
    assert late["retries_total"] > 5 * early["retries_total"] > 0
    assert len(logs[350]["failures"]) > len(logs[50]["failures"])


def test_resume_without_the_prefix_is_refused():
    """An empty or short prefix would forge the determinism witness."""
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    mem = MemorySink()
    svc.bus.attach(mem)
    svc.advance_to(300)
    snap = svc.checkpoint()
    assert snap.trace_seq and snap.trace_seq > 1
    for prefix in ([], list(mem)[:1]):
        with pytest.raises(SnapshotError, match="prefix has"):
            ServiceSimulator.resume(snap, SEU_SMALL, prefix_events=prefix)
    resumed = ServiceSimulator.resume(snap, SEU_SMALL, prefix_events=list(mem))
    resumed.drain()
    assert resumed.hexdigest() == baseline(SEU_SMALL, "array").digest


def test_version_2_snapshot_is_refused():
    """v2 (task list), v3 (queue records with a suspension tick), v4 (task
    rows with a history column, injector event and interrupt lists): refused."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    assert SNAPSHOT_VERSION == 5
    for old in (2, 3, 4):
        data["version"] = old
        with pytest.raises(SnapshotError, match=f"version {old}"):
            Snapshot.from_json(json.dumps(data))


def test_failed_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(300)
    path = tmp_path / "snapshot.json"
    svc.checkpoint().write(path)
    before = path.read_bytes()
    svc.advance_to(600)
    later = svc.checkpoint()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        later.write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snapshot.json"]
    monkeypatch.undo()
    later.write(path)
    assert Snapshot.read(path) == Snapshot.from_json(later.to_json())
