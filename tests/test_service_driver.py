"""Service mode: windowed driving, mid-run metrics, sources, resume wiring."""

import json
import re

import pytest

from tests.snapshot_harness import CLEAN_SMALL, SEU_SMALL, baseline

from repro.framework.campaign import FaultCampaignSpec
from repro.framework.simulator import IngestError
from repro.model.task import Task
from repro.rng import RNG
from repro.service import (
    JsonlTailSource,
    ReplaySource,
    ServiceSimulator,
    Snapshot,
    SnapshotError,
)
from repro.trace.bus import MemorySink, read_jsonl
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

SOURCE_SPEC = FaultCampaignSpec(
    nodes=20,
    configs=10,
    tasks=0,
    seed=42,
    mtbf=3000,
    seu_rate=2000,
    retry_budget=4,
    backoff_base=8,
)


def make_arrivals(count: int = 60):
    """The workload ``build_campaign(tasks=count)`` would generate, standalone.

    Fresh ``Task`` objects every call — tasks are stateful, so two services
    must never share one arrival list.
    """
    rng = RNG(seed=42)
    generate_nodes(NodeSpec(count=20), rng)
    configs = generate_configs(ConfigSpec(count=10), rng)
    return list(generate_task_stream(TaskSpec(count=count), configs, rng))


def test_windowed_service_matches_batch():
    """advance_to windows + drain over the ctor stream == one-shot batch."""
    base = baseline(SEU_SMALL, "array")
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    svc.advance_to(50)
    svc.advance_to(400)
    svc.advance_to(401)
    result = svc.drain()
    assert svc.hexdigest() == base.digest
    assert result.report == base.report


def test_mid_run_report_view_and_resume():
    """Checkpoint mid-window, resume on another backend, finish identically."""
    base = baseline(SEU_SMALL, "array")
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    mem = MemorySink()
    svc.bus.attach(mem)
    svc.advance_to(400)
    view = svc.report_view()
    # The clock rests at the last fired event, never idled to the boundary.
    assert 0 < view.time <= 400
    assert view.events_seen > 0
    assert view.report.total_tasks_generated >= view.report.total_completed_tasks
    snap = Snapshot.from_json(svc.checkpoint().to_json())
    resumed = ServiceSimulator.resume(
        snap, SEU_SMALL, backend="scan", prefix_events=list(mem)
    )
    result = resumed.drain()
    assert resumed.hexdigest() == base.digest
    assert result.report == base.report
    # Once sealed, the final view IS the final report.
    assert resumed.report_view().report == result.report


def test_finished_service_refuses_further_driving():
    svc = ServiceSimulator(CLEAN_SMALL, backend="array")
    svc.drain()
    with pytest.raises(RuntimeError, match="finished"):
        svc.advance_to(10_000)
    with pytest.raises(RuntimeError, match="finished"):
        svc.drain()


@pytest.mark.parametrize("backend", ["array", "scan"])
def test_window_bounds_are_integer_and_non_decreasing(backend):
    """The hot loop's windows check their bound as the kernel's do: a
    non-``int`` bound or one before the clock is refused, and a refused
    window leaves the run intact."""
    svc = ServiceSimulator(CLEAN_SMALL, backend=backend)
    svc.advance_to(2_000)
    now = svc.sim.env.now
    assert now > 0
    for bad in (2_500.0, True):
        with pytest.raises(TypeError, match="integer tick"):
            svc.advance_to(bad)
    with pytest.raises(ValueError, match="in the past"):
        svc.advance_to(now - 1)
    assert svc.sim.env.now == now
    with pytest.raises(RuntimeError, match="started"):
        ServiceSimulator(CLEAN_SMALL, backend=backend).sim.advance(100)
    assert svc.drain().report == baseline(CLEAN_SMALL, backend).report


def test_resume_rejects_mismatched_prefix():
    svc = ServiceSimulator(SEU_SMALL, backend="array")
    mem = MemorySink()
    svc.bus.attach(mem)
    svc.advance_to(300)
    snap = svc.checkpoint()
    wrong_prefix = list(mem)[:-1]
    with pytest.raises(SnapshotError, match="prefix"):
        ServiceSimulator.resume(
            snap, SEU_SMALL, backend="array", prefix_events=wrong_prefix
        )


def test_source_fed_service_checkpoint_restore():
    """A run fed purely from a ReplaySource checkpoints and resumes exactly."""
    src = ReplaySource(make_arrivals())
    svc = ServiceSimulator(SOURCE_SPEC, backend="array", source=src)
    mem = MemorySink()
    svc.bus.attach(mem)
    svc.advance_to(100)
    svc.advance_to(1200)
    snap = Snapshot.from_json(svc.checkpoint().to_json())

    # The uninterrupted twin: same windows, then drain.
    twin = ServiceSimulator(
        SOURCE_SPEC, backend="array", source=ReplaySource(make_arrivals())
    )
    twin.advance_to(100)
    twin.advance_to(1200)
    twin_result = twin.drain()

    resumed = ServiceSimulator.resume(
        snap, SOURCE_SPEC, backend="scan", source=src, prefix_events=list(mem)
    )
    result = resumed.drain()
    assert resumed.hexdigest() == twin.hexdigest()
    assert result.report == twin_result.report


def test_replay_source_windows():
    arrivals = make_arrivals(20)
    src = ReplaySource(arrivals)
    horizon = arrivals[9].at
    released = src.take_until(horizon)
    assert released and all(a.at <= horizon for a in released)
    assert not src.exhausted
    rest = src.take_all()
    assert src.exhausted
    assert len(released) + len(rest) == 20
    assert src.take_until(10**9) == []


def test_jsonl_tail_source(tmp_path):
    """Tailing a growing JSONL file: partial lines wait, close() seals."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    path = tmp_path / "feed.jsonl"
    src = JsonlTailSource(path, configs)
    assert src.take_until(100) == []  # no file yet

    known_no = configs[0].config_no
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"no": 0, "at": 10, "req": 50, "pref": known_no}) + "\n")
        fh.write(json.dumps({"no": 1, "at": 60, "req": 50, "pref": known_no}))
    got = src.take_until(100)
    assert [a.task.task_no for a in got] == [0]  # trailing partial line held back
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
        fh.write(
            json.dumps(
                {"no": 2, "at": 70, "req": 50, "pref": 999, "pref_area": 800}
            )
            + "\n"
        )
    got = src.take_until(100)
    assert [a.task.task_no for a in got] == [1, 2]
    assert got[1].task.pref_config.req_area == 800
    assert not src.exhausted
    src.close()
    assert src.exhausted

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"no": 9, "at": 5, "req": 10, "pref": 999}) + "\n")
    src2 = JsonlTailSource(bad, configs)
    with pytest.raises(ValueError, match="pref_area"):
        src2.take_until(100)


def record(no, at, pref, **extra):
    return json.dumps({"no": no, "at": at, "req": 50, "pref": pref, **extra}) + "\n"


def test_jsonl_tail_keeps_the_lines_after_a_bad_one(tmp_path):
    """A malformed line stops the poll at itself: nothing after it is lost."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    pref = configs[0].config_no
    path = tmp_path / "feed.jsonl"
    good_line = record(1, 20, pref)
    no_req = {"no": 1, "at": 20, "pref": pref}
    for bad, message in [
        ("{not json", "Expecting"),
        ("[1,2]", "not a JSON object"),
        (json.dumps(no_req), "lacks req"),
        (json.dumps({"req": 50}), "lacks no, at, pref"),
    ]:
        bad_line = bad + " " * (len(good_line) - len(bad) - 1) + "\n"
        path.write_text(record(0, 10, pref) + bad_line + record(2, 30, pref))
        src = JsonlTailSource(path, configs)
        with pytest.raises(ValueError, match=message):
            src.take_until(100)
        with pytest.raises(ValueError, match=message):  # the same line again, never skipped
            src.poll()
        # Repair the bad line in place: the poll resumes exactly there, and
        # the line before it (already buffered) is not read a second time.
        path.write_text(record(0, 10, pref) + good_line + record(2, 30, pref))
        assert [a.task.task_no for a in src.take_until(100)] == [0, 1, 2]


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"no": "7"}, "no"),
        ({"no": True}, "no"),
        ({"at": 1.5}, "at"),
        ({"req": "5"}, "req"),
        ({"req": 0}, "req"),
        ({"pref": [1]}, "pref"),
        ({"pref": 999, "pref_area": "x"}, "pref_area"),
        ({"pref": 999, "pref_area": 0}, "pref_area"),
        ({"pref": 999, "pref_area": 800, "pref_ctime": -1}, "pref_ctime"),
    ],
    ids=["no-str", "no-bool", "at-float", "req-str", "req-zero", "pref-list",
         "pref_area-str", "pref_area-zero", "pref_ctime-negative"],
)
def test_jsonl_tail_rejects_a_mistyped_field(tmp_path, fields, field):
    """A field of the wrong type or below its bound is a ValueError naming
    the task and the field, and the poll never passes the bad line."""
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    rec = {"no": 3, "at": 20, "req": 50, "pref": configs[0].config_no, **fields}
    path = tmp_path / "feed.jsonl"
    path.write_text(record(0, 10, configs[0].config_no) + json.dumps(rec) + "\n")
    src = JsonlTailSource(path, configs)
    message = re.escape(f"task {rec['no']!r}: {field} must be an int")
    with pytest.raises(ValueError, match=message):
        src.poll()
    with pytest.raises(ValueError, match=message):  # the same line again, never skipped
        src.poll()
    # Repaired in place, the line is read once and the one before it is kept.
    path.write_text(record(0, 10, configs[0].config_no) + record(3, 20, configs[0].config_no))
    assert [a.task.task_no for a in src.take_until(100)] == [0, 3]


def test_jsonl_tail_waits_for_a_split_utf8_sequence(tmp_path):
    rng = RNG(seed=7)
    generate_nodes(NodeSpec(count=5), rng)
    configs = generate_configs(ConfigSpec(count=4), rng)
    rec = {"no": 0, "at": 10, "req": 50, "pref": configs[0].config_no, "note": "caf\u00e9"}
    data = (json.dumps(rec, ensure_ascii=False) + "\n").encode("utf-8")
    split = data.index("\u00e9".encode("utf-8")) + 1  # inside the two-byte sequence
    path = tmp_path / "feed.jsonl"
    path.write_bytes(data[:split])
    src = JsonlTailSource(path, configs)
    assert src.take_until(100) == []
    with open(path, "ab") as fh:
        fh.write(data[split:])
    assert [a.task.task_no for a in src.take_until(100)] == [0]


def test_ingest_rejects_late_and_non_integer_arrivals(tmp_path):
    """The tail-fed reproduction (at=10 after the clock reached 170), then
    arrivals the tail's own parse would reject pushed straight into the
    ingest seam: at=700.5 and a task length of 10.5."""
    feed = tmp_path / "feed.jsonl"
    svc = ServiceSimulator(SOURCE_SPEC, backend="array")
    configs = svc.sim.rim.configs
    pref = configs[0].config_no
    svc.source = JsonlTailSource(feed, configs)

    def append(no, at, **extra):
        with open(feed, "a", encoding="utf-8") as fh:
            fh.write(record(no, at, pref, **extra))

    append(0, 100)
    append(1, 170)
    svc.advance_to(200)
    assert svc.sim.env.now >= 170
    append(2, 10)
    with pytest.raises(IngestError, match="watermark"):
        svc.advance_to(300)
    assert issubclass(IngestError, ValueError)

    def arrival(no, at, req=50):
        return TaskArrival(at=at, task=Task(task_no=no, required_time=req, pref_config=configs[0]))

    with pytest.raises(IngestError, match="integer"):
        svc.sim.ingest([arrival(3, 700.5)])
    # A fractional task length would be placed, then crash the kernel.
    with pytest.raises(IngestError, match="required time 10.5"):
        svc.sim.ingest([arrival(4, 750, req=10.5)])

    # A batch with one bad arrival queues none of it.

    with pytest.raises(IngestError, match="watermark"):
        svc.sim.ingest([arrival(4, 2000), arrival(5, 1500)])
    with pytest.raises(IngestError, match="required time"):
        svc.sim.ingest([arrival(4, 2000), arrival(5, 2100, req=10.5)])
    with pytest.raises(IngestError, match="required time"):
        svc.sim.ingest([arrival(4, 2000, req=True)])
    with pytest.raises(IngestError, match="integer"):
        svc.sim.ingest([arrival(6, True)])

    append(7, 900)
    svc.source.close()
    result = svc.drain()
    assert result.report.total_tasks_generated == 3  # tasks 0, 1 and 7


def _open_service(nodes=10, prefix=None):
    """A fault-free, source-less service with its ingest seam open.

    ``prefix``, a sink, collects the trace from the first event on (what
    a resume needs).
    """
    svc = ServiceSimulator(FaultCampaignSpec(nodes=nodes, configs=10, tasks=0, seed=42))
    if prefix is not None:
        svc.bus.attach(prefix)
    svc.sim.open_ingest()
    svc.sim.start()
    configs = svc.sim.rim.configs

    def arrival(no, at):
        return TaskArrival(at=at, task=Task(task_no=no, required_time=50, pref_config=configs[0]))

    return svc, arrival


def test_ingest_rejects_a_repeated_task_within_one_batch():
    """Task 1 twice at t=1: rejected, and nothing from the batch is queued."""
    svc, arrival = _open_service()
    with pytest.raises(IngestError, match="task number"):
        svc.sim.ingest([arrival(1, 1), arrival(1, 1)])
    with pytest.raises(IngestError, match="task number"):
        svc.sim.ingest([arrival(2, 1), arrival(3, 2), arrival(3, 3)])
    svc.sim.close_ingest()
    result = svc.drain()
    assert result.report.total_tasks_generated == 0
    assert result.tasks == []


def test_ingest_rejects_a_repeated_task_across_batches():
    """The mark carries across calls, across firing and across a resume."""
    prefix = MemorySink()
    svc, arrival = _open_service(prefix=prefix)
    assert svc.sim.ingest([arrival(1, 1)]) == 1
    with pytest.raises(IngestError, match="last accepted task 1"):
        svc.sim.ingest([arrival(1, 1)])  # still buffered / pending
    svc.advance_to(5)  # task 1 has arrived and runs
    with pytest.raises(IngestError, match="last accepted task 1"):
        svc.sim.ingest([arrival(1, 6)])
    with pytest.raises(IngestError, match="last accepted task 1"):
        svc.sim.ingest([arrival(0, 6)])
    assert svc.sim.ingest([arrival(2, 6), arrival(4, 7)]) == 2
    # A restored run derives the same mark from its snapshot.
    snap = Snapshot.from_json(svc.checkpoint().to_json())
    resumed = ServiceSimulator.resume(snap, svc.spec, prefix_events=list(prefix))
    with pytest.raises(IngestError, match="last accepted task 4"):
        resumed.sim.ingest([arrival(3, 8)])
    svc.sim.close_ingest()
    result = svc.drain()
    assert [t.status.value for t in result.tasks] == ["completed"] * 3
    assert result.report.total_tasks_generated == 3
    assert result.report.total_completed_tasks == 3
    assert svc.report_view().report == result.report


def test_service_jsonl_persistence_continues_across_resume(tmp_path):
    """The JSONL trace file spans the cut: prefix + suffix, no duplicates."""
    path = tmp_path / "trace.jsonl"
    svc = ServiceSimulator(CLEAN_SMALL, backend="array", jsonl_path=str(path))
    svc.advance_to(500)
    snap = svc.checkpoint()
    assert svc.jsonl is not None
    svc.jsonl.close()
    prefix = read_jsonl(path)
    resumed = ServiceSimulator.resume(
        snap,
        CLEAN_SMALL,
        backend="array",
        prefix_events=prefix,
        jsonl_path=str(path),
    )
    result = resumed.drain()
    assert resumed.jsonl is not None
    resumed.jsonl.close()
    events = read_jsonl(path)
    seqs = [e.seq for e in events]
    assert seqs == sorted(set(seqs)), "resume duplicated or reordered events"
    base = baseline(CLEAN_SMALL, "array")
    assert resumed.hexdigest() == base.digest
    assert result.report == base.report
