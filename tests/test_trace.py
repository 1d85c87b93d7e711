"""Unit tests for the trace layer: events, bus, sinks, digests, replayer.

Scenario-level guarantees (live == replay, cross-mode digests, goldens) live
in ``test_trace_replay.py`` and ``test_trace_golden.py``; this module covers
the mechanics each of those relies on.
"""

import json

import pytest

from repro.resources.counters import SearchCounters
from repro.trace import (
    DigestSink,
    JsonlSink,
    MemorySink,
    TraceBus,
    TraceError,
    TraceEvent,
    TraceReplayer,
    digest_of,
    read_jsonl,
)
from repro.trace import events as ev
from repro.trace.events import line_encoder


# -- TraceEvent: canonical serialisation ---------------------------------------


def test_canonical_line_is_sorted_minimal_json():
    event = TraceEvent(seq=3, time=17, type=ev.PLACED, fields={"task": 9, "b": 1})
    line = event.canonical()
    assert line == '{"b":1,"ev":"Placed","seq":3,"t":17,"task":9}'
    # Stable: key insertion order must not leak into the line.
    other = TraceEvent(seq=3, time=17, type=ev.PLACED, fields={"b": 1, "task": 9})
    assert other.canonical() == line


def test_canonical_round_trips_through_json_line():
    event = TraceEvent(
        seq=0, time=5, type=ev.CONFIG_EVICTED,
        fields={"node": 2, "cfgs": [4, 7], "area": 900, "flag": True, "x": None},
    )
    back = TraceEvent.from_json_line(event.canonical())
    assert back == event
    assert back.canonical() == event.canonical()


def test_event_taxonomy_is_closed():
    assert ev.PLACED in ev.EVENT_TYPES
    assert len(ev.EVENT_TYPES) == 18


# -- TraceBus: stamping and fan-out --------------------------------------------


def test_bus_stamps_sequence_time_and_counters():
    counters = SearchCounters()
    clock_value = [0]
    mem = MemorySink()
    bus = TraceBus(mem, clock=lambda: clock_value[0], counters=counters)
    bus.emit(line_encoder(ev.TASK_ARRIVED, "task", "pref", "req"), 0, 1, 10)
    counters.charge_scheduling(5)
    counters.charge_housekeeping(2)
    clock_value[0] = 42
    bus.emit(line_encoder(ev.DISCARDED, "task", "reason"), 0, "no_config")
    assert [e.seq for e in mem] == [0, 1]
    assert [e.time for e in mem] == [0, 42]
    assert mem.events[0].fields["ss"] == 0 and mem.events[0].fields["hk"] == 0
    assert mem.events[1].fields["ss"] == 5 and mem.events[1].fields["hk"] == 2
    assert bus.events_emitted == 2


def test_bus_without_clock_or_counters_stamps_zero_time_no_counters():
    mem = MemorySink()
    bus = TraceBus(mem)
    bus.emit(line_encoder(ev.NODE_FAILED, "node", "interrupted", "lost", "cls"), 3, 0, 0, "crash")
    (event,) = mem.events
    assert event.time == 0
    assert "ss" not in event.fields and "hk" not in event.fields


def test_attach_sees_only_later_events():
    bus = TraceBus()
    bus.emit(line_encoder(ev.RUN_STARTED, "nodes", "configs", "partial", "sample_system"),
             2, 1, True, True)
    late = MemorySink()
    bus.attach(late)
    bus.emit(line_encoder(ev.RUN_FINISHED, "final"), 5)
    assert [e.type for e in late] == [ev.RUN_FINISHED]
    assert late.events[0].seq == 1  # global numbering, not per-sink


# -- sinks ---------------------------------------------------------------------


def test_digest_sink_streams_and_is_non_destructive():
    events = [
        TraceEvent(seq=i, time=i, type=ev.TASK_ARRIVED, fields={"task": i})
        for i in range(3)
    ]
    sink = DigestSink()
    for e in events:
        sink.write(e)
    first = sink.hexdigest()
    assert sink.hexdigest() == first  # reading the digest must not consume it
    assert sink.count == 3
    assert digest_of(events) == first


def test_digest_is_order_sensitive():
    a = TraceEvent(seq=0, time=0, type=ev.TASK_ARRIVED, fields={"task": 0})
    b = TraceEvent(seq=1, time=0, type=ev.TASK_ARRIVED, fields={"task": 1})
    assert digest_of([a, b]) != digest_of([b, a])


def test_jsonl_sink_and_read_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [
        TraceEvent(seq=0, time=0, type=ev.RUN_STARTED,
                   fields={"nodes": 2, "configs": 1, "partial": True,
                           "sample_system": True}),
        TraceEvent(seq=1, time=9, type=ev.RUN_FINISHED, fields={"final": 9}),
    ]
    with JsonlSink(path) as sink:
        for e in events:
            sink.write(e)
    assert read_jsonl(path) == events
    # digest(file) == digest(live stream), by canonical-line construction.
    assert digest_of(read_jsonl(path)) == digest_of(events)
    # Each line is the canonical serialisation, byte for byte.
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [e.canonical() for e in events]


def test_jsonl_sink_accepts_open_handle(tmp_path):
    import io

    buf = io.StringIO()
    sink = JsonlSink(buf)
    sink.write(TraceEvent(seq=0, time=0, type=ev.RUN_STARTED, fields={}))
    sink.close()  # must not close a caller-owned handle
    assert json.loads(buf.getvalue())["ev"] == "RunStarted"


# -- replayer error handling ---------------------------------------------------


def _framed(middle=()):
    start = TraceEvent(
        seq=0, time=0, type=ev.RUN_STARTED,
        fields={"nodes": 2, "configs": 1, "partial": True, "sample_system": True},
    )
    end = TraceEvent(
        seq=len(middle) + 1, time=5, type=ev.RUN_FINISHED,
        fields={"final": 5, "ss": 0, "hk": 0},
    )
    return [start, *middle, end]


def test_replayer_rejects_empty_trace():
    with pytest.raises(TraceError, match="empty"):
        TraceReplayer([])


def test_replayer_requires_run_started_first():
    # Dropping RunStarted leaves a stream starting at seq 1 — diagnosed as
    # a checkpoint segment (see test_trace_stitch.py for the seq-0 case).
    events = _framed()[1:]
    with pytest.raises(TraceError, match="checkpoint segment"):
        TraceReplayer(events).replay()


def test_replayer_requires_run_finished():
    events = _framed()[:-1]
    with pytest.raises(TraceError, match="RunFinished"):
        TraceReplayer(events).replay()


def test_replayer_rejects_unknown_event_type():
    middle = [TraceEvent(seq=1, time=1, type="Banana", fields={})]
    with pytest.raises(TraceError, match="Banana"):
        TraceReplayer(_framed(middle)).replay()


@pytest.mark.parametrize(
    "samples",
    [[(3, 1), (2, 1)], [(1, 1.5)]],
    ids=["backwards-in-time", "non-integer-count"],
)
def test_replayer_records_a_bad_monitor_sample_as_a_defect(samples):
    middle = [
        TraceEvent(
            seq=i + 1, time=t, type=ev.MONITOR_SAMPLED,
            fields={"busy": busy, "queued": 0, "waste": 0, "running": 0},
        )
        for i, (t, busy) in enumerate(samples)
    ]
    replayer = TraceReplayer(_framed(middle))  # write() does not raise
    with pytest.raises(TraceError, match="MonitorSampled"):
        replayer.report()


def test_replayer_on_minimal_trace_produces_empty_report():
    report = TraceReplayer(_framed()).report()
    assert report.total_tasks_generated == 0
    assert report.total_completed_tasks == 0
    assert report.total_simulation_time == 5
    assert report.avg_wasted_area_per_task == 0.0
