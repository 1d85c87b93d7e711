"""The canonical-line encoder table against its oracle, and the bus's one route.

``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` defines the
canonical line (:func:`repro.trace.events.json_line`).  The compiled
per-type encoders behind :func:`~repro.trace.events.canonical_line` and
their positional twins (:func:`~repro.trace.events.line_encoder`, the hot
loop's) must reproduce it exactly for every value — directly where the
values have the spec's kinds, through the fallback everywhere else.  A
positional ``TraceBus.emit`` encodes those bytes once and hands them to
every sink — file, digest and memory alike — and a ``MemorySink`` decodes
them back into the events, on the generic path and the hot loop alike.
"""

import ast
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.framework.campaign import FaultCampaignSpec, build_campaign
from repro.framework.hotloop import hot_eligible
from repro.resources.counters import SearchCounters
from repro.trace import DigestSink, JsonlSink, MemorySink, TraceBus, TraceEvent, digest_of
from repro.trace import events as ev
from repro.trace.events import EVENT_FIELDS, canonical_line, json_line, line_encoder

# -- the oracle ------------------------------------------------------------------

_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
        st.characters(),
    ),
    max_size=12,
)
_SCALARS = st.one_of(st.integers(), st.booleans(), st.none(), _TEXT)
_ANY = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4), st.floats(allow_nan=False))
_KIND_VALUES = {
    ev.INT: st.integers(),
    ev.BOOL: st.booleans(),
    ev.STR: _TEXT,
    ev.INT_OR_NONE: st.one_of(st.none(), st.integers()),
    ev.INT_LIST: st.lists(st.integers(), max_size=5),
}
_SHAPES = [(ev_type, {**spec, "ss": ev.INT, "hk": ev.INT}) for ev_type, spec in EVENT_FIELDS]
_SHAPE_IDS = [f"{ev_type}-{len(spec)}" for ev_type, spec in _SHAPES]
_ORACLE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _payload(spec, values):
    return st.fixed_dictionaries({key: values(kind) for key, kind in spec.items()})


def _positional_line(seq, t, ev_type, spec, fields):
    """The shape's positional line function, fed ``fields`` in spec order."""
    names = [key for key in spec if key not in ("ss", "hk")]
    line = line_encoder(ev_type, *names)
    return line(seq, t, fields["ss"], fields["hk"], *(fields[key] for key in names))


def test_every_event_type_has_an_encoder():
    assert {ev_type for ev_type, _ in EVENT_FIELDS} == ev.EVENT_TYPES


@pytest.mark.parametrize("ev_type, spec", _SHAPES, ids=_SHAPE_IDS)
@_ORACLE
@given(data=st.data())
def test_encoder_matches_json_dumps_on_spec_kinds(ev_type, spec, data, monkeypatch):
    fields = data.draw(_payload(spec, _KIND_VALUES.__getitem__))
    seq, t = data.draw(st.integers()), data.draw(st.integers())
    expected = json_line(seq, t, ev_type, fields)
    # Values of the spec's kinds take the compiled path, never json.dumps.
    with monkeypatch.context() as m:
        m.setattr(json, "dumps", None)
        line = canonical_line(seq, t, ev_type, fields)
        positional = _positional_line(seq, t, ev_type, spec, fields)
    assert line == positional == expected
    assert json.loads(line) == {"seq": seq, "t": t, "ev": ev_type, **fields}


@pytest.mark.parametrize("ev_type, spec", _SHAPES, ids=_SHAPE_IDS)
@_ORACLE
@given(data=st.data())
def test_encoder_matches_json_dumps_on_any_values(ev_type, spec, data):
    fields = data.draw(
        _payload(spec, lambda kind: st.one_of(_KIND_VALUES[kind], _ANY))
    )
    seq = data.draw(st.one_of(st.integers(), st.booleans()))
    t = data.draw(st.one_of(st.integers(), st.booleans()))
    expected = json_line(seq, t, ev_type, fields)
    assert canonical_line(seq, t, ev_type, fields) == expected
    assert _positional_line(seq, t, ev_type, spec, fields) == expected


@pytest.mark.parametrize(
    "ev_type, names",
    [
        ("NotAnEvent", ("task",)),
        (ev.DISCARDED, ("task",)),
        (ev.DISCARDED, ("reason", "task")),
        (ev.DISCARDED, ("task", "reason", "ss", "hk")),
        (ev.PLACED, ("task", "kind", "node", "cfg", "ctime", "avail", "closest")),
    ],
    ids=["unknown-type", "missing-field", "out-of-order", "named-stamps", "no-such-placed"],
)
def test_line_encoder_rejects_unknown_shapes(ev_type, names):
    with pytest.raises(ValueError, match="no .* shape"):
        line_encoder(ev_type, *names)


def test_no_second_canonical_line_encoder():
    """Only ``trace/events.py`` spells a canonical line: any other module
    that writes the ``"ev":`` key is a second encoder to keep in sync."""
    src = Path(ev.__file__).resolve().parents[1]
    spelled = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if '"ev":' in path.read_text(encoding="utf-8")
    ]
    assert spelled == [str(Path("trace", "events.py"))]


@_ORACLE
@given(
    ev_type=st.sampled_from(sorted(ev.EVENT_TYPES) + ["NotAnEvent"]),
    fields=st.dictionaries(
        st.sampled_from(["task", "node", "cfg", "kind", "ss", "hk", "t", "seq", "x"]),
        _ANY,
        max_size=10,
    ),
)
def test_non_spec_shapes_take_the_json_line(ev_type, fields):
    assert canonical_line(7, 9, ev_type, fields) == json_line(7, 9, ev_type, fields)


@pytest.mark.parametrize(
    "ev_type, fields",
    [
        # GPP offload: no avail/sw, node None.
        (ev.PLACED, {"task": 3, "kind": "gpp_offload", "node": None, "cfg": -1,
                     "ctime": 0, "closest": False, "ss": 4, "hk": 5}),
        # Unstamped full Placed: same field count as the stamped GPP shape.
        (ev.PLACED, {"task": 3, "kind": "allocation", "node": 1, "cfg": 2,
                     "ctime": 0, "avail": 10, "sw": 7, "closest": True}),
        # Partial test events.
        (ev.PLACED, {"task": 9, "b": 1}),
        (ev.NODE_REPAIRED, {"node": 1}),
        # A float, a bool in an int field, a reserved key in the payload.
        (ev.RUN_FINISHED, {"final": 1.5, "ss": 0, "hk": 0}),
        (ev.RESUMED, {"task": True, "retry": 1, "ss": 0, "hk": 0}),
        (ev.RUN_FINISHED, {"t": 99, "ss": 0, "hk": 0}),
        (ev.CONFIG_EVICTED, {"node": 1, "cfgs": [1, None], "area": 5, "ss": 0, "hk": 0}),
    ],
    ids=["gpp", "unstamped", "partial", "partial-single", "float", "bool", "reserved",
         "list"],
)
def test_non_spec_shapes_examples(ev_type, fields):
    assert canonical_line(2, 30, ev_type, fields) == json_line(2, 30, ev_type, fields)
    event = TraceEvent(seq=2, time=30, type=ev_type, fields=fields)
    assert event.canonical() == json_line(2, 30, ev_type, fields)


# -- positional emission: every sink takes the one encoded line ------------------


class _Recorder:
    """A sink appending what it is handed to a log shared with other sinks."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def write_lines(self, data, count):
        self.log.append((self.tag, data, count))


def _buses(counters):
    """Three buses over fresh sinks: a file and a digest, a memory sink
    alone, and a memory sink with a file."""
    line_fh, mixed_fh = io.StringIO(), io.StringIO()
    event_mem, mixed_mem = MemorySink(), MemorySink()
    buses = [
        TraceBus(JsonlSink(line_fh), DigestSink(), counters=counters),
        TraceBus(event_mem, counters=counters),
        TraceBus(mixed_mem, JsonlSink(mixed_fh), counters=counters),
    ]
    return buses, line_fh, event_mem, mixed_mem, mixed_fh


@pytest.mark.parametrize("ev_type, spec", _SHAPES, ids=_SHAPE_IDS)
@_ORACLE
@given(data=st.data())
def test_every_bus_emits_the_json_line(ev_type, spec, data):
    names = [key for key in spec if key not in ("ss", "hk")]
    shape = line_encoder(ev_type, *names)
    assert (shape.ev_type, shape.names) == (ev_type, tuple(names))
    fields = data.draw(_payload(spec, lambda kind: st.one_of(_KIND_VALUES[kind], _ANY)))
    stamped = data.draw(st.booleans())
    counters = SearchCounters() if stamped else None
    if stamped:
        counters.scheduling_steps, counters.housekeeping_steps = fields["ss"], fields["hk"]
    else:
        del fields["ss"], fields["hk"]
    values = [fields[key] for key in names]
    buses, line_fh, event_mem, mixed_mem, mixed_fh = _buses(counters)
    for bus in buses:
        bus.resume_at(3)
        bus.clock = lambda: 11
        bus.emit(shape, *values)
    expected = json_line(3, 11, ev_type, fields)
    assert line_fh.getvalue() == mixed_fh.getvalue() == expected + "\n"
    for mem in (event_mem, mixed_mem):
        assert mem.data == (expected + "\n").encode("utf-8")
        (event,) = mem.events
        assert (event.seq, event.time, event.type) == (3, 11, ev_type)
        assert event.fields == fields
        assert event.canonical() == expected


def test_bus_hands_every_sink_the_same_line():
    log = []
    bus = TraceBus(_Recorder(log, "a"), _Recorder(log, "b"), counters=SearchCounters())
    bus.attach(_Recorder(log, "c"))
    bus.emit(line_encoder(ev.NODE_REPAIRED, "node"), 4)
    assert [tag for tag, _, _ in log] == ["a", "b", "c"]
    (_, a, a_count), (_, b, _), (_, c, _) = log
    assert a is b is c  # encoded once, for every sink
    assert a_count == 1
    assert a == (json_line(0, 0, ev.NODE_REPAIRED, {"node": 4, "ss": 0, "hk": 0}) + "\n").encode()


@pytest.mark.parametrize("stamped", [True, False], ids=["counters", "no-counters"])
def test_mid_run_attach_moves_the_bus_between_paths(stamped):
    """A sink attached mid-run joins the bus's one path: it sees exactly the
    later lines, globally numbered and stamped, and the digest of a sink
    attached from the start cannot tell."""
    counters = SearchCounters() if stamped else None
    placed = line_encoder(ev.PLACED, "task", "kind", "node", "cfg", "ctime", "avail", "sw",
                          "closest")
    bus = TraceBus(DigestSink(), counters=counters)
    whole = DigestSink()
    bus.attach(whole)
    bus.emit(placed, 1, "configuration", 4, 2, 5, 100, 7, False)
    late = MemorySink()
    bus.attach(late)
    if counters is not None:
        counters.charge_scheduling(3)
    bus.emit(placed, 2, "allocation", 4, 2, 0, 60, 7, True)
    bus.emit(line_encoder(ev.CONFIG_EVICTED, "node", "cfgs", "area"), 4, [2, 3], 9)
    assert [e.seq for e in late] == [1, 2]
    stamps = {"ss": 3, "hk": 0} if stamped else {}
    assert late.events[0].fields == {
        "task": 2, "kind": "allocation", "node": 4, "cfg": 2, "ctime": 0, "avail": 60,
        "sw": 7, "closest": True, **stamps,
    }
    first = TraceEvent(
        seq=0, time=0, type=ev.PLACED,
        fields={"task": 1, "kind": "configuration", "node": 4, "cfg": 2, "ctime": 5,
                "avail": 100, "sw": 7, "closest": False,
                **({"ss": 0, "hk": 0} if stamped else {})},
    )
    assert whole.count == 3
    assert whole.hexdigest() == digest_of([first, *late.events])


@pytest.mark.parametrize(
    "sinks, stamped",
    [((DigestSink,), True), ((DigestSink,), False), ((MemorySink,), True),
     ((MemorySink, DigestSink), True)],
    ids=["line-only", "line-only-no-counters", "event", "mixed"],
)
def test_emit_rejects_a_value_count_the_shape_does_not_name(sinks, stamped):
    bus = TraceBus(*(sink() for sink in sinks), counters=SearchCounters() if stamped else None)
    discarded = line_encoder(ev.DISCARDED, "task", "reason")
    with pytest.raises((TypeError, ValueError)):
        bus.emit(discarded, 1)
    with pytest.raises((TypeError, ValueError)):
        bus.emit(discarded, 1, "no_config", 2)


def test_line_only_bus_writes_the_event_path_lines(tmp_path):
    """A file sink writes the same bytes beside a digest as beside a memory
    sink, and the memory sink keeps exactly those bytes."""

    def emit_all(bus):
        bus.emit(line_encoder(ev.TASK_ARRIVED, "task", "pref", "req"), 1, 2, 30)
        bus.emit(
            line_encoder(ev.PLACED, "task", "kind", "node", "cfg", "ctime", "avail", "sw",
                         "closest"),
            1, "configuration", 4, 2, 5, 100, 7, False,
        )
        bus.emit(line_encoder(ev.DISCARDED, "task", "reason"), 2, 'odd "reason" é\u2028')
        bus.emit(line_encoder(ev.CONFIG_EVICTED, "node", "cfgs", "area"), 4, [2, 3], 9)

    lines_path, events_path = tmp_path / "lines.jsonl", tmp_path / "events.jsonl"
    with JsonlSink(lines_path) as jsonl:
        digest = DigestSink()
        emit_all(TraceBus(digest, jsonl))
    with JsonlSink(events_path) as jsonl:
        mem = MemorySink()
        emit_all(TraceBus(mem, jsonl))
    assert lines_path.read_bytes() == events_path.read_bytes() == mem.data
    assert digest.hexdigest() == digest_of(mem)
    assert digest.count == len(mem) == len(mem.events) == 4


def test_emitters_outside_trace_pass_values_positionally():
    """Every ``.emit(`` call under ``src/repro`` outside ``trace/`` is the
    positional ``emit(shape, *values)`` form: a keyword would be a field
    the shape does not name (and one DL012 checks differently)."""
    src = Path(ev.__file__).resolve().parents[1]
    keyword_emits = []
    calls = 0
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        if rel.parts[0] == "trace":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                calls += 1
                if node.keywords:
                    keyword_emits.append(f"{rel}:{node.lineno}")
    assert calls > 20
    assert keyword_emits == []


# -- campaign differential: digest bus vs memory bus, generic path vs hot loop --

_CAMPAIGNS = {
    "clean": FaultCampaignSpec(nodes=30, configs=12, tasks=300, seed=5),
    "seu": FaultCampaignSpec(
        nodes=40, configs=16, tasks=300, seed=11, seu_rate=200, scrub_factor=2,
        retry_budget=3, backoff_base=8, backoff_cap=512,
    ),
    "quarantine": FaultCampaignSpec(
        nodes=40, configs=16, tasks=300, seed=19, mtbf=800, mttr=200,
        quarantine_threshold=1500, probation=2000, health_half_life=4000,
    ),
}


def _windowed_run(spec, backend, bus, mid_run_sink=None):
    """Run in two drives (start, a window, drain), optionally attaching a
    sink between them, halfway through the arrivals: the array backend runs
    both drives on the hot loop, the scan backend on the generic path."""
    sim, _ = build_campaign(spec, backend=backend, trace=bus)
    sim.start()
    sim.advance(spec.tasks * 12)
    if mid_run_sink is not None:
        bus.attach(mid_run_sink)
    sim.run_to_end()
    return sim


@pytest.mark.parametrize("backend", ["array", "scan"])
@pytest.mark.parametrize("campaign", sorted(_CAMPAIGNS))
def test_line_only_bus_digests_like_the_event_bus(campaign, backend):
    """A digest-only bus and a digest + memory bus digest a campaign alike;
    the memory sink's lines re-digest to the same hash and decode to the
    same events whether the run went in two drives or one ``sim.run()``
    (the hot loop on the array backend, the generic path on scan); a sink
    attached between two windows sees exactly the stream's tail."""
    spec = _CAMPAIGNS[campaign]
    lines = DigestSink()
    _windowed_run(spec, backend, TraceBus(lines))

    events, mem = DigestSink(), MemorySink()
    _windowed_run(spec, backend, TraceBus(events, mem))
    assert lines.hexdigest() == events.hexdigest() == digest_of(mem)
    whole_run = MemorySink()
    sim, _ = build_campaign(spec, backend=backend, trace=TraceBus(whole_run))
    assert hot_eligible(sim) == (backend == "array")
    sim.run()
    assert whole_run.data == mem.data
    assert whole_run.events == mem.events

    # A MemorySink attached mid-run sees exactly the stream's tail, and the
    # digest cannot tell.
    switched, late = DigestSink(), MemorySink()
    _windowed_run(spec, backend, TraceBus(switched), mid_run_sink=late)
    assert 0 < len(late) < len(mem)
    assert switched.hexdigest() == lines.hexdigest()
    assert mem.data.endswith(late.data)
    tail = mem.events[len(mem) - len(late):]
    assert late.events == tail
