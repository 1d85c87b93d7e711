"""The canonical-line encoder table against its oracle, and the line-only bus.

``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` defines the
canonical line (:func:`repro.trace.events.json_line`).  The compiled
per-type encoders behind :func:`~repro.trace.events.canonical_line` and
their positional twins (:func:`~repro.trace.events.line_encoder`, the hot
loop's) must reproduce it exactly for every value — directly where the
values have the spec's kinds, through the fallback everywhere else — and a
bus on its line-only path must digest a campaign exactly as an event-path
bus does.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.framework.campaign import FaultCampaignSpec, build_campaign
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


# -- the line-only bus -----------------------------------------------------------


def test_line_only_flag_follows_the_sinks():
    assert TraceBus().line_only
    bus = TraceBus(DigestSink())
    assert bus.line_only
    bus.attach(MemorySink())
    assert not bus.line_only
    assert not TraceBus(MemorySink(), DigestSink()).line_only


def test_line_only_bus_writes_the_event_path_lines(tmp_path):
    def emit_all(bus):
        bus.emit(ev.TASK_ARRIVED, task=1, pref=2, req=30)
        bus.emit(ev.PLACED, task=1, kind="configuration", node=4, cfg=2, ctime=5,
                 avail=100, sw=7, closest=False)
        bus.emit(ev.DISCARDED, task=2, reason='odd "reason" é')
        bus.emit(ev.CONFIG_EVICTED, node=4, cfgs=[2, 3], area=9)

    lines_path, events_path = tmp_path / "lines.jsonl", tmp_path / "events.jsonl"
    with JsonlSink(lines_path) as jsonl:
        digest = DigestSink()
        emit_all(TraceBus(digest, jsonl))
    with JsonlSink(events_path) as jsonl:
        mem = MemorySink()
        emit_all(TraceBus(mem, jsonl))
    assert lines_path.read_bytes() == events_path.read_bytes()
    assert digest.hexdigest() == digest_of(mem)
    assert digest.count == len(mem) == 4


# -- campaign differential: line-only bus vs event bus ---------------------------

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


def _generic_run(spec, backend, bus, mid_run_sink=None):
    """Run on the generic path (start + drain), optionally attaching a sink
    halfway through the arrivals."""
    sim, _ = build_campaign(spec, backend=backend, trace=bus)
    sim.start()
    if mid_run_sink is not None:
        sim.env.run(until=spec.tasks * 12, idle_advance=False)
        bus.attach(mid_run_sink)
    sim.run_to_end()
    return sim


@pytest.mark.parametrize("backend", ["array", "scan"])
@pytest.mark.parametrize("campaign", sorted(_CAMPAIGNS))
def test_line_only_bus_digests_like_the_event_bus(campaign, backend):
    spec = _CAMPAIGNS[campaign]
    lines = DigestSink()
    line_bus = TraceBus(lines)
    _generic_run(spec, backend, line_bus)

    events, mem = DigestSink(), MemorySink()
    _generic_run(spec, backend, TraceBus(events, mem))
    assert lines.hexdigest() == events.hexdigest() == digest_of(mem)

    # A MemorySink attached mid-run moves the bus to the event path; the
    # digest cannot tell, and the sink sees exactly the stream's tail.
    switched, late = DigestSink(), MemorySink()
    switched_bus = TraceBus(switched)
    _generic_run(spec, backend, switched_bus, mid_run_sink=late)
    assert not switched_bus.line_only
    assert 0 < len(late) < len(mem)
    assert switched.hexdigest() == lines.hexdigest()
    tail = mem.events[len(mem) - len(late):]
    assert [e.canonical() for e in late] == [e.canonical() for e in tail]
    assert late.events[0].seq == tail[0].seq
