"""The canonical structured event taxonomy.

Every observable state transition in a simulation run is one
:class:`TraceEvent` on the :class:`~repro.trace.bus.TraceBus`.  The taxonomy
mirrors the paper's own vocabulary (§IV–V): tasks arrive, are placed by one
of the four phases (or offloaded to a GPP in hybrid systems), suspend and
resume through the suspension queue, complete or are discarded; nodes load,
evict and lose configurations; failure studies add fail/repair/interrupt
events.  Two framing events bracket a run (``RunStarted`` / ``RunFinished``)
and the monitoring module contributes one ``MonitorSampled`` event per
recorded snapshot, which is what lets :class:`~repro.trace.replay.TraceReplayer`
rebuild the Fig. 6–10 time series from a trace alone.

Field values are restricted to JSON scalars (ints, bools, strings, ``None``)
and lists thereof — never floats — so the canonical serialisation, and hence
the run digest, is platform- and version-stable.

The canonical line of an event is ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` of ``{"seq", "t", "ev"} ∪ fields``.  That call is
the specification; :func:`canonical_line` produces the same string from a
table of per-type encoders compiled from :data:`EVENT_FIELDS` (keys in
sorted order with ``ev`` baked in, ints formatted directly), falling back
to ``json.dumps`` itself for any shape or value the table does not cover.
:func:`line_encoder` hands out the same encoders with positional fields;
each carries its event type and field names, which makes it the *shape*
every emitter passes to :meth:`~repro.trace.bus.TraceBus.emit` (and the
array hot loop calls directly).  This module is the only one that spells a
line.

Every event also carries the cumulative search-step counters at emission
time (``ss`` = scheduling steps, ``hk`` = housekeeping steps, stamped by the
bus when a :class:`~repro.resources.counters.SearchCounters` is attached).
This makes the digest sensitive to *charging* regressions, not only to
decision reshuffles: any change in what a query bills shifts every later
event's stamps and the digest flips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Protocol

# -- event types (the taxonomy) -----------------------------------------------

RUN_STARTED = "RunStarted"  # run parameters: nodes, configs, partial, sample_system
# (the manager backend is deliberately absent: both backends must produce
# byte-identical traces)
RUN_FINISHED = "RunFinished"  # final_time + terminal counter totals
TASK_ARRIVED = "TaskArrived"  # job submission manager handed a task over
PLACED = "Placed"  # scheduler bound the task (kind = the Fig. 5 phase)
SUSPENDED = "Suspended"  # task entered the suspension queue
RESUMED = "Resumed"  # task left the suspension queue for a dispatch attempt
DISCARDED = "Discarded"  # task terminally rejected (reason says why)
COMPLETED = "Completed"  # task finished; carries the Eq. 8 timing components
TASK_INTERRUPTED = "TaskInterrupted"  # fail-restart: a crash detached the task
CONFIG_LOADED = "ConfigLoaded"  # bitstream sent to a node (Eq. 10 numerator)
CONFIG_EVICTED = "ConfigEvicted"  # idle entries reclaimed (partial re-config)
NODE_FAILED = "NodeFailed"  # node left service; configurations lost
NODE_REPAIRED = "NodeRepaired"  # node back in service, blank
MONITOR_SAMPLED = "MonitorSampled"  # one monitoring snapshot (Fig. series point)
CONFIG_FAULT = "ConfigFault"  # SEU corrupted one loaded configuration (scrub starts)
TASK_RETRY = "TaskRetry"  # interrupted task re-enters after a backoff delay
NODE_QUARANTINED = "NodeQuarantined"  # flaky node held out of service past repair
NODE_PROBATION = "NodeProbation"  # quarantined node released (probation/requisition)

EVENT_TYPES = frozenset(
    {
        RUN_STARTED,
        RUN_FINISHED,
        TASK_ARRIVED,
        PLACED,
        SUSPENDED,
        RESUMED,
        DISCARDED,
        COMPLETED,
        TASK_INTERRUPTED,
        CONFIG_LOADED,
        CONFIG_EVICTED,
        NODE_FAILED,
        NODE_REPAIRED,
        MONITOR_SAMPLED,
        CONFIG_FAULT,
        TASK_RETRY,
        NODE_QUARANTINED,
        NODE_PROBATION,
    }
)

# -- canonical-line encoders ---------------------------------------------------

# Value kinds of a payload field.  An encoder formats its line directly only
# when every value has its field's kind; anything else (a bool in an int
# field, a float, a dict, ...) takes the ``json.dumps`` line.
INT = "int"
BOOL = "bool"
STR = "str"
INT_OR_NONE = "int|None"
INT_LIST = "list[int]"

#: The payload each emitter passes, per event type: field name -> kind.
#: Every shape is encoded with the bus's ``ss``/``hk`` stamps added.
#: ``Placed`` has a second shape: a GPP offload reports no node area
#: (``avail``) or system waste (``sw``), and its ``node`` is ``None``.
EVENT_FIELDS: tuple[tuple[str, dict[str, str]], ...] = (
    (RUN_STARTED, {"nodes": INT, "configs": INT, "partial": BOOL, "sample_system": BOOL}),
    (RUN_FINISHED, {"final": INT}),
    (TASK_ARRIVED, {"task": INT, "pref": INT, "req": INT}),
    (PLACED, {"task": INT, "kind": STR, "node": INT, "cfg": INT, "ctime": INT,
              "avail": INT, "sw": INT, "closest": BOOL}),
    (PLACED, {"task": INT, "kind": STR, "node": INT_OR_NONE, "cfg": INT, "ctime": INT,
              "closest": BOOL}),
    (SUSPENDED, {"task": INT, "qlen": INT}),
    (RESUMED, {"task": INT, "retry": INT}),
    (DISCARDED, {"task": INT, "reason": STR}),
    (COMPLETED, {"task": INT, "node": INT_OR_NONE, "wait": INT, "run": INT, "closest": BOOL}),
    (TASK_INTERRUPTED, {"task": INT, "node": INT, "cls": STR}),
    (CONFIG_LOADED, {"node": INT, "cfg": INT, "ctime": INT}),
    (CONFIG_EVICTED, {"node": INT, "cfgs": INT_LIST, "area": INT}),
    (NODE_FAILED, {"node": INT, "interrupted": INT, "lost": INT, "cls": STR}),
    (NODE_REPAIRED, {"node": INT}),
    (MONITOR_SAMPLED, {"busy": INT, "queued": INT, "waste": INT, "running": INT}),
    (CONFIG_FAULT, {"node": INT, "cfg": INT, "interrupted": INT_OR_NONE, "scrub": INT}),
    (TASK_RETRY, {"task": INT, "attempt": INT, "delay": INT, "at": INT}),
    (NODE_QUARANTINED, {"node": INT, "until": INT, "score": INT}),
    (NODE_PROBATION, {"node": INT, "reason": STR}),
)

# Per kind: the guard a value must pass, its conversion in the line's ``%``
# template, and the expression that renders it ({v} is the value's name).
_KINDS: dict[str, tuple[str, str, str]] = {
    INT: ("type({v}) is int", "%d", "{v}"),
    BOOL: ("type({v}) is bool", "%s", '"true" if {v} else "false"'),
    STR: ("type({v}) is str", "%s", "_json_str({v})"),
    INT_OR_NONE: ("({v} is None or type({v}) is int)", "%s", '"null" if {v} is None else {v}'),
    INT_LIST: (
        "type({v}) is list and all(type(x) is int for x in {v})",
        "%s",
        '"[" + ",".join(map(str, {v})) + "]"',
    ),
}

Encoder = Callable[[int, int, Mapping[str, Any]], str]


class LineEncoder(Protocol):
    """``(seq, t, ss, hk, *values in EVENT_FIELDS order) -> line``, carrying
    its shape: the event type and the field names in spec order.  This is
    the *shape* :meth:`repro.trace.bus.TraceBus.emit` takes."""

    ev_type: str
    names: tuple[str, ...]

    def __call__(self, seq: int, t: int, ss: int, hk: int, *values: Any) -> str: ...


def json_line(seq: int, time: int, ev_type: str, fields: Mapping[str, Any]) -> str:
    """The canonical line by definition: ``json.dumps`` of the whole event."""
    doc: dict[str, Any] = {"seq": seq, "t": time, "ev": ev_type}
    doc.update(fields)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# String values come from a handful of literals ("configuration",
# "retries", "crash", ...), so their JSON form is memoised.
_json_str = lru_cache(maxsize=1024)(json.dumps)


def _compile(ev_type: str, spec: Mapping[str, str]) -> tuple[Encoder, LineEncoder]:
    """Build the encoders for one payload shape (``spec`` plus ``ss``/``hk``).

    ``line(seq, t, ss, hk, *values in spec order)`` checks every value's
    kind in one guard and fills one ``%`` template whose keys are spelled in
    the order ``sort_keys=True`` puts them (``%d`` of an exact ``int`` is
    its JSON form); it carries ``ev_type`` and ``names`` (the spec's keys).
    ``encode(seq, t, fields)`` reads the values from the dict for ``line``.
    A failed guard or a missing field (another shape with the same field
    count) returns :func:`json_line`.
    """
    keys = ("ss", "hk", *spec)
    kinds = {"seq": INT, "t": INT, "ss": INT, "hk": INT, **spec}
    names = {"seq": "seq", "t": "t", **{key: f"v{i}" for i, key in enumerate(keys)}}
    template = []
    guards = []
    values = []
    for key in sorted(kinds.keys() | {"ev"}):
        if key == "ev":
            template.append(f'"ev":{json.dumps(ev_type)}')
            continue
        guard, conversion, render = _KINDS[kinds[key]]
        template.append(f'"{key}":{conversion}')
        guards.append(guard.format(v=names[key]))
        values.append(render.format(v=names[key]))
    line = "{" + ",".join(template) + "}"
    src = (
        f"def line(seq, t, {', '.join(names[key] for key in keys)}):\n"
        f"    if {' and '.join(guards)}:\n"
        f"        return {line!r} % ({', '.join(values)})\n"
        f"    return json_line(seq, t, ev_type, {{{', '.join(f'{k!r}: {names[k]}' for k in keys)}}})\n"
        "def encode(seq, t, f):\n"
        "    try:\n"
        f"        args = {', '.join(f'f[{key!r}]' for key in keys)}\n"
        "    except KeyError:\n"
        "        return json_line(seq, t, ev_type, f)\n"
        "    return line(seq, t, *args)\n"
    )
    scope: dict[str, Any] = {"json_line": json_line, "_json_str": _json_str, "ev_type": ev_type}
    exec(src, scope)
    line_fn = scope["line"]
    line_fn.ev_type = ev_type
    line_fn.names = tuple(spec)
    return scope["encode"], line_fn


# Encoders by event type, then by field count (the ss/hk stamps included):
# the count separates the two Placed shapes without hashing the field
# names; an encoder handed another shape of the same count finds a field
# missing and falls back to json_line.  Line functions by type and fields.
_ENCODERS: dict[str, dict[int, Encoder]] = {}
_LINES: dict[tuple[str, tuple[str, ...]], LineEncoder] = {}
for _ev_type, _spec in EVENT_FIELDS:
    _encode, _LINES[_ev_type, tuple(_spec)] = _compile(_ev_type, _spec)
    _ENCODERS.setdefault(_ev_type, {})[len(_spec) + 2] = _encode


def line_encoder(ev_type: str, *names: str) -> LineEncoder:
    """The ``line`` function of the :data:`EVENT_FIELDS` shape of ``ev_type``
    whose fields are ``names``, in spec order; :class:`ValueError` if none."""
    try:
        return _LINES[ev_type, names]
    except KeyError:
        raise ValueError(f"no {ev_type} shape in EVENT_FIELDS has fields {names}") from None


def canonical_line(seq: int, time: int, ev_type: str, fields: Mapping[str, Any]) -> str:
    """The canonical JSON line of one event; equal to :func:`json_line`."""
    by_count = _ENCODERS.get(ev_type)
    if by_count is not None:
        encoder = by_count.get(len(fields))
        if encoder is not None:
            return encoder(seq, time, fields)
    return json_line(seq, time, ev_type, fields)


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: sequence number, sim time, type, payload."""

    seq: int
    time: int
    type: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> str:
        """The canonical JSON line: stable key order, minimal separators.

        This exact string is what the JSONL sink writes and what the digest
        hashes, so ``digest(file) == digest(live stream)`` by construction.
        """
        return canonical_line(self.seq, self.time, self.type, self.fields)

    @classmethod
    def from_json_line(cls, line: str) -> "TraceEvent":
        """Parse one JSONL line back into an event."""
        doc = json.loads(line)
        return cls(
            seq=doc.pop("seq"),
            time=doc.pop("t"),
            type=doc.pop("ev"),
            fields=doc,
        )


__all__ = [
    "TraceEvent",
    "EVENT_TYPES",
    "EVENT_FIELDS",
    "canonical_line",
    "json_line",
    "line_encoder",
    "LineEncoder",
    "RUN_STARTED",
    "RUN_FINISHED",
    "TASK_ARRIVED",
    "PLACED",
    "SUSPENDED",
    "RESUMED",
    "DISCARDED",
    "COMPLETED",
    "TASK_INTERRUPTED",
    "CONFIG_LOADED",
    "CONFIG_EVICTED",
    "NODE_FAILED",
    "NODE_REPAIRED",
    "MONITOR_SAMPLED",
    "CONFIG_FAULT",
    "TASK_RETRY",
    "NODE_QUARANTINED",
    "NODE_PROBATION",
]
