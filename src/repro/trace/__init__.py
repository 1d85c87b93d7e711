"""Structured event tracing: the observability layer.

Three pieces:

* :mod:`repro.trace.events` — the canonical typed event taxonomy
  (``TaskArrived``, ``Placed``, ``Suspended``, ``NodeFailed``, …) and the
  stable JSONL serialisation every consumer shares;
* :mod:`repro.trace.bus` — the :class:`TraceBus` emission point (zero
  overhead when absent) and its sinks, which all take canonical lines:
  in-memory, JSONL file, and the streaming order-sensitive run digest;
* :mod:`repro.trace.replay` — :class:`TraceReplayer`, which re-derives the
  Table I counters and the Fig. 6–10 series from a recorded trace alone,
  bit-identically to the live accumulators.

See DESIGN.md §9 for the taxonomy, trace format, and digest semantics, and
``tools/make_golden.py`` for refreshing the committed golden traces.
"""

from repro.trace.bus import (
    DigestSink,
    JsonlSink,
    MemorySink,
    TraceBus,
    digest_of,
    read_jsonl,
)
from repro.trace.events import EVENT_TYPES, TraceEvent
from repro.trace.replay import ReplaySeries, TraceError, TraceReplayer, replay_report

__all__ = [
    "TraceBus",
    "TraceEvent",
    "EVENT_TYPES",
    "MemorySink",
    "JsonlSink",
    "DigestSink",
    "digest_of",
    "read_jsonl",
    "TraceReplayer",
    "TraceError",
    "ReplaySeries",
    "replay_report",
]
