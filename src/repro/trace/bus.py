"""The trace bus and its sinks.

:class:`TraceBus` is the single emission point the simulator, scheduler,
resource manager, suspension queue, monitor and failure injector all share.
It is *zero-overhead when absent*: instrumented code holds ``trace=None`` by
default and guards every emission with one attribute check, so a run without
a bus pays nothing but that check — no event objects, no field dicts, no
clock reads (the <2 % gate in ``BENCH_perf.json``).

When a bus is attached it stamps each event with

* a monotone sequence number (total emission order — the digest is
  order-sensitive),
* the simulation time, read from the attached ``clock`` callable,
* the cumulative search-step counters (``ss``/``hk``) when a
  :class:`~repro.resources.counters.SearchCounters` is attached,

then hands it to its sinks:

* :class:`MemorySink` — keeps events in a list (tests, batch replay);
* :class:`JsonlSink` — streams canonical JSON lines to a file;
* :class:`DigestSink` — folds canonical lines into a BLAKE2b hash without
  storing anything, giving the stable per-run *trace digest*;
* :class:`~repro.trace.replay.TraceReplayer` — folds each event into the
  Table I aggregates without storing it (the service's live report).

Because the first three consume the same canonical line, the digest of a
live run, of its JSONL file, and of the events re-read from that file are
identical.

Emission is positional: ``bus.emit(shape, *values)`` takes a *shape* from
:func:`~repro.trace.events.line_encoder` (the positional line function of
one :data:`~repro.trace.events.EVENT_FIELDS` shape, carrying its event type
and field names) and the values in that shape's field order.  Emitters look
their shapes up once, at import.  How the bus fans an event out depends on
its sinks:

* **line-only** — every sink accepts pre-encoded lines (``write_lines``:
  :class:`DigestSink` and :class:`JsonlSink`).  The bus calls the shape
  once with the stamps and hands the same bytes to every sink, never
  building a :class:`TraceEvent` or a field dict;
* **event** — no sink takes lines (``MemorySink``, ``TraceReplayer``).  The
  bus builds one :class:`TraceEvent` whose fields are the shape's names
  zipped with the values, plus the ``ss``/``hk`` stamps;
* **mixed** — both kinds (the service's ``TraceReplayer`` +
  ``DigestSink``).  Line sinks get the encoded line, event sinks the
  event, in attachment order.

:meth:`TraceBus.attach` re-decides after every attachment.  A bus without
counters stamps no ``ss``/``hk``; its lines take the dict encoder
(:func:`~repro.trace.events.canonical_line`).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Union,
)

from repro.trace.events import LineEncoder, TraceEvent, canonical_line

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.counters import SearchCounters


class TraceSink(Protocol):
    """Anything the bus can fan events out to."""

    def write(self, event: TraceEvent) -> None:
        """Consume one stamped event."""


class MemorySink:
    """Collects events in order; iterable and indexable."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class DigestSink:
    """Streaming order-sensitive BLAKE2b over canonical event lines.

    Lines are accumulated in a byte buffer and folded into the hash in
    ~64 KiB batches: one big ``update`` costs a fraction of per-line
    update pairs, and the digest is over the byte *stream*, so batch
    boundaries cannot change it.  Besides :meth:`write` (one stamped
    event) the sink accepts :meth:`write_lines` — pre-encoded canonical
    lines in bulk — which is what the array backend's hot loop feeds it;
    a bus whose sinks all support ``write_lines`` is what
    :func:`repro.framework.hotloop.hot_eligible` calls digest-capable.
    """

    _FLUSH_BYTES = 65536

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._buf = bytearray()
        self.count = 0

    def write(self, event: TraceEvent) -> None:
        """Fold the event's canonical line into the digest."""
        buf = self._buf
        buf += event.canonical().encode("utf-8")
        buf += b"\n"
        self.count += 1
        if len(buf) >= self._FLUSH_BYTES:
            self._hash.update(buf)
            del buf[:]

    def write_lines(self, data: bytes, count: int) -> None:
        """Fold ``count`` pre-encoded canonical lines (newline-terminated)."""
        buf = self._buf
        buf += data
        self.count += count
        if len(buf) >= self._FLUSH_BYTES:
            self._hash.update(buf)
            del buf[:]

    def hexdigest(self) -> str:
        """Digest over everything written so far (non-destructive)."""
        buf = self._buf
        if buf:
            self._hash.update(buf)
            del buf[:]
        return self._hash.copy().hexdigest()


class JsonlSink:
    """Writes one canonical JSON line per event to ``path`` (or a handle).

    ``append=True`` opens an existing file for appending — service-mode
    resume continues the JSONL trace where the interrupted run left off
    instead of truncating the prefix it is provably equivalent to.
    """

    def __init__(self, path: Union[str, Path, IO[str]], append: bool = False) -> None:
        if hasattr(path, "write"):
            self._fh: IO[str] = path  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(path, "a" if append else "w", encoding="utf-8")
            self._owns = True

    def write(self, event: TraceEvent) -> None:
        """Write the event's canonical line to the file."""
        self._fh.write(event.canonical())
        self._fh.write("\n")

    def write_lines(self, data: bytes, count: int) -> None:
        """Write ``count`` pre-encoded canonical lines (newline-terminated).

        The handle stays a text handle (a caller may pass any ``IO[str]``),
        so the UTF-8 bytes are decoded back to text.
        """
        self._fh.write(data.decode("utf-8"))

    def close(self) -> None:
        """Close the underlying file if this sink opened it."""
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class TraceBus:
    """Shared emission point; see the module docstring.

    Parameters
    ----------
    *sinks:
        Any objects with a ``write(event)`` method; sinks that also have
        ``write_lines(data, count)`` can put the bus on its line-only path.
    clock:
        Zero-argument callable returning the current simulation time; the
        simulator sets this to its environment clock.  Defaults to 0 (useful
        for tracing the resource manager standalone in tests).
    counters:
        When attached, every event carries cumulative ``ss``/``hk`` stamps.
    """

    __slots__ = ("clock", "counters", "_seq", "_line_writers", "_routes")

    def __init__(
        self,
        *sinks: TraceSink,
        clock: Optional[Callable[[], int]] = None,
        counters: Optional["SearchCounters"] = None,
    ) -> None:
        self._line_writers: Optional[list[Callable[[bytes, int], None]]] = []
        # Per sink, in attachment order: (its write_lines, True) for a sink
        # that takes lines, else (its write, False).
        self._routes: list[tuple[Callable[..., None], bool]] = []
        self.clock = clock
        self.counters = counters
        self._seq = 0
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink: TraceSink) -> None:
        """Add a sink; it sees only events emitted after attachment."""
        write_lines = getattr(sink, "write_lines", None)
        if callable(write_lines):
            self._routes.append((write_lines, True))
        else:
            self._routes.append((sink.write, False))
        if all(takes_lines for _, takes_lines in self._routes):
            self._line_writers = [write for write, _ in self._routes]
        else:
            self._line_writers = None

    @property
    def line_only(self) -> bool:
        """True when every sink takes pre-encoded lines (see the module doc)."""
        return self._line_writers is not None

    @property
    def events_emitted(self) -> int:
        return self._seq

    def resume_at(self, seq: int) -> None:
        """Continue a resumed run's emission numbering at ``seq``.

        Snapshot restore attaches fresh sinks, re-folds the trace prefix into
        them, then calls this so the first post-restore event carries exactly
        the sequence number the uninterrupted run would have stamped.
        """
        if seq < 0:
            raise ValueError(f"sequence number must be >= 0, got {seq}")
        self._seq = seq

    def write_lines(self, data: bytes, count: int) -> None:
        """Hand ``count`` pre-encoded lines, stamped by the caller (who then
        calls :meth:`resume_at`), to every sink of a line-only bus."""
        for write_lines in self._line_writers:  # type: ignore[union-attr]
            write_lines(data, count)

    def emit(self, shape: LineEncoder, *values: Any) -> None:
        """Stamp and fan out one event (callers guard the ``None`` check).

        ``shape`` comes from :func:`~repro.trace.events.line_encoder`;
        ``values`` are its fields in :data:`~repro.trace.events.EVENT_FIELDS`
        order.
        """
        clock = self.clock
        t = int(clock()) if clock is not None else 0
        seq = self._seq
        self._seq = seq + 1
        writers = self._line_writers
        if writers is not None:
            if writers:
                data = self._line(shape, seq, t, values)
                for write_lines in writers:
                    write_lines(data, 1)
            return
        fields = dict(zip(shape.names, values, strict=True))
        c = self.counters
        if c is not None:
            fields["ss"] = c.scheduling_steps
            fields["hk"] = c.housekeeping_steps
        event = TraceEvent(seq=seq, time=t, type=shape.ev_type, fields=fields)
        encoded: Optional[bytes] = None
        for write, takes_lines in self._routes:
            if not takes_lines:
                write(event)
                continue
            if encoded is None:
                encoded = self._line(shape, seq, t, values)
            write(encoded, 1)

    def _line(self, shape: LineEncoder, seq: int, t: int, values: tuple[Any, ...]) -> bytes:
        """One stamped event's canonical line, newline-terminated."""
        c = self.counters
        if c is not None:
            line = shape(seq, t, c.scheduling_steps, c.housekeeping_steps, *values)
        else:
            fields = dict(zip(shape.names, values, strict=True))
            line = canonical_line(seq, t, shape.ev_type, fields)
        return (line + "\n").encode("utf-8")


def read_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Load a JSONL trace file back into events."""
    out: list[TraceEvent] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(TraceEvent.from_json_line(line))
    return out


def write_jsonl(path: Union[str, Path], events: Iterable[TraceEvent]) -> None:
    """Write events to a JSONL trace file (inverse of :func:`read_jsonl`)."""
    with JsonlSink(path) as sink:
        for event in events:
            sink.write(event)


def digest_of(events: Iterable[TraceEvent]) -> str:
    """Order-sensitive digest of an event sequence (same hash as DigestSink)."""
    sink = DigestSink()
    for event in events:
        sink.write(event)
    return sink.hexdigest()


__all__ = [
    "TraceBus",
    "TraceSink",
    "MemorySink",
    "DigestSink",
    "JsonlSink",
    "read_jsonl",
    "write_jsonl",
    "digest_of",
]
