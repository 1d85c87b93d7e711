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

encodes it once as its canonical line, and hands the same bytes to every
sink's ``write_lines(data, count)``:

* :class:`MemorySink` — keeps the lines; decodes them into
  :class:`TraceEvent` objects only when read (tests, batch replay);
* :class:`JsonlSink` — streams the lines to a file;
* :class:`DigestSink` — folds the lines into a BLAKE2b hash without
  storing anything, giving the stable per-run *trace digest*.

Because every sink consumes the same canonical line, the digest of a live
run, of its JSONL file, and of the events re-read from that file are
identical.  Table I is not folded from the bus: the simulator assembles it
from its own state (``DReAMSim.make_report``), and
:class:`~repro.trace.replay.TraceReplayer` re-derives it from a recorded
trace.

Emission is positional: ``bus.emit(shape, *values)`` takes a *shape* from
:func:`~repro.trace.events.line_encoder` (the positional line function of
one :data:`~repro.trace.events.EVENT_FIELDS` shape, carrying its event type
and field names) and the values in that shape's field order.  Emitters look
their shapes up once, at import.  A bus without counters stamps no
``ss``/``hk``; its lines take the dict encoder
(:func:`~repro.trace.events.canonical_line`).  The array backend's hot loop
formats the same lines itself and hands them over in batches through
:meth:`TraceBus.write_lines`.
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
    """Anything the bus can fan canonical lines out to."""

    def write_lines(self, data: bytes, count: int) -> None:
        """Consume ``count`` canonical lines (UTF-8, newline-terminated)."""


class MemorySink:
    """Keeps the canonical lines it is handed; iterable over their events.

    :attr:`data` is the byte stream exactly as a :class:`JsonlSink` would
    have written it.  :attr:`events` (and iteration) decode it into
    :class:`TraceEvent` objects when read, decoding only the lines that
    arrived since the previous read.  ``len()`` is the number of lines
    written.
    """

    def __init__(self) -> None:
        self._data = bytearray()
        self._count = 0
        self._decoded = 0  # bytes of _data already decoded into _events
        self._events: list[TraceEvent] = []

    def write_lines(self, data: bytes, count: int) -> None:
        """Keep ``count`` canonical lines (newline-terminated)."""
        self._data += data
        self._count += count

    @property
    def data(self) -> bytes:
        """Every line written so far, as one byte string."""
        return bytes(self._data)

    @property
    def events(self) -> list[TraceEvent]:
        """The lines written so far, decoded."""
        data = self._data
        if self._decoded < len(data):
            # Split on "\n" only: JSON escapes it inside strings, while
            # str.splitlines would also break at U+2028 and friends.
            lines = data[self._decoded:].decode("utf-8").split("\n")
            self._events.extend(TraceEvent.from_json_line(line) for line in lines[:-1])
            self._decoded = len(data)
        return self._events

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return self._count


class DigestSink:
    """Streaming order-sensitive BLAKE2b over canonical event lines.

    Lines are accumulated in a byte buffer and folded into the hash in
    ~64 KiB batches: one big ``update`` costs a fraction of per-line
    update pairs, and the digest is over the byte *stream*, so batch
    boundaries cannot change it.  The bus feeds it through
    :meth:`write_lines`; :meth:`write` folds one already-built event (a
    trace prefix re-read on resume, :func:`digest_of`).  ``len()`` is the
    number of lines folded.
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

    def __len__(self) -> int:
        return self.count


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
        Objects with a ``write_lines(data, count)`` method.
    clock:
        Zero-argument callable returning the current simulation time; the
        simulator sets this to its environment clock.  Defaults to 0 (useful
        for tracing the resource manager standalone in tests).
    counters:
        When attached, every event carries cumulative ``ss``/``hk`` stamps.
    """

    __slots__ = ("clock", "counters", "_seq", "_writers")

    def __init__(
        self,
        *sinks: TraceSink,
        clock: Optional[Callable[[], int]] = None,
        counters: Optional["SearchCounters"] = None,
    ) -> None:
        self._writers: list[Callable[[bytes, int], None]] = []
        self.clock = clock
        self.counters = counters
        self._seq = 0
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink: TraceSink) -> None:
        """Add a sink; it sees only events emitted after attachment."""
        self._writers.append(sink.write_lines)

    @property
    def events_emitted(self) -> int:
        return self._seq

    def resume_at(self, seq: int) -> None:
        """Continue a resumed run's emission numbering at ``seq``.

        Snapshot restore attaches fresh sinks, re-folds the trace prefix into
        the digest, then calls this so the first post-restore event carries
        exactly the sequence number the uninterrupted run would have stamped.
        """
        if seq < 0:
            raise ValueError(f"sequence number must be >= 0, got {seq}")
        self._seq = seq

    def write_lines(self, data: bytes, count: int) -> None:
        """Hand ``count`` pre-encoded lines, stamped by the caller (who then
        calls :meth:`resume_at`), to every sink."""
        for write_lines in self._writers:
            write_lines(data, count)

    def emit(self, shape: LineEncoder, *values: Any) -> None:
        """Stamp, encode and fan out one event (callers guard the ``None``
        check).

        ``shape`` comes from :func:`~repro.trace.events.line_encoder`;
        ``values`` are its fields in :data:`~repro.trace.events.EVENT_FIELDS`
        order.
        """
        clock = self.clock
        t = int(clock()) if clock is not None else 0
        seq = self._seq
        self._seq = seq + 1
        writers = self._writers
        if writers:
            c = self.counters
            if c is not None:
                line = shape(seq, t, c.scheduling_steps, c.housekeeping_steps, *values)
            else:
                fields = dict(zip(shape.names, values, strict=True))
                line = canonical_line(seq, t, shape.ev_type, fields)
            data = (line + "\n").encode("utf-8")
            for write_lines in writers:
                write_lines(data, 1)


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
