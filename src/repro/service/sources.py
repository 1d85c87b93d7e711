"""Arrival sources: where a service-mode simulator's tasks come from.

Batch runs hand the simulator its whole workload up front; a service pulls
arrivals from a source as simulated time advances.  The seam is tiny —
:meth:`ArrivalSource.take_until` releases every arrival due by a time, and
:attr:`ArrivalSource.exhausted` says whether more may ever come — so any
producer (trace replay, file tail, message queue) plugs in.

Arrivals must be released in non-decreasing ``at`` order across calls; the
simulator's ingest seam relies on it (and its event heap would reorder a
violation anyway, changing nothing but wasting the contract).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union

from repro.model.config import Configuration
from repro.model.task import Task
from repro.workload.generator import TaskArrival
from repro.workload.swf import read_swf, tasks_from_swf


class ArrivalSource(Protocol):
    """Anything that feeds a :class:`~repro.service.ServiceSimulator`."""

    def take_until(self, t: int) -> list[TaskArrival]:
        """Release every arrival with ``at <= t`` not yet released."""
        ...

    def take_all(self) -> list[TaskArrival]:
        """Release everything available (the drain path)."""
        ...

    @property
    def exhausted(self) -> bool:
        """True once no further arrivals can ever appear."""
        ...


class ReplaySource:
    """Replay a fixed arrival list at its recorded submit times.

    The service driver pulls each window's due slice with
    :meth:`take_until`; :meth:`from_swf` builds the list from a Standard
    Workload Format trace, so an archived real workload streams into the
    simulator at its real (scaled) submit times.
    """

    def __init__(self, arrivals: Sequence[TaskArrival]) -> None:
        self._arrivals = sorted(arrivals, key=lambda a: (a.at, a.task.task_no))
        self._next = 0

    @classmethod
    def from_swf(
        cls,
        source: Union[str, Path],
        configs: Sequence[Configuration],
        time_scale: float = 1.0,
    ) -> "ReplaySource":
        """An SWF trace replayed against a generated configuration list."""
        return cls(tasks_from_swf(read_swf(source), configs, time_scale=time_scale))

    def take_until(self, t: int) -> list[TaskArrival]:
        """The not-yet-released arrivals with ``at <= t``, in order."""
        start = self._next
        end = start
        arrivals = self._arrivals
        while end < len(arrivals) and arrivals[end].at <= t:
            end += 1
        self._next = end
        return arrivals[start:end]

    def take_all(self) -> list[TaskArrival]:
        """Release everything left (drain)."""
        out = self._arrivals[self._next :]
        self._next = len(self._arrivals)
        return out

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)

    def __len__(self) -> int:
        return len(self._arrivals) - self._next


#: The tail record's integer fields and their lower bounds (None: any int),
#: ``no`` first so every later message names a valid task number.  A JSON
#: ``true`` is a bool, not an int, and is rejected like ``1.5`` or ``"5"``.
_INT_FIELDS = (
    ("no", None),
    ("at", None),
    ("req", 1),
    ("pref", None),
    ("pref_area", 1),
    ("pref_ctime", 0),
)


class JsonlTailSource:
    """Tail a JSONL file an external producer appends task records to.

    One record per line: ``{"no": 7, "at": 120, "req": 900, "pref": 3}``
    with optional ``"data"``, and — for a preference outside the system's
    configuration list — ``"pref_area"`` / ``"pref_ctime"`` to fabricate
    it.  :meth:`poll` reads newly appended complete lines (a trailing
    partial line is left for the next poll, and a malformed line stops the
    poll without losing the lines after it); the file is *open-ended*: the
    source only reports :attr:`exhausted` after :meth:`close` marks the
    producer done, mirroring ``DReAMSim.close_ingest``.
    """

    def __init__(self, path: Union[str, Path], configs: Sequence[Configuration]) -> None:
        self.path = Path(path)
        self._configs = {c.config_no: c for c in configs}
        self._fabricated: dict[int, Configuration] = {}
        self._offset = 0
        self._buffer: list[TaskArrival] = []
        self._closed = False

    def close(self) -> None:
        """The producer is done appending; drain what is buffered and stop."""
        self._closed = True

    def poll(self) -> int:
        """Ingest newly appended complete lines; returns records read.

        The file is read as bytes, so the offset is exact and a UTF-8
        sequence split by the producer's last write waits, like any partial
        line, for the next poll.  The offset advances only past lines that
        parsed: a malformed line raises, the lines before it stay buffered,
        and the next poll raises on that same line again — it is never
        skipped, and no line before it is parsed twice.
        """
        if not self.path.exists():
            return 0
        size = os.path.getsize(self.path)
        if size <= self._offset:
            return 0
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
        count = 0
        start = 0
        try:
            while True:
                end = chunk.find(b"\n", start)
                if end < 0:
                    break  # trailing partial (or empty) line
                line = chunk[start:end].strip()
                if line:
                    self._buffer.append(self._parse(json.loads(line)))
                    count += 1
                start = end + 1
        finally:
            self._offset += start
        return count

    def _parse(self, rec: object) -> TaskArrival:
        if not isinstance(rec, dict):
            raise ValueError(f"record {rec!r} is not a JSON object")
        missing = [key for key in ("no", "at", "req", "pref") if key not in rec]
        if missing:
            raise ValueError(f"task {rec.get('no')}: record lacks {', '.join(missing)}")
        for key, least in _INT_FIELDS:
            if key not in rec:
                continue  # pref_area / pref_ctime are optional
            value = rec[key]
            if type(value) is not int or (least is not None and value < least):
                bound = "an int" if least is None else f"an int >= {least}"
                raise ValueError(f"task {rec['no']!r}: {key} must be {bound}, got {value!r}")
        pref_no = rec["pref"]
        pref = self._configs.get(pref_no)
        if pref is None:
            pref = self._fabricated.get(pref_no)
        fabricated = pref is None
        if fabricated:
            if "pref_area" not in rec:
                raise ValueError(
                    f"task {rec.get('no')}: pref {pref_no} is not a system "
                    "configuration and no pref_area/pref_ctime were given"
                )
            pref = Configuration(
                config_no=pref_no,
                req_area=rec["pref_area"],
                config_time=rec.get("pref_ctime", 0),
            )
        task = Task(
            task_no=rec["no"],
            required_time=rec["req"],
            pref_config=pref,
            data=rec.get("data"),
        )
        if fabricated:
            # Registered only once the whole record parsed, so a rejected
            # line cannot vouch for a later record's preference.
            self._fabricated[pref_no] = pref
        return TaskArrival(at=rec["at"], task=task)

    def take_until(self, t: int) -> list[TaskArrival]:
        """Poll the file, then release the buffered arrivals with ``at <= t``."""
        self.poll()
        due = [a for a in self._buffer if a.at <= t]
        self._buffer = [a for a in self._buffer if a.at > t]
        due.sort(key=lambda a: (a.at, a.task.task_no))
        return due

    def take_all(self) -> list[TaskArrival]:
        """Release everything read so far (drain)."""
        self.poll()
        out = sorted(self._buffer, key=lambda a: (a.at, a.task.task_no))
        self._buffer = []
        return out

    @property
    def exhausted(self) -> bool:
        return self._closed and not self._buffer


__all__ = ["ArrivalSource", "JsonlTailSource", "ReplaySource"]
