"""Versioned, deterministic simulation checkpoints.

A :class:`Snapshot` is plain data (stdlib-JSON serializable, no pickling):
the simulator's exported state, the failure injector's (when one is
attached), and the trace position — the emission sequence number and the
running digest at the cut.  The restore contract, proven by
``tests/snapshot_harness.py`` across every backend and campaign:

    ``restore`` onto a freshly built identical system, then run to the end
    → final trace digest and Table I report **byte-identical** to the
    uninterrupted run.

A checkpoint costs the tasks live at the cut, not the session so far: the
simulator's terminal tasks travel as one fold record (``sim["fold"]``:
counts, the waiting/running Welford state as hex, the latest terminal time,
the completed-first-try count, and the deferred samples of terminal tasks
that arrived after a still-live one), and ``sim["tasks"]`` holds one
positional row per live task (:data:`repro.model.task.TASK_ROW`) — see
:mod:`repro.metrics.taskfold`.  A resumed run's ``SimulationResult.tasks``
therefore lists the tasks live at the cut plus the later arrivals, while
its Table I and resilience reports still cover the whole run.

Snapshots are keyed by a prefix of the trace digest at snapshot time (or a
``t{now}-e{events}`` fallback for untraced runs), so a checkpoint file names
the exact event-stream prefix it extends.  ``SNAPSHOT_VERSION`` gates the
format: any field change bumps it, and both :meth:`Snapshot.from_json` and
:func:`restore_snapshot` reject mismatches loudly instead of mis-restoring.

All exported state flows through the managers' public export/restore hooks
(``export_state``/``restore_state``/``export_task``…) — dreamlint rule
DL009 forbids this package from reaching into private attributes, which
keeps the serialization honest as internals evolve.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.failures import FailureInjector
    from repro.framework.simulator import DReAMSim

#: Bump on ANY change to the exported state layout.
#: v2: stale completion events travel as explicit ``("noop", task_no)``
#: queue entries instead of being dropped, so a restored run reproduces the
#: uninterrupted run's final time even when a dead completion is the last
#: event in the heap.
#: v3: terminal tasks fold into ``sim["fold"]``; ``sim["tasks"]`` (and the
#: ingest buffer, the pending arrival and scrub tasks) carry positional task
#: rows, and only the live tasks have one.  The JSON is written compact.
#: v4: suspension-queue records are ``[task_no, seq]`` pairs; the suspension
#: tick no longer travels.
#: v5: task rows have no history column (a discarded task's row carries its
#: discard tick as ``completion``), and the injector part is its fault log
#: alone: interrupts and retries travel as tallies (``interrupts_by_class``
#: ``[cls, n]`` pairs, ``retries_total``, ``backoff_delay_total``), with no
#: per-failure event list or interrupt counter; node records carry no
#: lifetime failure count.
SNAPSHOT_VERSION = 5

#: Hex digits of the trace digest used as the snapshot key.
_KEY_PREFIX = 12


class SnapshotError(ValueError):
    """A snapshot cannot be read or restored (version skew, bad shape…)."""


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint: everything needed to resume the run elsewhere.

    ``backend`` records where the snapshot was *cut*, as provenance only —
    the state formats are backend-neutral and restore accepts any backend
    (DESIGN.md §14).  ``trace_seq``/``trace_digest`` are ``None`` for
    untraced runs.
    """

    version: int
    key: str
    backend: str
    partial: bool
    trace_seq: Optional[int]
    trace_digest: Optional[str]
    sim: dict
    injector: Optional[dict]

    def to_json(self) -> str:
        """Serialize with stable key order (diff- and digest-friendly)."""
        return json.dumps(
            {
                "version": self.version,
                "key": self.key,
                "backend": self.backend,
                "partial": self.partial,
                "trace_seq": self.trace_seq,
                "trace_digest": self.trace_digest,
                "sim": self.sim,
                "injector": self.injector,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        """Parse and version-check a serialized snapshot."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SnapshotError(
                f"snapshot must be a JSON object, not {type(data).__name__}"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} is not supported by this build "
                f"(expected {SNAPSHOT_VERSION}); re-create the checkpoint with "
                "a matching version"
            )
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise SnapshotError(f"snapshot lacks required key(s): {', '.join(missing)}")
        return cls(**{name: data[name] for name in names})

    def write(self, path: Union[str, Path]) -> Path:
        """Write the snapshot to a file atomically; returns the path.

        The JSON goes to a temporary file in the same directory, which then
        replaces ``path`` in one :func:`os.replace`: a write that fails or
        is killed midway leaves the previous checkpoint intact.
        """
        p = Path(path)
        text = self.to_json() + "\n"
        try:
            mode = p.stat().st_mode & 0o777
        except FileNotFoundError:
            mode = 0o644
        fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=f".{p.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            # mkstemp creates 0600: keep the old file's mode, else 0644.
            os.chmod(tmp, mode)
            os.replace(tmp, p)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return p

    @classmethod
    def read(cls, path: Union[str, Path]) -> "Snapshot":
        """Load and version-check a snapshot file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def snapshot_of(
    sim: "DReAMSim",
    injector: Optional["FailureInjector"] = None,
    digest: Optional[str] = None,
) -> Snapshot:
    """Cut a checkpoint from a started, unfinished run.

    Call between events only (the service driver and the harness always
    do); ``digest`` is the trace digest at the cut, from
    :meth:`repro.trace.bus.DigestSink.hexdigest`.
    """
    state = sim.export_state()
    inj_state = injector.export_state() if injector is not None else None
    if digest is not None:
        key = digest[:_KEY_PREFIX]
    else:
        env = state["env"]
        key = f"t{env['now']}-e{env['event_count']}"
    return Snapshot(
        version=SNAPSHOT_VERSION,
        key=key,
        backend=state["backend"],
        partial=state["partial"],
        trace_seq=state["trace_seq"],
        trace_digest=digest,
        sim=state,
        injector=inj_state,
    )


def restore_snapshot(
    snapshot: Snapshot,
    sim: "DReAMSim",
    injector: Optional["FailureInjector"] = None,
) -> None:
    """Restore a checkpoint onto a freshly built identical system.

    ``sim`` (and ``injector``, when the snapshot carries injector state)
    must be freshly constructed with the original parameters — typically
    ``build_campaign(spec, backend=..., arm=False)`` — and the injector
    must NOT be armed: restore rewires its callbacks itself.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {snapshot.version!r} is not supported by this "
            f"build (expected {SNAPSHOT_VERSION})"
        )
    if snapshot.injector is not None and injector is None:
        raise SnapshotError(
            "snapshot carries failure-injector state; construct the matching "
            "(un-armed) injector and pass it to restore"
        )
    if snapshot.injector is None and injector is not None:
        raise SnapshotError("snapshot has no injector state but an injector was given")
    if snapshot.injector is not None:
        sim.restore_state(
            snapshot.sim, injector=injector, injector_state=snapshot.injector
        )
    else:
        sim.restore_state(snapshot.sim)


__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "restore_snapshot",
    "snapshot_of",
]
