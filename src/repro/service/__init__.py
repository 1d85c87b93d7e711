"""Service mode: incremental ingest, mid-run metrics, checkpoint/restore.

The batch driver (:class:`repro.framework.simulator.DReAMSim`) consumes a
complete arrival stream and reports once, at the end.  This package turns
the same simulator into a long-lived *service*:

* :mod:`repro.service.sources` — the :class:`ArrivalSource` seam: tasks
  arrive over time (an SWF trace replayed at its real submit times, a JSONL
  file being appended to by an external producer) instead of as one batch.
* :mod:`repro.service.driver` — :class:`ServiceSimulator`:
  ``advance_to(t)`` / ``drain()`` windows interleaved with ingest, plus
  :meth:`ServiceSimulator.report_view` for Table I queried *mid-run*
  (assembled from the simulator's own state through the exact end-of-run
  code path; no event list is kept).
* :mod:`repro.service.snapshot` — versioned :class:`Snapshot`
  checkpoint/restore: ``restore`` then ``run_to_end`` reproduces the
  uninterrupted run's trace digest and report byte for byte, on any
  backend (DESIGN.md §14; proven by ``tests/snapshot_harness.py``).
"""

from repro.service.driver import ReportView, ServiceSimulator
from repro.service.snapshot import SNAPSHOT_VERSION, Snapshot, SnapshotError, snapshot_of
from repro.service.sources import ArrivalSource, JsonlTailSource, ReplaySource

__all__ = [
    "ArrivalSource",
    "JsonlTailSource",
    "ReplaySource",
    "ReportView",
    "ServiceSimulator",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "snapshot_of",
]
