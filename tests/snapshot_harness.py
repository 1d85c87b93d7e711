"""Reusable snapshot-equivalence harness.

The restore contract (DESIGN.md §14) this harness proves:

    cut a :class:`repro.service.Snapshot` at ANY event boundary, serialize it
    through JSON, restore it onto a freshly built system (any backend), run
    to the end — and the final trace digest and Table I report are
    **byte-identical** to the uninterrupted run's.

Everything here drives the shipped code paths: the snapshot is cut with
:func:`repro.service.snapshot.snapshot_of`, round-tripped through
``Snapshot.to_json``/``from_json`` (so a field that JSON cannot carry fails
here, not in production), and restored with
:func:`repro.service.snapshot.restore_snapshot` onto a
``build_campaign(..., arm=False)`` system.

Entry points
------------
* :func:`baseline` — the uninterrupted run's ``(digest, report)``.
* :func:`cut_and_resume` — run ``cut`` events, checkpoint, restore, finish
  (on the array backend, also cut the hot loop at that tick's window
  bound).
* :func:`assert_cut_equivalence` — the one-call form the tests use: for a
  spec × backend, check every cut in ``cuts`` (or a stratified sample of
  all event boundaries) against the baseline.
* :func:`stratified_cuts` — deterministic sample of cut points biased to
  the edges (cut 0, cut 1, and the final boundary are always included).

Campaign specs live here too (``CLEAN``, ``SEU``, ``QUARANTINE``) so every
test module and the CI job agree on what "the seed-42 campaign" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.framework.campaign import FaultCampaignSpec, build_campaign
from repro.resources import check_invariants
from repro.service.snapshot import Snapshot, restore_snapshot, snapshot_of
from repro.trace.bus import DigestSink, MemorySink, TraceBus
from repro.trace.events import TraceEvent

# The acceptance campaigns: 20 nodes / 200 tasks / seed 42, per ISSUE.
CLEAN = FaultCampaignSpec(nodes=20, configs=10, tasks=200, seed=42)
SEU = FaultCampaignSpec(
    nodes=20,
    configs=10,
    tasks=200,
    seed=42,
    mtbf=3000,
    seu_rate=2000,
    retry_budget=4,
    backoff_base=8,
)
QUARANTINE = FaultCampaignSpec(
    nodes=20,
    configs=10,
    tasks=200,
    seed=42,
    mtbf=3000,
    seu_rate=2000,
    retry_budget=4,
    backoff_base=8,
    quarantine_threshold=1500,
    probation=2000,
    health_half_life=4000,
)

#: Smaller variants for the denser cut sweeps (same shape, fewer tasks).
CLEAN_SMALL = FaultCampaignSpec(nodes=20, configs=10, tasks=60, seed=42)
SEU_SMALL = FaultCampaignSpec(
    nodes=20,
    configs=10,
    tasks=60,
    seed=42,
    mtbf=3000,
    seu_rate=2000,
    retry_budget=4,
    backoff_base=8,
)

BACKENDS = ("array", "scan")


@dataclass(frozen=True)
class BaselineRun:
    """The uninterrupted run's observables, compared byte for byte."""

    digest: str
    report: object
    event_count: int


def baseline(spec: FaultCampaignSpec, backend: str) -> BaselineRun:
    """Run the campaign start-to-finish; its digest/report are the oracle."""
    bus = TraceBus()
    dig = DigestSink()
    bus.attach(dig)
    sim, _injector = build_campaign(spec, backend=backend, trace=bus)
    result = sim.run()
    return BaselineRun(
        digest=dig.hexdigest(),
        report=result.report,
        event_count=bus.events_emitted,
    )


def cut_and_resume(
    spec: FaultCampaignSpec,
    backend: str,
    cut: int,
    resume_backend: Optional[str] = None,
) -> tuple[str, object]:
    """Run ``cut`` kernel events, checkpoint, restore fresh, run to the end.

    The checkpoint goes through a full ``Snapshot`` JSON round trip and is
    resumed on ``resume_backend`` (default ``backend``; the snapshot format
    is backend-neutral).  Only the generic path can stop between two events
    of one tick, so the event-count cut is taken on the scan backend.  On
    ``backend="array"`` the hot loop is also cut, at the window bound of the
    same tick (:meth:`DReAMSim.advance`), and resumed the same way; both
    resumes must agree.  Returns the resumed run's final ``(digest,
    report)`` for comparison against :func:`baseline`.
    """
    if resume_backend is None:
        resume_backend = backend
    sim, injector, mem, dig = _traced_start(spec, "scan")
    for _ in range(cut):
        if sim.env.pending_count == 0:
            break
        sim.env.step()
    resumed = _checkpoint_and_resume(sim, injector, mem, dig, spec, resume_backend)
    if backend == "array":
        until = sim.env.now
        sim, injector, mem, dig = _traced_start(spec, "array")
        sim.advance(until)
        at_bound = _checkpoint_and_resume(sim, injector, mem, dig, spec, resume_backend)
        assert at_bound == resumed, (
            f"a hot-loop cut at the window bound t={until} and the scan cut "
            f"after {cut} events resume to different runs"
        )
    return resumed


def _traced_start(spec: FaultCampaignSpec, backend: str):
    """A started campaign with a memory and a digest sink on its bus."""
    bus = TraceBus()
    mem = MemorySink()
    dig = DigestSink()
    bus.attach(mem)
    bus.attach(dig)
    sim, injector = build_campaign(spec, backend=backend, trace=bus)
    sim.start()
    return sim, injector, mem, dig


def _checkpoint_and_resume(sim, injector, mem, dig, spec, backend) -> tuple[str, object]:
    """Checkpoint ``sim`` through JSON and finish it on a fresh ``backend``."""
    snap = Snapshot.from_json(
        snapshot_of(sim, injector, digest=dig.hexdigest()).to_json()
    )
    return resume_to_end(snap, list(mem), spec, backend)


def resume_to_end(
    snap: Snapshot,
    prefix: list[TraceEvent],
    spec: FaultCampaignSpec,
    backend: str,
) -> tuple[str, object]:
    """Restore a snapshot onto a fresh ``backend`` system and finish the run.

    ``prefix`` is the trace up to the cut; it is re-folded into a fresh
    digest sink so the returned digest covers the whole logical stream.
    """
    bus = TraceBus()
    dig = DigestSink()
    bus.attach(dig)
    for event in prefix:
        dig.write(event)
    if snap.trace_seq is not None:
        bus.resume_at(snap.trace_seq)
    sim, injector = build_campaign(spec, backend=backend, trace=bus, arm=False)
    restore_snapshot(snap, sim, injector)
    # The restored manager's derived tables, checked directly rather than
    # only through the final digest.
    check_invariants(sim.rim)
    result = sim.run_to_end()
    return dig.hexdigest(), result.report


def stratified_cuts(total_events: int, samples: int) -> list[int]:
    """A deterministic spread of cut points over ``[0, total_events]``.

    Always includes the degenerate edges — cut 0 (checkpoint before any
    event), cut 1, and the final boundary — then evenly spaced interior
    points.  Duplicates collapse, order is ascending.
    """
    if total_events <= 0:
        return [0]
    picks = {0, 1, total_events}
    interior = max(samples - len(picks), 0)
    for i in range(1, interior + 1):
        picks.add(round(i * total_events / (interior + 1)))
    return sorted(p for p in picks if 0 <= p <= total_events)


def assert_cut_equivalence(
    spec: FaultCampaignSpec,
    backend: str,
    cuts: Optional[list[int]] = None,
    samples: int = 6,
    resume_backend: Optional[str] = None,
) -> BaselineRun:
    """Assert digest+report equivalence for every cut; returns the baseline.

    With ``cuts=None`` a stratified sample of ``samples`` event boundaries
    is used (pass the explicit list — e.g. ``range(n)`` — for the exhaustive
    every-boundary sweep).
    """
    base = baseline(spec, backend)
    if cuts is None:
        cuts = stratified_cuts(base.event_count, samples)
    for cut in cuts:
        digest, report = cut_and_resume(spec, backend, cut, resume_backend)
        assert digest == base.digest, (
            f"trace digest diverged: backend={backend} "
            f"resume_backend={resume_backend or backend} cut={cut}: "
            f"{digest} != {base.digest}"
        )
        assert report == base.report, (
            f"report diverged: backend={backend} "
            f"resume_backend={resume_backend or backend} cut={cut}"
        )
    return base
