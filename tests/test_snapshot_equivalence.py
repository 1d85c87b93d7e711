"""Snapshot equivalence: restore + run-to-end == the uninterrupted run.

Driven entirely through :mod:`tests.snapshot_harness` — the same harness the
CI ``snapshot-equivalence`` job sweeps with a denser cut matrix.  Every test
compares the final trace digest AND the Table I report byte for byte.
"""

import json

import pytest

from tests.snapshot_harness import (
    BACKENDS,
    CLEAN,
    CLEAN_SMALL,
    QUARANTINE,
    SEU,
    SEU_SMALL,
    assert_cut_equivalence,
    baseline,
    cut_and_resume,
    stratified_cuts,
)

from repro.framework.campaign import build_campaign
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    restore_snapshot,
    snapshot_of,
)
from repro.trace.bus import DigestSink, MemorySink, TraceBus

CAMPAIGNS = {"clean": CLEAN, "seu": SEU, "quarantine": QUARANTINE}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
def test_stratified_cut_equivalence(campaign, backend, partial):
    spec = CAMPAIGNS[campaign].with_mode(partial)
    assert_cut_equivalence(spec, backend, samples=5)


@pytest.mark.parametrize(
    "backend,resume_backend",
    [("array", "scan"), ("scan", "array")],
)
def test_cross_backend_resume(backend, resume_backend):
    """A snapshot cut on one backend restores onto another, byte-identical.

    The logical state export is backend-neutral (DESIGN.md §14), so the
    resumed run's digest matches the original backend's baseline exactly —
    the backend is an implementation detail the trace never sees.
    """
    base = baseline(SEU_SMALL, backend)
    for cut in stratified_cuts(base.event_count, 4):
        digest, report = cut_and_resume(
            SEU_SMALL, backend, cut, resume_backend=resume_backend
        )
        assert digest == base.digest, f"cut={cut}"
        assert report == base.report, f"cut={cut}"


def test_dense_cut_sweep_clean_small():
    """A denser sweep (every ~20th boundary) on the small clean campaign."""
    base = baseline(CLEAN_SMALL, "array")
    cuts = list(range(0, base.event_count + 1, max(base.event_count // 20, 1)))
    assert_cut_equivalence(CLEAN_SMALL, "array", cuts=cuts)


def test_double_restore_is_idempotent():
    """Restoring the same snapshot twice yields the same end state twice."""
    first = cut_and_resume(SEU_SMALL, "scan", 137)
    second = cut_and_resume(SEU_SMALL, "scan", 137)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_snapshot_json_roundtrip_is_stable():
    """to_json is deterministic and from_json(to_json(s)) == s."""
    bus = TraceBus()
    dig = DigestSink()
    bus.attach(dig)
    sim, injector = build_campaign(SEU_SMALL, backend="array", trace=bus)
    sim.start()
    sim.advance(1_100)
    snap = snapshot_of(sim, injector, digest=dig.hexdigest())
    text = snap.to_json()
    again = Snapshot.from_json(text)
    assert again == snap
    assert again.to_json() == text
    assert snap.key == dig.hexdigest()[:12]


def test_restore_requires_matching_injector_pairing():
    bus = TraceBus()
    bus.attach(DigestSink())
    sim, injector = build_campaign(SEU_SMALL, backend="array", trace=bus)
    sim.start()
    sim.advance(520)
    snap = snapshot_of(sim, injector)

    fresh_sim, _ = build_campaign(SEU_SMALL, backend="array", arm=False)
    with pytest.raises(SnapshotError, match="injector"):
        restore_snapshot(snap, fresh_sim, None)

    clean_sim, _ = build_campaign(CLEAN_SMALL, backend="array")
    clean_sim.start()
    clean_snap = snapshot_of(clean_sim, None)
    fresh2, fresh2_inj = build_campaign(SEU_SMALL, backend="array", arm=False)
    with pytest.raises(SnapshotError, match="no injector state"):
        restore_snapshot(clean_snap, fresh2, fresh2_inj)


def test_version_skew_is_rejected():
    """A snapshot from a different format version fails loudly, not subtly."""
    bus = TraceBus()
    bus.attach(DigestSink())
    sim, injector = build_campaign(SEU_SMALL, backend="array", trace=bus)
    sim.start()
    snap = snapshot_of(sim, injector)
    data = json.loads(snap.to_json())
    data["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        Snapshot.from_json(json.dumps(data))
    data["version"] = None
    with pytest.raises(SnapshotError, match="version"):
        Snapshot.from_json(json.dumps(data))
    with pytest.raises(SnapshotError, match="JSON"):
        Snapshot.from_json("{not json")


def test_restore_rejects_mode_mismatch():
    """Partial-mode state cannot be restored onto a full-mode system."""
    bus = TraceBus()
    bus.attach(DigestSink())
    sim, injector = build_campaign(SEU_SMALL, backend="array", trace=bus)
    sim.start()
    sim.advance(330)
    snap = snapshot_of(sim, injector)
    other, other_inj = build_campaign(
        SEU_SMALL.with_mode(False), backend="array", arm=False
    )
    with pytest.raises(ValueError):
        restore_snapshot(snap, other, other_inj)


def test_snapshot_file_roundtrip(tmp_path):
    bus = TraceBus()
    mem = MemorySink()
    dig = DigestSink()
    bus.attach(mem)
    bus.attach(dig)
    sim, injector = build_campaign(SEU_SMALL, backend="scan", trace=bus)
    sim.start()
    for _ in range(75):
        sim.env.step()
    path = tmp_path / "cut.snapshot.json"
    snapshot_of(sim, injector, digest=dig.hexdigest()).write(path)
    loaded = Snapshot.read(path)
    assert loaded.backend == "scan"
    assert loaded.trace_digest == dig.hexdigest()
    from tests.snapshot_harness import resume_to_end

    digest, report = resume_to_end(loaded, list(mem), SEU_SMALL, "scan")
    base = baseline(SEU_SMALL, "scan")
    assert digest == base.digest
    assert report == base.report
