#!/usr/bin/env python3
"""Regenerate the committed golden fixtures under ``tests/golden/``.

The golden suite pins the full structured event stream of three small,
fully deterministic scenarios (20 nodes, 10 configurations, 200 tasks,
seed 42 — one run per reconfiguration mode, plus one fault campaign whose
crash/SEU/quarantine churn exercises every fault-path event type, so the
digest covers the whole taxonomy).  ``tests/test_trace_golden.py`` asserts
that a fresh simulation reproduces each committed trace byte for byte (and
therefore digest for digest), on every resource-manager backend, and that
the replayer derives the same Table I counters from the committed file as
from a live run.

Refresh procedure (only after an *intentional* behaviour change):

    PYTHONPATH=src python tools/make_golden.py
    git diff tests/golden/   # review every changed line — each one is a
                             # deliberate behavioural difference
    PYTHONPATH=src python -m pytest tests/test_trace_golden.py

Then describe the behaviour change in the commit message.  A golden diff
you cannot explain is a regression, not a refresh.

Besides the three golden traces this also refreshes the committed golden
*snapshot* (``tests/golden/snapshot_n20_t200_s42/``): the harness SEU
campaign cut after 1000 kernel steps, serialized at the current
``SNAPSHOT_VERSION``.  Regenerating it is mandatory whenever the snapshot
format changes (and the version is bumped) — the fixture's own test
refuses version skew.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.framework.campaign import FaultCampaignSpec, run_campaign  # noqa: E402
from repro.trace import DigestSink, MemorySink, TraceBus  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

# Scenario kwargs are FaultCampaignSpec fields: a spec with no fault knob
# set reproduces the plain quick_simulation run byte for byte, so the two
# clean scenarios are unchanged by running them through the campaign seam.
SCENARIOS = {
    "partial_n20_t200_s42": dict(
        nodes=20, configs=10, tasks=200, partial=True, seed=42
    ),
    "full_n20_t200_s42": dict(
        nodes=20, configs=10, tasks=200, partial=False, seed=42
    ),
    # Crash + SEU + quarantine churn: covers TaskInterrupted, NodeFailed,
    # NodeRepaired, ConfigFault, TaskRetry, NodeQuarantined, NodeProbation
    # (the DL004 taxonomy-coverage gate counts on this trace).
    "faults_n20_t200_s42": dict(
        nodes=20, configs=10, tasks=200, partial=True, seed=42,
        mtbf=800, mttr=300, seu_rate=600, retry_budget=1, backoff_base=10,
        quarantine_threshold=2, probation=400, health_half_life=300,
    ),
}


#: The golden snapshot fixture: the harness SEU campaign, cut mid-run.
SNAPSHOT_DIR = GOLDEN_DIR / "snapshot_n20_t200_s42"
SNAPSHOT_CUT_STEPS = 1000


def make_snapshot_golden() -> None:
    """Regenerate ``tests/golden/snapshot_n20_t200_s42/``.

    Cuts the harness SEU campaign after ``SNAPSHOT_CUT_STEPS`` kernel
    events on the scan backend (only the generic path stops between two
    events of one tick; the format is backend-neutral, and the fixture's
    test resumes it on both backends), writes the serialized snapshot,
    the trace prefix up to the cut, and the uninterrupted run's expected
    final digest — everything ``tests/test_snapshot_golden.py`` pins.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from repro.framework.campaign import build_campaign
    from repro.service.snapshot import snapshot_of
    from tests.snapshot_harness import SEU, baseline

    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    base = baseline(SEU, "array")

    bus = TraceBus()
    mem = MemorySink()
    dig = DigestSink()
    bus.attach(mem)
    bus.attach(dig)
    sim, injector = build_campaign(SEU, backend="scan", trace=bus)
    sim.start()
    for _ in range(SNAPSHOT_CUT_STEPS):
        if sim.env.pending_count == 0:
            raise SystemExit("snapshot golden: campaign ended before the cut")
        sim.env.step()
    snap = snapshot_of(sim, injector, digest=dig.hexdigest())
    snap.write(SNAPSHOT_DIR / "snapshot.json")
    (SNAPSHOT_DIR / "prefix.jsonl").write_bytes(mem.data)
    expected = {
        "campaign": (
            "SEU (tests/snapshot_harness.py), 20 nodes / 10 configs / "
            "200 tasks, seed 42, partial, cut on the scan backend"
        ),
        "cut_kernel_steps": SNAPSHOT_CUT_STEPS,
        "cut_trace_events": len(mem),
        "expected_final_digest": base.digest,
        "expected_total_events": base.event_count,
    }
    (SNAPSHOT_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"snapshot golden: cut at {len(mem)} trace events, "
        f"final digest {base.digest}"
    )


def main() -> int:
    """Write one JSONL trace per scenario plus the digest manifest."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    for name, kwargs in SCENARIOS.items():
        path = GOLDEN_DIR / f"{name}.jsonl"
        digest, mem = DigestSink(), MemorySink()
        run_campaign(FaultCampaignSpec(**kwargs), trace=TraceBus(mem, digest))
        path.write_bytes(mem.data)
        digests[name] = digest.hexdigest()
        print(f"{name}: {digest.count} events, digest {digests[name]}")
    manifest = GOLDEN_DIR / "digests.json"
    manifest.write_text(
        json.dumps({"scenarios": SCENARIOS, "digests": digests}, indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"manifest written to {manifest}")
    make_snapshot_golden()
    return 0


if __name__ == "__main__":
    sys.exit(main())
