"""Fuzzing the v5 snapshot loader: the fold record, the task rows, the
suspension-queue records and the failure injector's fault log.

Each example takes the golden checkpoint (the harness SEU campaign cut
mid-run: 62 live task rows, a fold record whose 112 completed tasks all
wait as deferred samples behind a live one, ``[task_no, seq]`` queue
records), applies one structural mutation — a dropped field, a value of the
wrong type, a negative count, a row, sample or record of the wrong arity —
and then parses, restores and runs
the result to the end.  The only allowed outcomes are a typed rejection
(:class:`SnapshotError`, :class:`ConfigurationError`,
:class:`SimulationError`) or a finished run; a bare ``KeyError``,
``TypeError`` or ``IndexError`` fails the property.

Tier-1 runs a small derandomised budget; ``-m chaos`` runs a deeper one.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from tests.snapshot_harness import SEU

from repro.framework.campaign import build_campaign
from repro.model import ConfigurationError
from repro.service.snapshot import Snapshot, SnapshotError, restore_snapshot
from repro.sim import SimulationError

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "snapshot_n20_t200_s42" / "snapshot.json").read_text()
)
TIER1 = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
CHAOS = settings(TIER1, max_examples=400)

#: Values of a type no snapshot field of the fold or a row expects here.
WRONG_TYPES = ["x", 1.5, None, [], {}, True, [1, 2]]


@st.composite
def edits(draw, container):
    """One structural edit of ``container`` (a dict or a list)."""
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    key = draw(st.sampled_from(keys))
    kinds = ["drop", "retype", "negative"]
    if isinstance(container, list):
        kinds.append("extra")
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        return key, kind, draw(st.sampled_from(WRONG_TYPES))
    if kind == "negative":
        return key, kind, -draw(st.integers(2, 10**6))
    return key, kind, draw(st.integers(0, 10))


def apply(container, edit) -> None:
    key, kind, value = edit
    if kind == "drop":
        del container[key]
    elif kind == "extra":
        container.append(value)
    else:
        container[key] = value


@st.composite
def mutated_snapshots(draw):
    data = json.loads(json.dumps(GOLDEN))
    sim = data["sim"]
    fold = sim["fold"]
    target = draw(st.sampled_from(["fold", "stats", "sample", "row", "log", "queue"]))
    if target == "fold":
        container = fold
    elif target == "stats":
        container = fold[draw(st.sampled_from(["waiting", "running"]))]
    elif target == "sample":
        container = draw(st.sampled_from(fold["deferred"]))
    elif target == "row":
        container = draw(st.sampled_from(sim["tasks"]))
    elif target == "queue":
        container = draw(st.sampled_from(sim["susqueue"]["items"]))
    else:
        container = data["injector"]["log"]
    apply(container, draw(edits(container)))
    return json.dumps(data), draw(st.sampled_from(["array", "scan"]))


def restore_and_finish(text: str, backend: str) -> None:
    try:
        snap = Snapshot.from_json(text)
        sim, injector = build_campaign(SEU, backend=backend, arm=False)
        restore_snapshot(snap, sim, injector)
        sim.run_to_end()
    except (SnapshotError, ConfigurationError, SimulationError):
        pass


@TIER1
@given(case=mutated_snapshots())
def test_mutated_snapshot_is_rejected_or_runs(case):
    restore_and_finish(*case)


@pytest.mark.chaos
@CHAOS
@given(case=mutated_snapshots())
def test_mutated_snapshot_is_rejected_or_runs_deep(case):
    restore_and_finish(*case)


def test_unmutated_golden_runs_to_the_end():
    """The fuzz base itself restores and finishes on both backends."""
    for backend in ("array", "scan"):
        sim, injector = build_campaign(SEU, backend=backend, arm=False)
        restore_snapshot(Snapshot.from_json(json.dumps(GOLDEN)), sim, injector)
        assert sim.run_to_end().report.total_tasks_generated == 200
