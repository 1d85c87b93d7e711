"""The committed golden snapshot: format stability across sessions.

``tests/golden/snapshot_n20_t200_s42/`` holds a checkpoint of the harness
SEU campaign (20 nodes / 200 tasks / seed 42, partial) cut on the scan backend
after 1000 kernel steps, its trace prefix, and the uninterrupted run's final
digest.  If restoring it stops reproducing that digest, the snapshot *format*
changed — which is exactly when ``SNAPSHOT_VERSION`` must be bumped and this
fixture regenerated (see the module docstring of :mod:`repro.service.snapshot`).
"""

import json
from pathlib import Path

import pytest

from tests.snapshot_harness import SEU, resume_to_end

from repro.model import ConfigurationError
from repro.model.task import TASK_ROW
from repro.service.snapshot import SNAPSHOT_VERSION, Snapshot, SnapshotError
from repro.sim import SimulationError
from repro.trace.bus import read_jsonl

GOLDEN = Path(__file__).parent / "golden" / "snapshot_n20_t200_s42"


def test_golden_snapshot_restores_to_expected_digest():
    expected = json.loads((GOLDEN / "expected.json").read_text())
    snap = Snapshot.read(GOLDEN / "snapshot.json")
    assert snap.version == SNAPSHOT_VERSION
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    assert len(prefix) == expected["cut_trace_events"] == snap.trace_seq
    for backend in ("array", "scan"):
        digest, _report = resume_to_end(snap, prefix, SEU, backend)
        assert digest == expected["expected_final_digest"], (
            f"golden restore on {backend} no longer reproduces the recorded "
            "run — the snapshot format drifted without a SNAPSHOT_VERSION bump"
        )


def test_golden_snapshot_key_matches_prefix_digest():
    """The snapshot key is the digest prefix of the trace it was cut from."""
    snap = Snapshot.read(GOLDEN / "snapshot.json")
    assert snap.trace_digest is not None
    assert snap.key == snap.trace_digest[:12]


def test_golden_rejected_under_bumped_version():
    """A build with a newer SNAPSHOT_VERSION refuses yesterday's file."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    data["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError) as excinfo:
        Snapshot.from_json(json.dumps(data))
    message = str(excinfo.value)
    assert str(SNAPSHOT_VERSION + 1) in message
    assert str(SNAPSHOT_VERSION) in message
    assert "re-create" in message


def test_legacy_indexed_provenance_still_loads(tmp_path):
    """Snapshots cut by builds that still had the ``indexed`` backend carry
    ``"backend": "indexed"``.  The field is provenance only and restore is
    backend-neutral, so such a file loads and resumes onto either backend."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    data["backend"] = "indexed"
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(data))
    snap = Snapshot.read(path)
    assert snap.backend == "indexed"
    expected = json.loads((GOLDEN / "expected.json").read_text())
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    for backend in ("array", "scan"):
        digest, _report = resume_to_end(snap, prefix, SEU, backend)
        assert digest == expected["expected_final_digest"], backend


def _resume_mutated_env(mutate):
    """Apply ``mutate`` to the golden snapshot's kernel state, then resume."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    mutate(data["sim"]["env"])
    snap = Snapshot.from_json(json.dumps(data))
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    return resume_to_end(snap, prefix, SEU, "array")


@pytest.mark.parametrize("field", ["now", "seq", "event_count"])
def test_golden_non_int_kernel_counter_rejected(field):
    def mutate(env):
        env[field] = env[field] + 0.5

    with pytest.raises(SimulationError, match=field):
        _resume_mutated_env(mutate)


@pytest.mark.parametrize("column", [0, 2], ids=["when", "seq"])
def test_golden_non_int_pending_record_rejected(column):
    def mutate(env):
        env["pending"][5][column] = float(env["pending"][5][column])

    with pytest.raises(SimulationError, match="non-int"):
        _resume_mutated_env(mutate)


def test_golden_pending_priority_other_than_one_rejected():
    def mutate(env):
        env["pending"][5][1] = 0

    with pytest.raises(SimulationError, match="priority"):
        _resume_mutated_env(mutate)


def test_golden_pending_record_before_now_rejected():
    def mutate(env):
        env["pending"][0][0] = env["now"] - 1

    with pytest.raises(SimulationError, match="earlier than now"):
        _resume_mutated_env(mutate)


def _unknown_config(rim):
    rim["nodes"][0]["entries"][0][0] = 9999


def _idle_chain_unknown_config(rim):
    rim["idle"][0][0] = 9999


def _busy_chain_unknown_config(rim):
    rim["busy"][0][0] = 9999


def _blank_node_out_of_range(rim):
    rim["blank"][0][0] = len(rim["nodes"])


def _idle_node_out_of_range(rim):
    rim["idle"][0][1][0][0] = len(rim["nodes"])


def _busy_node_negative(rim):
    rim["busy"][0][1][0][0] = -1


def _busy_entry_out_of_range(rim):
    rim["busy"][0][1][0][1] = 99


def _unknown_quarantined_node(rim):
    rim["quarantined"].append([12345, 0])


@pytest.mark.parametrize("backend", ["array", "scan"])
@pytest.mark.parametrize(
    "tamper",
    [
        _unknown_config,
        _idle_chain_unknown_config,
        _busy_chain_unknown_config,
        _blank_node_out_of_range,
        _idle_node_out_of_range,
        _busy_node_negative,
        _busy_entry_out_of_range,
        _unknown_quarantined_node,
    ],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_golden_tampered_manager_state_rejected(backend, tamper):
    """A manager record naming no configuration, region or node is a typed
    ConfigurationError on either backend, not a stray KeyError/IndexError."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    tamper(data["sim"]["rim"])
    snap = Snapshot.from_json(json.dumps(data))
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    with pytest.raises(ConfigurationError, match="snapshot"):
        resume_to_end(snap, prefix, SEU, backend)


def _queue_unknown_task(sim):
    sim["susqueue"]["items"][0][0] = 99999


def _queue_duplicate_record(sim):
    items = sim["susqueue"]["items"]
    items.append(list(items[0]))


def _queue_task_not_suspended(sim):
    number, status = TASK_ROW.index("no"), TASK_ROW.index("status")
    running = next(row[number] for row in sim["tasks"] if row[status] == "RUNNING")
    sim["susqueue"]["items"][0][0] = running


def _queue_float_seq(sim):
    sim["susqueue"]["items"][0][1] += 0.0


def _queue_repeated_seq(sim):
    items = sim["susqueue"]["items"]
    items[1][1] = items[0][1]


def _queue_seq_zero(sim):
    sim["susqueue"]["items"][0][1] = 0


def _queue_seq_past_counter(sim):
    sim["susqueue"]["items"][-1][1] = sim["susqueue"]["seq"] + 1


def _queue_v3_record(sim):
    # The v3 record carried the suspension tick between task and seq.
    items = sim["susqueue"]["items"]
    items[0] = [items[0][0], 0, items[0][1]]


@pytest.mark.parametrize("backend", ["array", "scan"])
@pytest.mark.parametrize(
    "tamper",
    [
        _queue_unknown_task,
        _queue_duplicate_record,
        _queue_task_not_suspended,
        _queue_float_seq,
        _queue_repeated_seq,
        _queue_seq_zero,
        _queue_seq_past_counter,
        _queue_v3_record,
    ],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_golden_tampered_queue_state_rejected(backend, tamper):
    """A suspension-queue record of the wrong arity, naming an unknown,
    non-suspended or repeated task, or carrying a bad sequence number, is a typed
    ConfigurationError on either backend — not a KeyError, and not a
    resumed run that crashes later on an illegal task transition."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    tamper(data["sim"])
    snap = Snapshot.from_json(json.dumps(data))
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    with pytest.raises(ConfigurationError, match="snapshot"):
        resume_to_end(snap, prefix, SEU, backend)


def _open_failure_names_closed_span(injector):
    injector["open_fail"] = [[3, 0]]  # span 0 was repaired before the cut


def _open_quarantine_past_the_log(injector):
    injector["open_quar"] = [[3, len(injector["log"]["quarantines"])]]


def _v4_fault_log(injector):
    # v4 kept every interrupt and retry as a record instead of tallies.
    log = injector["log"]
    del log["interrupts_by_class"], log["retries_total"], log["backoff_delay_total"]
    log["interrupts"], log["retries"] = [[0, "seu"]], [[0, 8]]


@pytest.mark.parametrize(
    "tamper",
    [_open_failure_names_closed_span, _open_quarantine_past_the_log, _v4_fault_log],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_golden_tampered_injector_state_rejected(tamper):
    """An open span that names no open record of the fault log, or a log in
    the v4 shape, is a typed ConfigurationError, not an IndexError later."""
    data = json.loads((GOLDEN / "snapshot.json").read_text())
    tamper(data["injector"])
    snap = Snapshot.from_json(json.dumps(data))
    prefix = read_jsonl(GOLDEN / "prefix.jsonl")
    with pytest.raises(ConfigurationError, match="snapshot"):
        resume_to_end(snap, prefix, SEU, "array")


@pytest.mark.parametrize(
    "text",
    ["[]", "3", '"snapshot"', "null", json.dumps({"version": SNAPSHOT_VERSION})],
    ids=["list", "number", "string", "null", "version-only"],
)
def test_snapshot_json_of_the_wrong_shape_rejected(text):
    with pytest.raises(SnapshotError):
        Snapshot.from_json(text)
