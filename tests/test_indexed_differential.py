"""Whole-run differential: indexed fast queries vs the reference scan manager.

The array backend (``backend="array"``) runs on the hot loop, which answers
every Alg. 1 best-fit query from sorted key indexes (see
:mod:`repro.resources.arraycore`) and keeps the exact load sums in O(1)
aggregates.  It must be observationally identical
to the reference linear-scan manager (``backend="scan"``) in everything
*simulated*: per-task placements and status, per-task search length ``SL``,
Table I counters, the report, the Figure 6–10 monitor series and the
beyond-paper load series (``cv``/``jain``, from the same exact sums on
both paths).  Only wall-clock time may differ.

Operation-level round trips and the campaign/trace differential live in
``tests/test_array_differential.py``.
"""

import pytest

from repro import quick_simulation
from repro.framework import DReAMSim
from repro.framework.failures import FailureInjector
from repro.resources import ArrayRIM, check_invariants
from repro.rng import RNG
from repro.rng.distributions import Constant, UniformInt
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

SEEDS = (1, 7, 42)


def task_fingerprint(result):
    """Everything the paper observes about one task, per task."""
    return [
        (
            t.task_no,
            t.status.value,
            t.scheduling_steps,  # per-task SL (Fig. 9a numerator)
            t.assigned_config.config_no if t.assigned_config else None,
            t.create_time,
            t.start_time,
            t.completion_time,
            t.comm_time,
            t.config_time_paid,
            t.sus_retry,
        )
        for t in result.tasks
    ]


def run_pair(nodes, tasks, partial, seed, **kwargs):
    indexed = quick_simulation(
        nodes=nodes, tasks=tasks, partial=partial, seed=seed, backend="array", **kwargs
    )
    scan = quick_simulation(
        nodes=nodes, tasks=tasks, partial=partial, seed=seed, backend="scan", **kwargs
    )
    return indexed, scan


def assert_equivalent(indexed, scan):
    """Bit-identical outputs, the beyond-paper load series included."""
    # Per-task placements, status, and SL.
    assert task_fingerprint(indexed) == task_fingerprint(scan)
    # Table I counters and everything derived from them.
    assert indexed.report.as_dict() == scan.report.as_dict()
    assert indexed.final_time == scan.final_time
    # Figure-series samples (busy nodes, queue length, wasted area, running).
    for name in ("busy_nodes", "queue_length", "wasted_area", "running_tasks"):
        si, ss = getattr(indexed.monitor, name), getattr(scan.monitor, name)
        assert si.times == ss.times, name
        assert si.values == ss.values, name
    # Load series.
    assert indexed.load.times == scan.load.times
    assert indexed.load.cv_col == scan.load.cv_col
    assert indexed.load.jain_col == scan.load.jain_col


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
@pytest.mark.parametrize("nodes", [100, 200])
def test_indexed_matches_scan(nodes, partial, seed):
    tasks = 1200 if nodes == 100 else 800
    indexed, scan = run_pair(nodes, tasks, partial, seed)
    assert type(indexed.load.rim) is ArrayRIM
    assert_equivalent(indexed, scan)
    check_invariants(indexed.load.rim)
    check_invariants(scan.load.rim)


def run_failure_campaign(backend, seed, partial=True, tasks=300, trace=None):
    """One traced fail/repair campaign; returns (result, injector)."""
    rng = RNG(seed=seed)
    nodes = generate_nodes(NodeSpec(count=20), rng)
    configs = generate_configs(ConfigSpec(count=10), rng)
    stream = generate_task_stream(TaskSpec(count=tasks), configs, rng)
    sim = DReAMSim(nodes, configs, stream, partial=partial, backend=backend, trace=trace)
    injector = FailureInjector(
        sim, mtbf=UniformInt(3000, 9000), mttr=Constant(800), rng=RNG(seed=seed + 1)
    )
    injector.arm()
    return sim.run(), injector


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_matches_scan_under_failures(seed):
    """Fail -> repair round trips during a run leave both managers identical."""
    indexed, inj_i = run_failure_campaign("array", seed)
    scan, inj_s = run_failure_campaign("scan", seed)
    assert inj_i.resilience(indexed) == inj_s.resilience(scan)
    assert inj_i.resilience(indexed).failures_total > 0  # the regime must exercise failures
    assert_equivalent(indexed, scan)
    check_invariants(indexed.load.rim)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
def test_failure_campaign_event_streams_identical_across_modes(seed, partial):
    """The *full structured event stream* of a failure campaign — every
    NodeFailed/NodeRepaired/TaskInterrupted/Placed/… event with its counter
    stamps — is byte-identical between the two managers, so the trace digest
    cannot tell them apart even under fail-restart churn."""
    from repro.trace import DigestSink, MemorySink, TraceBus

    streams = {}
    for backend in ("array", "scan"):
        mem, digest = MemorySink(), DigestSink()
        result, injector = run_failure_campaign(
            backend, seed, partial=partial, trace=TraceBus(mem, digest)
        )
        streams[backend] = (result, injector, mem, digest)
        check_invariants(result.load.rim)
    res_i, inj_i, mem_i, dig_i = streams["array"]
    res_s, inj_s, mem_s, dig_s = streams["scan"]
    assert inj_i.resilience(res_i).failures_total > 0
    assert dig_i.hexdigest() == dig_s.hexdigest()
    assert [e.canonical() for e in mem_i] == [e.canonical() for e in mem_s]
    assert_equivalent(res_i, res_s)
    # The failure events really are in the stream.
    kinds = {e.type for e in mem_i}
    assert "NodeFailed" in kinds and "NodeRepaired" in kinds
