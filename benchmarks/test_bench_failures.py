"""Bench — failure injection (fail-restart on node crashes, extension).

Sweeps the failure rate and measures the cost of fail-restart: interrupted
work is redone, so completion times stretch as MTBF falls, until the
livelock threshold (per-node MTBF ≈ service time) where long tasks stop
finishing at all.
"""

import pytest

from repro.framework import DReAMSim
from repro.framework.failures import FailureInjector
from repro.rng import RNG
from repro.rng.distributions import Constant, UniformInt
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

SEED = 662607
TASKS = 200


def run_with_mtbf(mtbf_range):
    rng = RNG(seed=SEED)
    nodes = generate_nodes(NodeSpec(count=15), rng)
    configs = generate_configs(ConfigSpec(count=8), rng)
    stream = generate_task_stream(
        TaskSpec(count=TASKS, required_time=UniformInt(500, 5000)), configs, rng
    )
    sim = DReAMSim(nodes, configs, stream, partial=True)
    injector = None
    if mtbf_range is not None:
        injector = FailureInjector(
            sim,
            mtbf=UniformInt(*mtbf_range),
            mttr=Constant(1000),
            rng=RNG(seed=SEED + 1),
        ).arm()
    return sim.run(), injector


def resilience(run):
    """The resilience report of one ``run_with_mtbf`` result (None: no faults)."""
    result, injector = run
    return injector.resilience(result) if injector else None


@pytest.fixture(scope="module")
def runs():
    return {
        "none": run_with_mtbf(None),
        "rare": run_with_mtbf((20_000, 40_000)),
        "frequent": run_with_mtbf((3_000, 6_000)),
    }


def test_bench_no_failures(benchmark):
    benchmark(lambda: run_with_mtbf(None)[0].report)


def test_bench_frequent_failures(benchmark):
    benchmark(lambda: run_with_mtbf((3_000, 6_000))[0].report)


def test_all_workloads_terminate(runs):
    for name, (result, _) in runs.items():
        rep = result.report
        assert rep.total_completed_tasks + rep.total_discarded_tasks == TASKS, name


def test_failure_rate_ordering(runs):
    assert resilience(runs["frequent"]).failures_total > resilience(runs["rare"]).failures_total


def test_failures_stretch_completion(runs):
    base = runs["none"][0].report.avg_running_time_per_task
    stormy = runs["frequent"][0].report.avg_running_time_per_task
    assert stormy > base


def test_availability_ordering(runs):
    assert resilience(runs["rare"]).availability > resilience(runs["frequent"]).availability
    assert resilience(runs["frequent"]).availability > 0.5


def test_rows(runs):
    print(f"\n{'regime':<10} {'failures':>9} {'interrupted':>12} "
          f"{'avail':>7} {'avg run time':>13}")
    for name, run in runs.items():
        res = resilience(run)
        fails = res.failures_total if res else 0
        intr = res.interrupts_total if res else 0
        avail = f"{res.availability:.3f}" if res else "1.000"
        print(
            f"{name:<10} {fails:>9} {intr:>12} {avail:>7} "
            f"{run[0].report.avg_running_time_per_task:>13,.0f}"
        )
