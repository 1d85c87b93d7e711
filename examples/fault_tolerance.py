#!/usr/bin/env python
"""Fault tolerance: node failures during scheduling (fail-restart).

Large-scale systems lose nodes constantly.  This example sweeps the mean
time between failures on a fixed Table II-style workload and reports how the
scheduler absorbs the damage: interrupted tasks restart (losing progress),
repaired nodes return blank, and everything still completes — until the
failure rate approaches the livelock threshold.

Run:  python examples/fault_tolerance.py
"""

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

SEED = 404
TASKS = 300
REGIMES = {
    "no failures": None,
    "monthly   (mtbf ~30k)": (25_000, 35_000),
    "weekly    (mtbf ~8k)": (6_000, 10_000),
    "daily     (mtbf ~2k)": (1_500, 2_500),
}


def run(mtbf_range):
    rng = RNG(seed=SEED)
    nodes = generate_nodes(NodeSpec(count=20), rng)
    configs = generate_configs(ConfigSpec(count=10), rng)
    stream = generate_task_stream(
        TaskSpec(count=TASKS, required_time=UniformInt(2_000, 15_000)), configs, rng
    )
    sim = DReAMSim(nodes, configs, stream, partial=True)
    injector = None
    if mtbf_range is not None:
        injector = FailureInjector(
            sim, mtbf=UniformInt(*mtbf_range), mttr=Constant(1500),
            rng=RNG(seed=SEED + 1),
        ).arm()
    return sim.run(), injector


def main() -> None:
    print(f"failure sweep: 20 nodes, {TASKS} tasks, fail-restart semantics\n")
    print(
        f"{'regime':<24} {'fails':>6} {'interrupted':>12} {'avail':>7} "
        f"{'completed':>10} {'avg run':>9}"
    )
    print("-" * 75)
    for label, mtbf in REGIMES.items():
        result, injector = run(mtbf)
        rep = result.report
        res = injector.resilience(result) if injector else None
        fails = res.failures_total if res else 0
        intr = res.interrupts_total if res else 0
        avail = res.availability if res else 1.0
        print(
            f"{label:<24} {fails:>6} {intr:>12} {avail:>7.3f} "
            f"{rep.total_completed_tasks:>10} "
            f"{rep.avg_running_time_per_task:>9,.0f}"
        )
    print(
        "\nInterrupted tasks lose their progress and re-enter scheduling;"
        "\nthe per-task running time stretches as failures become frequent,"
        "\nbut the suspension-queue machinery keeps the workload draining."
    )


if __name__ == "__main__":
    main()
