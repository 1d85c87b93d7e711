"""Substrate micro-benchmarks: DES kernel throughput and RNG rates.

Not a paper figure — these guard the two from-scratch substrates everything
else sits on, so a performance regression in the event heap or the ziggurat
shows up here rather than as a mysteriously slow figure sweep.
"""

from repro.rng import RNG
from repro.sim import Environment


def test_bench_event_throughput(benchmark):
    """Schedule-and-fire cycles per second on the event heap."""

    def noop():
        pass

    def run():
        env = Environment()
        for i in range(5000):
            env.call_at(i % 97, noop)
        env.run()
        return env.events_processed

    assert benchmark(run) == 5000


def test_bench_rng_uniform(benchmark):
    rng = RNG(seed=1)

    def run():
        return sum(rng.rand_int32() for _ in range(10000))

    assert benchmark(run) > 0


def test_bench_rng_normal_ziggurat(benchmark):
    rng = RNG(seed=2)

    def run():
        return sum(rng.normal() for _ in range(10000))

    benchmark(run)


def test_bench_rng_gamma(benchmark):
    rng = RNG(seed=3)

    def run():
        return sum(rng.gamma(4.0) for _ in range(5000))

    assert benchmark(run) > 0


def test_bench_rng_poisson_large_mean(benchmark):
    """Exercises the gamma-splitting recursion."""
    rng = RNG(seed=4)

    def run():
        return sum(rng.poisson(500.0) for _ in range(500))

    assert benchmark(run) > 0


def test_bench_scheduler_single_decision(benchmark):
    """One four-phase scheduling decision on a half-loaded 200-node system."""
    from repro.core import DreamScheduler
    from repro.model import Configuration, Node, Task
    from repro.resources import ResourceInformationManager

    nodes = [Node(node_no=i, total_area=3000) for i in range(200)]
    configs = [
        Configuration(config_no=i, req_area=300 + 30 * i, config_time=10)
        for i in range(50)
    ]
    rim = ResourceInformationManager(nodes, configs)
    sched = DreamScheduler(rim, partial=True)
    for i in range(100):
        rim.configure_node(nodes[i], configs[i % 50])

    counter = [1000]

    def decide():
        counter[0] += 1
        t = Task(task_no=counter[0], required_time=100, pref_config=configs[7])
        t.mark_created(0)
        out = sched.schedule(t, 0)
        # immediately release to keep the system in steady state
        if out.placement is not None:
            t.mark_completed(100)
            rim.complete_task(t, out.placement.node)
        return out

    benchmark(decide)
