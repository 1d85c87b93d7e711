"""Tests for failure injection: node crashes, repairs, fail-restart tasks."""

import pytest

from repro.framework import DReAMSim
from repro.framework.failures import FailureInjector
from repro.model import Configuration, Node, Task, TaskStatus
from repro.resources import ResourceInformationManager, check_invariants
from repro.rng import RNG
from repro.rng.distributions import Constant, UniformInt
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)


def cfg(no=0, area=400):
    return Configuration(config_no=no, req_area=area, config_time=10)


class TestManagerFailOps:
    def _loaded_system(self):
        nodes = [Node(node_no=i, total_area=2000) for i in range(3)]
        configs = [cfg(0), cfg(1, 600)]
        rim = ResourceInformationManager(nodes, configs)
        entry = rim.configure_node(nodes[0], configs[0])
        rim.configure_node(nodes[0], configs[1])
        t = Task(task_no=0, required_time=100, pref_config=configs[0])
        t.mark_created(0)
        t.mark_started(0, configs[0])
        rim.assign_task(t, nodes[0], entry)
        return rim, nodes, t

    def test_fail_node_interrupts_and_blanks(self):
        rim, nodes, task = self._loaded_system()
        interrupted = rim.fail_node(nodes[0])
        assert interrupted == [task]
        assert not nodes[0].in_service
        assert nodes[0].is_blank
        check_invariants(rim)

    def test_failed_node_not_in_any_chain(self):
        rim, nodes, _ = self._loaded_system()
        rim.fail_node(nodes[0])
        assert nodes[0] not in rim.blank_chain
        assert len(rim.idle_chain(rim.configs[0])) == 0
        assert len(rim.busy_chain(rim.configs[0])) == 0

    def test_failed_node_invisible_to_queries(self):
        rim, nodes, _ = self._loaded_system()
        # Fail all three nodes' peer: make nodes 1,2 fail so only node 0 ...
        rim.fail_node(nodes[1])
        rim.fail_node(nodes[2])
        # blank search must not offer failed nodes
        assert rim.find_best_blank_node(rim.configs[0]) is None or (
            rim.find_best_blank_node(rim.configs[0]).in_service
        )
        found, _ = rim.find_any_idle_node(rim.configs[0])
        assert found is None or found.in_service

    def test_double_fail_rejected(self):
        rim, nodes, _ = self._loaded_system()
        rim.fail_node(nodes[0])
        with pytest.raises(Exception):
            rim.fail_node(nodes[0])

    def test_repair_returns_to_blank_chain(self):
        rim, nodes, _ = self._loaded_system()
        rim.fail_node(nodes[0])
        rim.repair_node(nodes[0])
        assert nodes[0].in_service
        assert nodes[0] in rim.blank_chain
        check_invariants(rim)

    def test_repair_of_healthy_node_rejected(self):
        rim, nodes, _ = self._loaded_system()
        with pytest.raises(Exception):
            rim.repair_node(nodes[0])


def run_with_failures(mtbf, mttr=Constant(500), tasks=150, seed=23, **inj_kwargs):
    rng = RNG(seed=seed)
    nodes = generate_nodes(NodeSpec(count=10), rng)
    configs = generate_configs(ConfigSpec(count=6), rng)
    stream = generate_task_stream(TaskSpec(count=tasks), configs, rng)
    sim = DReAMSim(nodes, configs, stream, partial=True)
    injector = FailureInjector(
        sim, mtbf=mtbf, mttr=mttr, rng=RNG(seed=seed + 1), **inj_kwargs
    )
    injector.arm()
    result = sim.run()
    return result, injector


class TestFailureInjection:
    def test_all_tasks_still_terminate(self):
        result, injector = run_with_failures(mtbf=UniformInt(2000, 6000))
        assert injector.resilience(result).failures_total > 0
        rep = result.report
        assert rep.total_completed_tasks + rep.total_discarded_tasks == 150
        for t in result.tasks:
            assert t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED)

    def test_interrupted_tasks_are_restarted_not_lost(self):
        result, injector = run_with_failures(mtbf=UniformInt(1000, 3000))
        assert injector.resilience(result).interrupts_total > 0
        # fail-restart: interrupted tasks still complete (unless discarded
        # for capacity reasons, which this workload does not trigger en masse)
        assert result.report.total_completed_tasks >= 150 * 0.9

    def test_end_state_invariants_hold(self):
        result, _ = run_with_failures(mtbf=UniformInt(1500, 4000))
        check_invariants(result.load.rim)

    def test_failures_extend_makespan(self):
        # Storm regime is chosen above the livelock threshold: per-node MTBF
        # (system MTBF × node count) must exceed typical service times or
        # fail-restart tasks can never finish (a real phenomenon this model
        # reproduces; see test_livelock_regime_documented).
        calm, _ = run_with_failures(mtbf=UniformInt(10**8, 2 * 10**8))
        stormy, inj = run_with_failures(
            mtbf=UniformInt(8000, 16000), mttr=Constant(3000)
        )
        assert inj.resilience(stormy).failures_total > 0
        assert (
            stormy.report.total_simulation_time
            >= calm.report.total_simulation_time
        )

    def test_livelock_regime_documented(self):
        """Under MTBF ≪ service time, fail-restart cannot finish long tasks —
        run bounded by time and verify the workload indeed did not drain."""
        rng = RNG(seed=5)
        nodes = generate_nodes(NodeSpec(count=6), rng)
        configs = generate_configs(ConfigSpec(count=4), rng)
        stream = generate_task_stream(
            TaskSpec(count=30, required_time=UniformInt(50_000, 100_000)),
            configs,
            rng,
        )
        sim = DReAMSim(nodes, configs, stream, partial=True)
        FailureInjector(
            sim, mtbf=Constant(500), mttr=Constant(200), rng=RNG(seed=6)
        ).arm()
        result = sim.run(until=400_000)  # bounded horizon
        done = sum(1 for t in result.tasks if t.status is TaskStatus.COMPLETED)
        assert done < 30  # the storm prevents full completion

    def test_max_failures_bound(self):
        result, injector = run_with_failures(
            mtbf=UniformInt(500, 1500), max_failures=3
        )
        assert injector.resilience(result).failures_total <= 3

    def test_availability_between_zero_and_one(self):
        result, injector = run_with_failures(mtbf=UniformInt(1000, 3000))
        assert 0.0 < injector.resilience(result).availability <= 1.0

    def test_double_arm_rejected(self):
        rng = RNG(seed=1)
        nodes = generate_nodes(NodeSpec(count=4), rng)
        configs = generate_configs(ConfigSpec(count=3), rng)
        stream = generate_task_stream(TaskSpec(count=10), configs, rng)
        sim = DReAMSim(nodes, configs, stream)
        inj = FailureInjector(
            sim, mtbf=Constant(100), mttr=Constant(10), rng=RNG(2)
        ).arm()
        with pytest.raises(RuntimeError):
            inj.arm()

    def test_events_recorded(self):
        _, injector = run_with_failures(mtbf=UniformInt(1000, 2500))
        assert injector.log.failures
        for start, cls, end in injector.log.failures:
            assert cls == "crash"
            assert end == -1 or end > start  # open at the end, or repaired later

    def test_max_failures_exact_cutoff(self):
        """A fault storm must stop at exactly max_failures, not merely near it."""
        result, injector = run_with_failures(
            mtbf=Constant(200), mttr=Constant(50), max_failures=3
        )
        assert injector.resilience(result).failures_total == 3

    def test_last_node_never_failed(self):
        """The last in-service node is protected, or the workload could never drain."""
        rng = RNG(seed=3)
        nodes = generate_nodes(NodeSpec(count=1), rng)
        configs = generate_configs(ConfigSpec(count=3), rng)
        stream = generate_task_stream(TaskSpec(count=20), configs, rng)
        sim = DReAMSim(nodes, configs, stream)
        inj = FailureInjector(
            sim, mtbf=Constant(50), mttr=Constant(10), rng=RNG(seed=4)
        ).arm()
        result = sim.run()
        assert inj.resilience(result).failures_total == 0
        assert nodes[0].in_service
        for t in result.tasks:
            assert t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED)


class TestCrashOnCompletionTick:
    """A crash landing exactly on a task's completion tick must not corrupt
    state in either event order (the stale-placement race)."""

    def _one_task_sim(self):
        configs = [Configuration(config_no=0, req_area=400, config_time=10)]
        nodes = [Node(node_no=0, total_area=1000), Node(node_no=1, total_area=1000)]
        task = Task(task_no=0, required_time=100, pref_config=configs[0])
        sim = DReAMSim(nodes, configs, [TaskArrival(at=0, task=task)], partial=True)
        inj = FailureInjector(sim, mttr=Constant(50), rng=RNG(seed=1))
        return sim, inj, nodes, task

    def test_crash_before_completion_restarts_task(self):
        sim, inj, nodes, task = self._one_task_sim()
        # Placement: node 0 configured at t=0; finish = 0 + 10 + 100 = 110.
        # This callback is inserted before the run starts, so at the t=110
        # tie it fires BEFORE the completion event: the completion is stale.
        sim.env.call_at(110, lambda: inj._crash(nodes[0], int(sim.env.now)))
        result = sim.run()
        assert task.status is TaskStatus.COMPLETED
        assert inj.resilience(result).interrupts_total == 1
        # Restarted from scratch on node 1 at t=110: done at 110 + 10 + 100.
        assert task.completion_time == 220
        check_invariants(sim.rim)

    def test_crash_after_completion_same_tick_is_harmless(self):
        sim, inj, nodes, task = self._one_task_sim()
        # Nested call_at: the crash is inserted at t=50, AFTER the completion
        # event (inserted at t=0), so at the t=110 tie the completion wins.
        sim.env.call_at(
            50,
            lambda: sim.env.call_at(
                110, lambda: inj._crash(nodes[0], int(sim.env.now))
            ),
        )
        rep = inj.resilience(sim.run())
        assert task.status is TaskStatus.COMPLETED
        assert task.completion_time == 110
        assert rep.interrupts_total == 0  # entry was already idle
        assert rep.failures_total == 1
        check_invariants(sim.rim)
