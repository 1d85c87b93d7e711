"""Unit tests for the Environment event loop (repro.sim.environment)."""

import random

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


def noop():
    pass


class TestClock:
    def test_initial_time(self):
        now = Environment().now
        assert now == 0
        assert type(now) is int

    def test_clock_jumps_to_event_times(self, env):
        times = []
        for t in (2, 9):
            env.call_at(t, lambda: times.append(env.now))
        env.run()
        assert times == [2, 9]

    def test_run_until_leaves_int_clock(self, env):
        env.run(until=10)
        assert env.now == 10
        assert type(env.now) is int


class TestRun:
    def test_run_until_time_sets_clock(self, env):
        env.call_at(100, noop)
        env.run(until=50)
        assert env.now == 50
        assert env.pending_count == 1  # event still queued
        env.run()
        assert env.now == 100

    def test_run_until_fires_events_at_the_boundary(self, env):
        fired = []
        env.call_at(50, lambda: fired.append(env.now))
        env.run(until=50)
        assert fired == [50]

    @pytest.mark.parametrize("until", [10.0, 7.5, False])
    def test_run_rejects_non_int_until(self, env, until):
        with pytest.raises(TypeError):
            env.run(until=until)

    def test_run_until_past_raises(self, env):
        env.call_at(5, noop)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_events_processed_counter(self, env):
        for t in range(5):
            env.call_at(t, noop)
        env.run()
        assert env.events_processed == 5
        assert env.schedule_seq == 5


class TestCallAt:
    def test_call_at_executes_at_time(self, env):
        seen = []
        env.call_at(12, lambda: seen.append(env.now))
        env.run()
        assert seen == [12]

    def test_call_at_past_raises(self, env):
        env.call_at(5, noop)
        env.run()
        with pytest.raises(ValueError):
            env.call_at(2, noop)

    def test_call_at_now_is_allowed(self, env):
        seen = []
        env.call_at(0, lambda: seen.append(True))
        env.run()
        assert seen == [True]


class TestDeterminism:
    def _run_program(self):
        env = Environment()
        fired = []
        rnd = random.Random(99)
        for i in range(200):
            env.call_at(rnd.randint(0, 50), lambda i=i: fired.append((env.now, i)))
        env.run()
        return fired

    def test_identical_programs_replay_identically(self):
        assert self._run_program() == self._run_program()

    def test_fire_times_nondecreasing(self):
        fired = self._run_program()
        assert fired == sorted(fired)  # by time, then by insertion order


class TestSnapshot:
    def test_export_restore_round_trip_keeps_order(self, env):
        fired = []
        for t, name in ((4, "b"), (1, "a"), (4, "c")):
            env.call_at(t, lambda n=name: fired.append(n), tag=(name,))
        env.step()
        records = env.export_pending()
        assert records == [(4, 1, 1, ("b",)), (4, 1, 3, ("c",))]
        fresh = Environment()
        fresh.restore_pending(
            records,
            lambda tag: lambda: fired.append(tag[0]),
            now=env.now,
            seq=env.schedule_seq,
            event_count=env.events_processed,
        )
        fresh.run()
        assert fired == ["a", "b", "c"]
        assert (fresh.now, fresh.events_processed) == (4, 3)

    def test_untagged_event_is_not_exportable(self, env):
        env.call_at(3, noop)
        with pytest.raises(SimulationError):
            env.export_pending()
