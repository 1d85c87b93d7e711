"""Unit tests for the DES kernel's event type (repro.sim.core)."""

import pytest

from repro.sim import Environment, Event


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_new_event_is_pending(self, env):
        fired = []
        ev = env.call_at(3, lambda: fired.append(True), tag=("probe",))
        assert isinstance(ev, Event)
        assert ev.tag == ("probe",)
        assert env.pending_count == 1
        assert fired == []  # nothing fires before the clock reaches it
        env.run()
        assert fired == [True]
        assert env.pending_count == 0

    def test_failed_event_crashes_run_if_not_defused(self, env):
        def boom():
            raise ValueError("boom")

        env.call_at(2, boom)
        env.call_at(5, lambda: None)
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env.now == 2
        assert env.pending_count == 1  # the later event was not consumed


class TestTimeout:
    def test_fires_after_delay(self, env):
        seen = []
        env.call_at(10, lambda: seen.append("done"))
        env.run()
        assert env.now == 10
        assert seen == ["done"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_at(-1, lambda: None)

    def test_zero_delay_fires_now(self, env):
        seen = []
        env.call_at(env.now, lambda: seen.append(env.now))
        env.run()
        assert env.now == 0
        assert seen == [0]

    def test_timeouts_fire_in_time_order(self, env):
        fired = []
        for t in (5, 1, 3):
            env.call_at(t, lambda t=t: fired.append(t))
        env.run()
        assert fired == [1, 3, 5]

    def test_equal_time_fires_in_creation_order(self, env):
        fired = []
        for tag in "abc":
            env.call_at(7, lambda tag=tag: fired.append(tag))
        env.run()
        assert fired == ["a", "b", "c"]
