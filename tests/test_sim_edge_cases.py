"""Additional DES-kernel edge cases: zero-delay storms and rejected
schedules."""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestZeroDelayStorm:
    def test_chained_zero_delays_preserve_order(self, env):
        seen = []

        def chain(depth):
            if depth:
                seen.append(depth)
                env.call_at(env.now, lambda: chain(depth - 1))

        env.call_at(0, lambda: chain(50))
        env.run()
        assert seen == list(range(50, 0, -1))
        assert env.now == 0

    def test_interleaved_zero_and_positive(self, env):
        order = []

        def first():
            order.append("zero")
            env.call_at(env.now + 1, lambda: order.append("one"))

        env.call_at(0, lambda: env.call_at(env.now, first))
        env.call_at(0, lambda: order.append("timeout0"))
        env.run()
        # ``first`` is scheduled from inside the first event, i.e. after
        # the second time-0 event was queued — so that one fires first.
        assert order == ["timeout0", "zero", "one"]


class TestEnvironmentMisc:
    def test_negative_schedule_delay_rejected(self, env):
        env.call_at(5, lambda: None)
        env.run()
        seq = env.schedule_seq
        with pytest.raises(ValueError):
            env.call_at(env.now - 1, lambda: None)
        assert env.schedule_seq == seq  # a rejected call consumes no sequence
        assert env.pending_count == 0
