"""Timetick semantics of the event kernel.

The paper's simulator advances tick-by-tick (Eq. 5); the reproduction's
kernel jumps from event to event.  Driving it one tick at a time with
``run(until=t)`` must visit identical state transitions at identical ticks —
the property the windowed service mode relies on.
"""

import random

import pytest

from repro.sim import Environment


def make_program(env, seed=7, n=100):
    """Schedule a reproducible batch of calls with zero-delay follow-ups."""
    rnd = random.Random(seed)
    fired = []

    def fire(i):
        fired.append((env.now, i))
        if i % 7 == 0:
            env.call_at(env.now, lambda: fired.append((env.now, ("chain", i))))

    for i in range(n):
        env.call_at(rnd.randint(0, 60), lambda i=i: fire(i))
    return fired


def run_tick_by_tick(env):
    """Advance one tick per window until the queue drains."""
    tick = env.now
    while env.pending_count:
        tick += 1
        env.run(until=tick, idle_advance=False)


class TestTickDriver:
    def test_tick_advances_one_unit(self):
        env = Environment()
        env.call_at(3, lambda: None)
        env.run(until=1)
        assert env.now == 1
        env.run(until=2)
        assert env.now == 2
        assert env.pending_count == 1

    def test_events_fire_on_their_tick(self):
        env = Environment()
        fired = []
        env.call_at(4, lambda: fired.append(env.now))
        for tick in range(1, 11):
            env.run(until=tick)
            assert env.now == tick
        assert fired == [4]

    def test_run_until_idle_stops_at_last_event(self):
        env = Environment()
        env.call_at(5, lambda: None)
        env.run(until=20, idle_advance=False)
        assert env.now == 5

    def test_non_integer_event_rejected(self):
        env = Environment()
        for when in (1.5, 2.0, True, None):
            with pytest.raises(TypeError):
                env.call_at(when, lambda: None)
        assert env.pending_count == 0
        assert env.schedule_seq == 0


class TestEquivalence:
    def test_fire_sequences_identical(self):
        env_e = Environment()
        fired_e = make_program(env_e, seed=11)
        env_e.run()

        env_t = Environment()
        fired_t = make_program(env_t, seed=11)
        run_tick_by_tick(env_t)

        assert fired_e == fired_t
        assert env_e.events_processed == env_t.events_processed

    def test_final_clock_matches(self):
        env_e = Environment()
        make_program(env_e, seed=23)
        env_e.run()

        env_t = Environment()
        make_program(env_t, seed=23)
        run_tick_by_tick(env_t)

        assert env_e.now == env_t.now
