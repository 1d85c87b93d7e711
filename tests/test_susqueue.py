"""Unit tests for the suspension queue and its per-key index."""

import pytest

from repro.model import Configuration, Task
from repro.resources import SuspensionQueue
from repro.resources.counters import SearchCounters


def cfg(no=0, area=500):
    return Configuration(config_no=no, req_area=area, config_time=10)


def make_task(no, pref):
    t = Task(task_no=no, required_time=100, pref_config=pref)
    t.mark_created(0)
    return t


@pytest.fixture
def queue():
    # Key tasks by preferred config number (a stand-in for matched config).
    return SuspensionQueue(key_fn=lambda t: t.pref_config.config_no)


class TestAddRemove:
    def test_fifo_order(self, queue):
        tasks = [make_task(i, cfg(i)) for i in range(4)]
        for t in tasks:
            assert queue.add(t, now=5)
        assert [queue.task_of(rec) for rec in queue] == tasks
        assert queue.task_of(queue.head) is tasks[0]
        queue.validate_index()

    def test_add_marks_suspended(self, queue):
        t = make_task(0, cfg())
        queue.add(t, now=7)
        assert t.status.value == "suspended"

    def test_max_length_enforced(self):
        q = SuspensionQueue(max_length=2)
        assert q.add(make_task(0, cfg()), 0)
        assert q.add(make_task(1, cfg()), 0)
        assert not q.add(make_task(2, cfg()), 0)
        assert len(q) == 2

    def test_add_returns_the_record_for_reuse(self, queue):
        """``add`` hands back the record's slot handle so callers (e.g. the
        failure injector's suspend/resume round-trip) can unlink it without
        a scan."""
        t = make_task(0, cfg())
        rec = queue.add(t, now=3)
        assert rec  # slot handles are truthy
        assert queue.task_of(rec) is t
        assert rec is queue.head
        assert queue.remove(rec) is t
        assert len(queue) == 0
        queue.validate_index()

    def test_remove_increments_retry(self, queue):
        t = make_task(0, cfg())
        queue.add(t, 0)
        rec = queue.head
        returned = queue.remove(rec)
        assert returned is t
        assert t.sus_retry == 1
        assert len(queue) == 0
        queue.validate_index()

    def test_total_suspended_lifetime_counter(self, queue):
        for i in range(3):
            queue.add(make_task(i, cfg()), 0)
        queue.remove(queue.head)
        assert queue.total_suspended == 3  # lifetime, not current


class TestIndex:
    def test_first_with_key_earliest_across_keys(self, queue):
        t_a1 = make_task(0, cfg(no=1))
        t_b = make_task(1, cfg(no=2))
        t_a2 = make_task(2, cfg(no=1))
        for t in (t_a1, t_b, t_a2):
            queue.add(t, 0)
        rec = queue.first_with_key({1, 2})
        assert queue.task_of(rec) is t_a1  # earliest overall
        rec2 = queue.first_with_key({2})
        assert queue.task_of(rec2) is t_b

    def test_first_with_key_missing(self, queue):
        queue.add(make_task(0, cfg(no=1)), 0)
        assert queue.first_with_key({9}) is None
        assert queue.first_with_key(set()) is None

    def test_index_consistent_after_interleaved_ops(self, queue):
        tasks = [make_task(i, cfg(no=i % 3)) for i in range(9)]
        for t in tasks:
            queue.add(t, 0)
        # remove a few from different buckets
        queue.remove(queue.first_with_key({0}))
        queue.remove(queue.first_with_key({2}))
        queue.validate_index()
        # re-add (re-suspension path)
        queue.add(tasks[0], 1)
        queue.validate_index()
        assert queue.task_of(queue.first_with_key({0})) is tasks[3]

    def test_charge_full_scan_bills_len(self, queue):
        counters = queue.counters
        for i in range(5):
            queue.add(make_task(i, cfg()), 0)
        before = counters.scheduling_steps
        charged = queue.charge_full_scan()
        assert charged == 5
        assert counters.scheduling_steps == before + 5


class TestSearchAndCollect:
    def test_search_stops_at_first_match(self, queue):
        for i in range(5):
            queue.add(make_task(i, cfg(no=i)), 0)
        before = queue.counters.housekeeping_steps
        rec = queue.search(lambda t: t.pref_config.config_no == 2)
        assert queue.task_of(rec).task_no == 2
        assert queue.counters.housekeeping_steps == before + 3  # stopped early


class TestRetryBoundsAndDrain:
    def test_expired_removes_over_budget_tasks(self):
        q = SuspensionQueue(max_retries=2)
        t = make_task(0, cfg())
        t.sus_retry = 2
        q.add(t, 0)
        fresh = make_task(1, cfg())
        q.add(fresh, 0)
        gone = q.expired()
        assert gone == [t]
        assert len(q) == 1
        q.validate_index()

    def test_expired_disabled_without_bound(self, queue):
        t = make_task(0, cfg())
        t.sus_retry = 100
        queue.add(t, 0)
        assert queue.expired() == []
