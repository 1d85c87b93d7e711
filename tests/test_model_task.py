"""Unit tests for Task lifecycle and Eq. 8 timing semantics."""

import pytest

from repro.model import Configuration, Task, TaskStateError, TaskStatus


def cfg(no=0, area=500):
    return Configuration(config_no=no, req_area=area, config_time=10)


class TestConstruction:
    def test_valid(self):
        t = Task(task_no=1, required_time=500, pref_config=cfg())
        assert t.status is TaskStatus.CREATED
        assert t.needed_area == 500

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Task(task_no=-1, required_time=10, pref_config=cfg())
        with pytest.raises(ValueError):
            Task(task_no=0, required_time=0, pref_config=cfg())


class TestLifecycle:
    def test_normal_flow(self):
        c = cfg()
        t = Task(task_no=0, required_time=100, pref_config=c)
        t.mark_created(10)
        assert t.status is TaskStatus.CREATED
        t.mark_started(25, c, comm_time=2, config_time_paid=12)
        assert t.status is TaskStatus.RUNNING
        t.mark_completed(139)
        assert t.status is TaskStatus.COMPLETED
        assert (t.create_time, t.start_time, t.completion_time) == (10, 25, 139)

    def test_suspension_flow(self):
        c = cfg()
        t = Task(task_no=0, required_time=100, pref_config=c)
        t.mark_created(0)
        t.mark_suspended(5)
        assert t.status is TaskStatus.SUSPENDED
        t.mark_suspended(9)  # re-suspension after failed retry is legal
        t.mark_started(12, c)
        assert t.status is TaskStatus.RUNNING

    def test_discard_from_created_and_suspended(self):
        c = cfg()
        t1 = Task(task_no=0, required_time=10, pref_config=c)
        t1.mark_created(0)
        t1.mark_discarded(0)
        assert t1.status is TaskStatus.DISCARDED

        t2 = Task(task_no=1, required_time=10, pref_config=c)
        t2.mark_created(0)
        t2.mark_suspended(1)
        t2.mark_discarded(2)
        assert t2.status is TaskStatus.DISCARDED
        assert t2.completion_time == 2  # the terminal tick

    def test_illegal_transitions(self):
        c = cfg()
        t = Task(task_no=0, required_time=10, pref_config=c)
        with pytest.raises(TaskStateError):
            t.mark_completed(0)  # cannot complete before running
        t.mark_created(0)
        t.mark_started(1, c)
        t.mark_completed(11)
        with pytest.raises(TaskStateError):
            t.mark_started(12, c)  # completed is terminal
        with pytest.raises(TaskStateError):
            t.mark_discarded(12)

    def test_failure_interruption_running_to_suspended(self):
        """RUNNING -> SUSPENDED models node-failure interruption; the task
        can then restart (fail-restart semantics)."""
        c = cfg()
        t = Task(task_no=0, required_time=10, pref_config=c)
        t.mark_created(0)
        t.mark_started(1, c)
        t.mark_suspended(5)  # node failed
        t.mark_started(8, c)  # restarted elsewhere
        t.mark_completed(18)
        assert t.start_time == 8

    def test_double_create_rejected(self):
        t = Task(task_no=0, required_time=10, pref_config=cfg())
        t.mark_created(0)
        with pytest.raises(TaskStateError):
            t.mark_created(1)


class TestTiming:
    def test_eq8_waiting_time(self):
        # t_wait = t_start - t_create + t_comm + t_config
        c = cfg()
        t = Task(task_no=0, required_time=100, pref_config=c)
        t.mark_created(100)
        t.mark_started(150, c, comm_time=3, config_time_paid=15)
        assert t.waiting_time == 50 + 3 + 15

    def test_running_time_is_arrival_to_completion(self):
        c = cfg()
        t = Task(task_no=0, required_time=100, pref_config=c)
        t.mark_created(10)
        t.mark_started(40, c)
        t.mark_completed(140)
        assert t.running_time == 130

    def test_waiting_time_before_start_raises(self):
        t = Task(task_no=0, required_time=10, pref_config=cfg())
        with pytest.raises(TaskStateError):
            _ = t.waiting_time
        t.mark_created(0)
        with pytest.raises(TaskStateError):
            _ = t.waiting_time

    def test_running_time_before_completion_raises(self):
        c = cfg()
        t = Task(task_no=0, required_time=10, pref_config=c)
        t.mark_created(0)
        t.mark_started(1, c)
        with pytest.raises(TaskStateError):
            _ = t.running_time
        # A discard records its tick in completion_time; it is no completion.
        t.mark_discarded(4)
        assert t.completion_time == 4
        with pytest.raises(TaskStateError):
            _ = t.running_time


class TestClosestMatchFlag:
    def test_exact_assignment_not_flagged(self):
        c = cfg()
        t = Task(task_no=0, required_time=10, pref_config=c)
        t.mark_created(0)
        t.mark_started(1, c)
        assert not t.used_closest_match

    def test_different_assignment_flagged(self):
        c_pref, c_other = cfg(0), cfg(1, area=600)
        t = Task(task_no=0, required_time=10, pref_config=c_pref)
        t.mark_created(0)
        t.mark_started(1, c_other)
        assert t.used_closest_match
