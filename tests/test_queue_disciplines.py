"""Tests for suspension-queue service disciplines (FIFO / SJF / area)."""

import pytest

from repro import quick_simulation
from repro.model import Configuration, Task, TaskStatus
from repro.resources import SuspensionQueue


def cfg(no=0, area=500):
    return Configuration(config_no=no, req_area=area, config_time=10)


def make_task(no, t=100, area=500):
    task = Task(task_no=no, required_time=t, pref_config=cfg(no=no, area=area))
    task.mark_created(0)
    return task


class TestDisciplineOrdering:
    def test_fifo_preserves_arrival_order(self):
        q = SuspensionQueue(order="fifo")
        tasks = [make_task(i, t=100 - i) for i in range(5)]
        for t in tasks:
            q.add(t, 0)
        assert [q.task_of(r) for r in q] == tasks
        q.validate_index()

    def test_sjf_orders_by_required_time(self):
        q = SuspensionQueue(order="sjf")
        for no, t in ((0, 500), (1, 100), (2, 300)):
            q.add(make_task(no, t=t), 0)
        assert [q.task_of(r).required_time for r in q] == [100, 300, 500]
        q.validate_index()

    def test_sjf_ties_fifo(self):
        q = SuspensionQueue(order="sjf")
        a, b = make_task(0, t=100), make_task(1, t=100)
        q.add(a, 0)
        q.add(b, 0)
        assert [q.task_of(r) for r in q] == [a, b]

    def test_area_orders_largest_first(self):
        q = SuspensionQueue(order="area")
        for no, area in ((0, 300), (1, 900), (2, 600)):
            q.add(make_task(no, area=area), 0)
        assert [q.task_of(r).needed_area for r in q] == [900, 600, 300]
        q.validate_index()

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError, match="discipline"):
            SuspensionQueue(order="lifo")

    def test_first_with_key_respects_discipline(self):
        q = SuspensionQueue(
            order="sjf", key_fn=lambda t: t.pref_config.config_no % 2
        )
        slow = make_task(0, t=900)  # key 0
        fast = make_task(2, t=100)  # key 0
        q.add(slow, 0)
        q.add(fast, 0)
        assert q.task_of(q.first_with_key({0})) is fast

    def test_remove_keeps_order(self):
        q = SuspensionQueue(order="sjf")
        tasks = [make_task(i, t=t) for i, t in enumerate((400, 100, 300, 200))]
        for t in tasks:
            q.add(t, 0)
        q.remove(q.head)  # removes the t=100 task
        assert [q.task_of(r).required_time for r in q] == [200, 300, 400]
        q.validate_index()


class TestEndToEndDisciplines:
    @pytest.mark.parametrize("order", ["fifo", "sjf", "area"])
    def test_simulation_completes_under_any_discipline(self, order):
        result = quick_simulation(
            nodes=8, configs=5, tasks=120, seed=13, queue_order=order
        )
        rep = result.report
        assert rep.total_completed_tasks + rep.total_discarded_tasks == 120
        for t in result.tasks:
            assert t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED)

    def test_sjf_improves_mean_wait_under_load(self):
        fifo = quick_simulation(
            nodes=8, configs=5, tasks=250, seed=21, queue_order="fifo"
        ).report
        sjf = quick_simulation(
            nodes=8, configs=5, tasks=250, seed=21, queue_order="sjf"
        ).report
        # Classic queueing result: SJF minimises mean waiting time.
        assert sjf.avg_waiting_time_per_task < fifo.avg_waiting_time_per_task

    def test_disciplines_change_schedule(self):
        a = quick_simulation(nodes=8, configs=5, tasks=150, seed=5, queue_order="fifo")
        b = quick_simulation(nodes=8, configs=5, tasks=150, seed=5, queue_order="area")
        assert a.report.as_dict() != b.report.as_dict()
