"""Tests for the monitoring and load-balancing modules."""

import math
from array import array

from repro.framework.loadbalance import LoadBalancer, node_load
from repro.framework.monitoring import Monitor
from repro.model import Configuration, Node, Task
from repro.resources import ResourceInformationManager, SuspensionQueue


def build():
    nodes = [Node(node_no=i, total_area=2000) for i in range(4)]
    configs = [Configuration(config_no=0, req_area=1000, config_time=10)]
    return ResourceInformationManager(nodes, configs)


def run_task_on(rim, node, no=0):
    c = rim.configs[0]
    entry = rim.configure_node(node, c)
    t = Task(task_no=no, required_time=100, pref_config=c)
    t.mark_created(0)
    t.mark_started(0, c)
    rim.assign_task(t, node, entry)
    return t


class TestMonitor:
    def test_sample_counts_states(self):
        rim = build()
        q = SuspensionQueue()
        run_task_on(rim, rim.nodes[0])
        rim.configure_node(rim.nodes[1], rim.configs[0])  # idle configured
        mon = Monitor()
        mon.sample(10, rim, q)
        assert rim.state_counts == {"blank": 2, "idle": 1, "busy": 1}
        # The four MonitorSampled fields: busy nodes, queue length, wasted
        # area (two configured nodes, half waste each), running tasks.
        assert (mon.times, mon.busy_col, mon.queued_col, mon.waste_col, mon.running_col) == (
            array("q", [10]), array("q", [1]), array("q", [0]),
            array("q", [1000 + 1000]), array("q", [1]),
        )

    def test_rate_limiting(self):
        rim = build()
        q = SuspensionQueue()
        mon = Monitor(min_interval=100)
        mon.sample(0, rim, q)
        assert len(mon) == 1  # recorded
        mon.sample(50, rim, q)
        assert len(mon) == 1  # inside interval: not recorded
        mon.sample(100, rim, q)
        assert mon.times == array("q", [0, 100])
        assert len(mon) == 2

    def test_series_accumulate(self):
        rim = build()
        q = SuspensionQueue()
        mon = Monitor()
        mon.sample(0, rim, q)
        run_task_on(rim, rim.nodes[0])
        mon.sample(10, rim, q)
        assert list(mon.busy_nodes) == [(0, 0), (10, 1)]


class TestLoadBalancer:
    def test_node_load_fraction(self):
        rim = build()
        node = rim.nodes[0]
        assert node_load(node) == 0.0
        run_task_on(rim, node)
        assert node_load(node) == 0.5  # 1000 busy of 2000

    def test_perfect_balance_metrics(self):
        rim = build()
        for i, n in enumerate(rim.nodes):
            run_task_on(rim, n, no=i)
        lb = LoadBalancer(rim)
        lb.observe(0)
        assert (lb.cv_col, lb.jain_col) == (array("d", [0.0]), array("d", [1.0]))

    def test_imbalance_detected(self):
        rim = build()
        run_task_on(rim, rim.nodes[0])
        lb = LoadBalancer(rim)
        lb.observe(0)
        # One loaded node of four: cv = sqrt(4 - 1), jain = 1/4.
        assert (lb.cv_col, lb.jain_col) == (array("d", [math.sqrt(3)]), array("d", [0.25]))

    def test_idle_system(self):
        rim = build()
        lb = LoadBalancer(rim)
        lb.observe(0)
        assert (lb.times, lb.cv_col, lb.jain_col) == (
            array("q", [0]), array("d", [0.0]), array("d", [1.0])
        )

    def test_series_means(self):
        rim = build()
        lb = LoadBalancer(rim)
        lb.observe(0)
        run_task_on(rim, rim.nodes[0])
        lb.observe(10)
        assert 0 <= lb.mean_cv
        assert 0 <= lb.mean_jain <= 1.0
