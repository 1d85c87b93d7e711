"""End-to-end tests for device-family constraints (heterogeneous clusters).

Bitstreams are family-specific (Eq. 1/Eq. 2): a configuration built for one
family can only load on compatible nodes.  These tests build mixed clusters
and verify the scheduler routes tasks only onto compatible hardware, through
every phase.
"""

import pytest

from repro.core import DreamScheduler, ScheduleResult
from repro.framework import DReAMSim
from repro.model import Configuration, Node, Task
from repro.model.family import DeviceFamily
from repro.resources import (
    BACKENDS,
    ResourceInformationManager,
    check_invariants,
    create_manager,
    resolve_backend,
)
from repro.workload.generator import TaskArrival

FAM_A = DeviceFamily(name="alpha")
FAM_B = DeviceFamily(name="beta")
# gamma accepts alpha bitstreams (newer generation, backward compatible).
FAM_C = DeviceFamily(name="gamma", compatible_with=frozenset({"alpha"}))


def make_cluster():
    nodes = [
        Node(node_no=0, total_area=3000, family=FAM_A),
        Node(node_no=1, total_area=3000, family=FAM_B),
        Node(node_no=2, total_area=3000, family=FAM_C),
    ]
    configs = [
        Configuration(config_no=0, req_area=500, config_time=10, family=FAM_A),
        Configuration(config_no=1, req_area=500, config_time=10, family=FAM_B),
    ]
    return nodes, configs


def arrive(sched, no, pref, t=100):
    task = Task(task_no=no, required_time=t, pref_config=pref)
    task.mark_created(0)
    return sched.schedule(task, 0)


class TestFamilyRouting:
    def test_configuration_lands_on_compatible_blank(self):
        nodes, configs = make_cluster()
        rim = ResourceInformationManager(nodes, configs)
        sched = DreamScheduler(rim)
        out = arrive(sched, 0, configs[1])  # beta bitstream
        assert out.result is ScheduleResult.SCHEDULED
        assert out.placement.node.family is FAM_B
        check_invariants(rim)

    def test_backward_compatible_family_accepts(self):
        nodes, configs = make_cluster()
        rim = ResourceInformationManager(nodes, configs)
        sched = DreamScheduler(rim)
        # Fill the alpha node so the alpha bitstream must go to gamma.
        out0 = arrive(sched, 0, configs[0], t=1000)
        assert out0.placement.node.family in (FAM_A, FAM_C)
        out1 = arrive(sched, 1, configs[0], t=1000)
        assert out1.result is ScheduleResult.SCHEDULED
        families = {out0.placement.node.family, out1.placement.node.family}
        assert families == {FAM_A, FAM_C}

    def test_incompatible_task_suspends_or_discards(self):
        # beta-only cluster, alpha bitstream: no placement ever possible.
        nodes = [Node(node_no=0, total_area=3000, family=FAM_B)]
        configs = [
            Configuration(config_no=0, req_area=500, config_time=10, family=FAM_A),
        ]
        rim = ResourceInformationManager(nodes, configs)
        sched = DreamScheduler(rim)
        out = arrive(sched, 0, configs[0])
        # Never scheduled; the busy-candidate check also respects family...
        assert out.result is ScheduleResult.DISCARDED

    def test_partial_configuration_respects_family(self):
        nodes, configs = make_cluster()
        rim = ResourceInformationManager(nodes, configs)
        sched = DreamScheduler(rim)
        # Occupy the beta node partially, then ask for another beta region.
        out0 = arrive(sched, 0, configs[1], t=1000)
        out1 = arrive(sched, 1, configs[1], t=1000)
        assert out1.result is ScheduleResult.SCHEDULED
        assert out1.placement.node.family is FAM_B  # same node, new region
        assert out1.placement.node is out0.placement.node

    def test_reconfiguration_never_crosses_families(self):
        nodes, configs = make_cluster()
        rim = ResourceInformationManager(nodes, configs)
        sched = DreamScheduler(rim)
        # Load idle alpha regions everywhere alpha-compatible.
        rim.configure_node(nodes[0], configs[0])
        rim.configure_node(nodes[2], configs[0])
        # A beta task must not evict alpha regions on alpha/gamma nodes —
        # only the blank beta node qualifies.
        out = arrive(sched, 0, configs[1])
        assert out.placement.node.family is FAM_B
        check_invariants(rim)


class TestFamilySimulation:
    def test_mixed_cluster_simulation_conserves(self):
        nodes = []
        for i in range(12):
            fam = (FAM_A, FAM_B, FAM_C)[i % 3]
            nodes.append(Node(node_no=i, total_area=2500, family=fam))
        configs = [
            Configuration(
                config_no=i,
                req_area=400 + 100 * i,
                config_time=12,
                family=(FAM_A if i % 2 == 0 else FAM_B),
            )
            for i in range(6)
        ]
        arrivals = []
        at = 0
        for i in range(120):
            at += 13
            arrivals.append(
                TaskArrival(
                    at=at,
                    task=Task(
                        task_no=i, required_time=500, pref_config=configs[i % 6]
                    ),
                )
            )
        result = DReAMSim(nodes, configs, arrivals, partial=True).run()
        rep = result.report
        assert rep.total_completed_tasks + rep.total_discarded_tasks == 120
        # Verify no task ran on an incompatible family.
        for t in result.tasks:
            if t.status.value != "completed":
                continue
        check_invariants(result.load.rim)

    def test_no_cross_family_placements_recorded(self):
        nodes = [
            Node(node_no=0, total_area=3000, family=FAM_A),
            Node(node_no=1, total_area=3000, family=FAM_B),
        ]
        configs = [
            Configuration(config_no=0, req_area=500, config_time=10, family=FAM_A),
            Configuration(config_no=1, req_area=500, config_time=10, family=FAM_B),
        ]
        arrivals = [
            TaskArrival(
                at=i * 10,
                task=Task(task_no=i, required_time=50, pref_config=configs[i % 2]),
            )
            for i in range(20)
        ]
        result = DReAMSim(nodes, configs, arrivals, partial=True).run()
        for node in result.load.rim.nodes:
            for entry in node.entries:
                assert entry.config.compatible_with_node_family(node.family)


def mixed_cluster_run(backend):
    """A 12-node three-family cluster under 120 arrivals (fresh objects)."""
    nodes = [
        Node(node_no=i, total_area=2500, family=(FAM_A, FAM_B, FAM_C)[i % 3])
        for i in range(12)
    ]
    configs = [
        Configuration(
            config_no=i,
            req_area=400 + 100 * i,
            config_time=12,
            family=(FAM_A if i % 2 == 0 else FAM_B),
        )
        for i in range(6)
    ]
    arrivals = [
        TaskArrival(
            at=13 * (i + 1),
            task=Task(task_no=i, required_time=500, pref_config=configs[i % 6]),
        )
        for i in range(120)
    ]
    return DReAMSim(nodes, configs, arrivals, partial=True, backend=backend).run()


class TestHeterogeneousRouting:
    def test_array_request_builds_the_scan_manager(self):
        nodes, configs = make_cluster()
        rim = create_manager(nodes, configs, backend="array")
        assert type(rim) is ResourceInformationManager

    def test_array_request_matches_explicit_scan_run(self):
        requested = mixed_cluster_run("array")
        scan = mixed_cluster_run("scan")
        assert type(requested.load.rim) is ResourceInformationManager
        assert requested.report.as_dict() == scan.report.as_dict()
        assert requested.final_time == scan.final_time
        check_invariants(requested.load.rim)
        check_invariants(scan.load.rim)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: resolve_backend("indexed"),
            lambda: create_manager(*make_cluster(), backend="indexed"),
            lambda: DReAMSim(*make_cluster(), [], backend="indexed"),
        ],
        ids=["resolve_backend", "create_manager", "DReAMSim"],
    )
    def test_retired_indexed_backend_names_the_options(self, build):
        with pytest.raises(ValueError) as excinfo:
            build()
        message = str(excinfo.value)
        assert "'indexed'" in message
        assert all(b in message for b in BACKENDS)
