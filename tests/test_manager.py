"""Unit tests for the ResourceInformationManager (queries + mutations)."""

import pytest

from repro.model import Configuration, ConfigurationError, Node, Task
from repro.resources import (
    ResourceInformationManager,
    check_invariants,
)


def make_system(node_areas=(1000, 2000, 3000), config_areas=(400, 800)):
    nodes = [Node(node_no=i, total_area=a) for i, a in enumerate(node_areas)]
    configs = [
        Configuration(config_no=i, req_area=a, config_time=10 + i)
        for i, a in enumerate(config_areas)
    ]
    return ResourceInformationManager(nodes, configs)


def make_task(no, pref, t=100):
    task = Task(task_no=no, required_time=t, pref_config=pref)
    task.mark_created(0)
    return task


class TestInit:
    def test_all_nodes_start_blank(self):
        rim = make_system()
        assert len(rim.blank_chain) == 3
        assert rim.total_used_nodes == 0
        check_invariants(rim)

    def test_duplicate_config_no_rejected(self):
        nodes = [Node(node_no=0, total_area=1000)]
        configs = [
            Configuration(config_no=0, req_area=100, config_time=1),
            Configuration(config_no=0, req_area=200, config_time=1),
        ]
        with pytest.raises(ValueError):
            ResourceInformationManager(nodes, configs)

    def test_preconfigured_nodes_are_chained(self):
        c = Configuration(config_no=0, req_area=100, config_time=1)
        n = Node(node_no=0, total_area=1000)
        n.send_bitstream(c)
        rim = ResourceInformationManager([n], [c])
        assert len(rim.idle_chain(c)) == 1
        assert len(rim.blank_chain) == 0
        check_invariants(rim)


class TestConfigMatching:
    def test_preferred_found(self):
        rim = make_system()
        assert rim.find_preferred_config(rim.configs[1]) is rim.configs[1]

    def test_preferred_missing_returns_none(self):
        rim = make_system()
        unknown = Configuration(config_no=99, req_area=500, config_time=5)
        assert rim.find_preferred_config(unknown) is None

    def test_closest_match_minimum_sufficient(self):
        rim = make_system(config_areas=(400, 800, 600))
        unknown = Configuration(config_no=99, req_area=500, config_time=5)
        closest = rim.find_closest_config(unknown)
        assert closest is rim.configs[2]  # area 600 (min among >= 500)

    def test_closest_match_none_when_all_smaller(self):
        rim = make_system(config_areas=(400, 300))
        unknown = Configuration(config_no=99, req_area=500, config_time=5)
        assert rim.find_closest_config(unknown) is None

    def test_matching_charges_steps(self):
        rim = make_system()
        before = rim.counters.scheduling_steps
        rim.find_preferred_config(rim.configs[0])
        assert rim.counters.scheduling_steps > before


class TestQueries:
    def test_best_idle_entry_min_available_area(self):
        rim = make_system(node_areas=(1000, 3000))
        c = rim.configs[0]  # area 400
        rim.configure_node(rim.nodes[0], c)
        rim.configure_node(rim.nodes[1], c)
        best = rim.find_best_idle_entry(c)
        # node 0 has available 600, node 1 has 2600 -> node 0 is best
        assert rim._node_of(best) is rim.nodes[0]

    def test_best_blank_node_min_sufficient_total(self):
        rim = make_system(node_areas=(1000, 500, 3000))
        c = rim.configs[1]  # area 800
        best = rim.find_best_blank_node(c)
        assert best is rim.nodes[0]  # 1000 is min total >= 800

    def test_best_blank_none_when_too_small(self):
        rim = make_system(node_areas=(300,), config_areas=(400,))
        assert rim.find_best_blank_node(rim.configs[0]) is None

    def test_best_partially_blank_min_sufficient_free(self):
        rim = make_system(node_areas=(2000, 3000), config_areas=(400, 800))
        rim.configure_node(rim.nodes[0], rim.configs[0])  # free 1600
        rim.configure_node(rim.nodes[1], rim.configs[0])  # free 2600
        best = rim.find_best_partially_blank_node(rim.configs[1])
        assert best is rim.nodes[0]

    def test_partially_blank_excludes_blank_nodes(self):
        rim = make_system(node_areas=(2000, 3000))
        rim.configure_node(rim.nodes[0], rim.configs[0])
        best = rim.find_best_partially_blank_node(rim.configs[1])
        assert best is rim.nodes[0]  # node 1 blank, excluded


class TestFindAnyIdleNode:
    def test_accumulates_idle_entries(self):
        rim = make_system(node_areas=(1200,), config_areas=(400, 500, 900))
        node = rim.nodes[0]
        rim.configure_node(node, rim.configs[0])  # 400 idle
        rim.configure_node(node, rim.configs[1])  # 500 idle; free = 300
        found, evict = rim.find_any_idle_node(rim.configs[2])  # needs 900
        assert found is node
        # free 300 + idle 400 = 700 < 900; + idle 500 = 1200 >= 900
        assert len(evict) == 2

    def test_skips_busy_entries(self):
        rim = make_system(node_areas=(900,), config_areas=(400, 500, 900))
        node = rim.nodes[0]
        e1 = rim.configure_node(node, rim.configs[0])
        t = make_task(0, rim.configs[0])
        t.mark_started(0, rim.configs[0])
        rim.assign_task(t, node, e1)
        found, _ = rim.find_any_idle_node(rim.configs[2])
        assert found is None  # busy 400 not reclaimable; free 500 < 900

    def test_require_all_idle_excludes_busy_nodes(self):
        rim = make_system(node_areas=(2000,), config_areas=(400, 500))
        node = rim.nodes[0]
        e1 = rim.configure_node(node, rim.configs[0])
        rim.configure_node(node, rim.configs[1])
        t = make_task(0, rim.configs[0])
        t.mark_started(0, rim.configs[0])
        rim.assign_task(t, node, e1)
        found, _ = rim.find_any_idle_node(rim.configs[1], require_all_idle=True)
        assert found is None

    def test_require_all_idle_evicts_everything(self):
        rim = make_system(node_areas=(2000,), config_areas=(400, 500))
        node = rim.nodes[0]
        rim.configure_node(node, rim.configs[0])
        found, evict = rim.find_any_idle_node(rim.configs[1], require_all_idle=True)
        assert found is node
        assert evict == list(node.entries)


class TestMutations:
    def test_configure_moves_off_blank_chain(self):
        rim = make_system()
        rim.configure_node(rim.nodes[0], rim.configs[0])
        assert rim.nodes[0] not in rim.blank_chain
        assert len(rim.idle_chain(rim.configs[0])) == 1
        assert rim.total_used_nodes == 1
        check_invariants(rim)

    def test_assign_and_complete_roundtrip(self):
        rim = make_system()
        c = rim.configs[0]
        node = rim.nodes[0]
        entry = rim.configure_node(node, c)
        t = make_task(0, c)
        t.mark_started(0, c)
        rim.assign_task(t, node, entry)
        assert len(rim.busy_chain(c)) == 1
        assert len(rim.idle_chain(c)) == 0
        check_invariants(rim)
        t.mark_completed(100)
        rim.complete_task(t, node)
        assert len(rim.idle_chain(c)) == 1
        assert len(rim.busy_chain(c)) == 0
        check_invariants(rim)

    def test_evict_entries_returns_to_blank(self):
        rim = make_system()
        node = rim.nodes[0]
        entry = rim.configure_node(node, rim.configs[0])
        reclaimed = rim.evict_entries(node, [entry])
        assert reclaimed == rim.configs[0].req_area
        assert node.is_blank
        assert node in rim.blank_chain
        check_invariants(rim)

    def test_blank_node_unlinks_all_idle(self):
        rim = make_system(node_areas=(2000,))
        node = rim.nodes[0]
        rim.configure_node(node, rim.configs[0])
        rim.configure_node(node, rim.configs[1])
        rim.evict_entries(node, list(node.entries))
        assert node.is_blank
        assert node in rim.blank_chain
        assert len(rim.idle_chain(rim.configs[0])) == 0
        assert len(rim.idle_chain(rim.configs[1])) == 0
        check_invariants(rim)

    def test_unknown_config_rejected(self):
        rim = make_system()
        alien = Configuration(config_no=42, req_area=100, config_time=5)
        with pytest.raises((ConfigurationError, KeyError)):
            rim.configure_node(rim.nodes[0], alien)

    def test_reconfig_counts_tracked_per_config(self):
        rim = make_system()
        rim.configure_node(rim.nodes[0], rim.configs[0])
        rim.configure_node(rim.nodes[1], rim.configs[0])
        rim.configure_node(rim.nodes[2], rim.configs[1])
        assert rim.reconfig_count_by_config[0] == 2
        assert rim.reconfig_count_by_config[1] == 1


class TestStatistics:
    def test_total_wasted_area_eq6(self):
        rim = make_system(node_areas=(1000, 2000, 3000))
        rim.configure_node(rim.nodes[0], rim.configs[0])  # waste 600
        rim.configure_node(rim.nodes[1], rim.configs[1])  # waste 1200
        # node 2 blank: not counted (Eq. 6 counts configured nodes only)
        assert rim.total_wasted_area() == 600 + 1200

    def test_wasted_area_charge_flag(self):
        rim = make_system()
        before = rim.counters.housekeeping_steps
        rim.total_wasted_area(charge=False)
        assert rim.counters.housekeeping_steps == before
        rim.total_wasted_area(charge=True)
        assert rim.counters.housekeeping_steps == before + len(rim.nodes)

    def test_node_count_by_state(self):
        rim = make_system()
        c = rim.configs[0]
        entry = rim.configure_node(rim.nodes[0], c)
        t = make_task(0, c)
        t.mark_started(0, c)
        rim.assign_task(t, rim.nodes[0], entry)
        rim.configure_node(rim.nodes[1], c)
        assert rim.state_counts == {"blank": 1, "idle": 1, "busy": 1}
