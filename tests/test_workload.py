"""Tests for the synthetic workload and resource generators."""

from dataclasses import replace

import pytest

from repro.model import Task
from repro.model.task import TASK_ROW, export_task
from repro.rng import RNG
from repro.rng.distributions import UniformInt
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    TaskStream,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)


@pytest.fixture
def rng():
    return RNG(seed=2012)


class TestNodeGeneration:
    def test_count_and_ranges(self, rng):
        nodes = generate_nodes(NodeSpec(count=200), rng)
        assert len(nodes) == 200
        assert all(1000 <= n.total_area <= 4000 for n in nodes)  # Table II
        assert [n.node_no for n in nodes] == list(range(200))

    def test_deterministic(self):
        a = generate_nodes(NodeSpec(count=50), RNG(seed=3))
        b = generate_nodes(NodeSpec(count=50), RNG(seed=3))
        assert [n.total_area for n in a] == [n.total_area for n in b]

    def test_area_spread(self, rng):
        nodes = generate_nodes(NodeSpec(count=500), rng)
        areas = [n.total_area for n in nodes]
        assert min(areas) < 1400 and max(areas) > 3600  # fills the range

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            NodeSpec(count=0)


class TestConfigGeneration:
    def test_count_and_ranges(self, rng):
        configs = generate_configs(ConfigSpec(count=50), rng)
        assert len(configs) == 50
        assert all(200 <= c.req_area <= 2000 for c in configs)  # Table II
        assert all(10 <= c.config_time <= 20 for c in configs)  # Table II

    def test_bitstream_size_scales_with_area(self, rng):
        configs = generate_configs(ConfigSpec(count=20, bsize_per_area=64), rng)
        assert all(c.bsize == c.req_area * 64 for c in configs)

    def test_ptype_mix(self, rng):
        configs = generate_configs(ConfigSpec(count=200), rng)
        assert len({c.ptype for c in configs}) > 1

    def test_unique_config_numbers(self, rng):
        configs = generate_configs(ConfigSpec(count=50), rng)
        assert len({c.config_no for c in configs}) == 50


class TestTaskStream:
    def test_count_and_attribute_ranges(self, rng):
        configs = generate_configs(ConfigSpec(count=10), rng)
        stream = generate_task_stream(TaskSpec(count=500), configs, rng)
        arrivals = list(stream)
        assert len(arrivals) == 500
        assert all(isinstance(a.task, Task) for a in arrivals)
        assert all(100 <= a.task.required_time <= 100_000 for a in arrivals)

    def test_arrival_times_strictly_increasing_intervals(self, rng):
        configs = generate_configs(ConfigSpec(count=10), rng)
        arrivals = list(generate_task_stream(TaskSpec(count=300), configs, rng))
        times = [a.at for a in arrivals]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(1 <= d <= 50 for d in deltas)  # Table II interval

    def test_closest_match_share(self, rng):
        configs = generate_configs(ConfigSpec(count=10), rng)
        arrivals = list(generate_task_stream(TaskSpec(count=4000), configs, rng))
        known = {c.config_no for c in configs}
        unknown = sum(1 for a in arrivals if a.task.pref_config.config_no not in known)
        assert unknown / 4000 == pytest.approx(0.15, abs=0.02)  # Table II 15%

    def test_unknown_prefs_have_distinct_numbers(self, rng):
        configs = generate_configs(ConfigSpec(count=5), rng)
        arrivals = list(generate_task_stream(TaskSpec(count=1000), configs, rng))
        known = {c.config_no for c in configs}
        unknown_nos = [
            a.task.pref_config.config_no
            for a in arrivals
            if a.task.pref_config.config_no not in known
        ]
        assert len(unknown_nos) == len(set(unknown_nos))

    def test_stream_deterministic(self):
        configs = generate_configs(ConfigSpec(count=10), RNG(seed=5))
        s1 = list(TaskStream(TaskSpec(count=100), configs, RNG(seed=5)))
        s2 = list(TaskStream(TaskSpec(count=100), configs, RNG(seed=5)))
        assert [(a.at, a.task.required_time) for a in s1] == [
            (a.at, a.task.required_time) for a in s2
        ]

    def test_task_count_does_not_perturb_nodes(self):
        """Stream independence: node table identical for any task count."""
        nodes_a = generate_nodes(NodeSpec(count=30), RNG(seed=9))
        _ = list(generate_task_stream(
            TaskSpec(count=10), generate_configs(ConfigSpec(count=5), RNG(seed=9)), RNG(seed=9)
        ))
        nodes_b = generate_nodes(NodeSpec(count=30), RNG(seed=9))
        assert [n.total_area for n in nodes_a] == [n.total_area for n in nodes_b]

    def test_empty_configs_rejected(self, rng):
        with pytest.raises(ValueError):
            TaskStream(TaskSpec(count=10), [], rng)

    def test_task_numbers_sequential(self, rng):
        configs = generate_configs(ConfigSpec(count=5), rng)
        arrivals = list(generate_task_stream(TaskSpec(count=50), configs, rng))
        assert [a.task.task_no for a in arrivals] == list(range(50))

    @pytest.mark.parametrize("seed", [7, 2012])
    def test_fast_path_matches_generic_path(self, seed):
        """``_iter_fast`` builds the records the generic ``__iter__`` /
        ``_make_task`` path builds, draw for draw: a ``UniformInt`` under
        another type sends a stream down the generic path."""
        configs = generate_configs(ConfigSpec(count=10), RNG(seed=seed))
        spec = TaskSpec(count=2000)
        generic_spec = replace(spec, arrival_interval=_PlainUniformInt(1, 50))
        fast = list(generate_task_stream(spec, configs, RNG(seed=seed)))
        generic = list(generate_task_stream(generic_spec, configs, RNG(seed=seed)))
        assert [a.at for a in fast] == [a.at for a in generic]
        # One export row per task: all 15 TASK_ROW fields, the preference
        # as its [config_no, req_area, config_time] triple.
        assert len(export_task(fast[0].task)) == len(TASK_ROW)
        assert [export_task(a.task) for a in fast] == [export_task(a.task) for a in generic]
        system = {id(c) for c in configs}
        fabricated = 0
        for f, g in zip(fast, generic):
            if id(g.task.pref_config) in system:
                assert f.task.pref_config is g.task.pref_config
            else:
                assert id(f.task.pref_config) not in system
                fabricated += 1
        assert fabricated > 0  # the closest-match share took both paths

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(count=0)
        with pytest.raises(ValueError):
            TaskSpec(closest_match_pct=1.5)


class _PlainUniformInt(UniformInt):
    """A ``UniformInt`` the generator's fast-path type check does not match."""
