"""Tests for the SWF real-workload reader/writer."""

import io

import pytest

from repro.rng import RNG
from repro.workload import ConfigSpec
from repro.workload.generator import generate_configs
from repro.workload.swf import SwfJob, read_swf, tasks_from_swf, write_swf

SAMPLE = """\
; Sample SWF trace
; MaxJobs: 3
1 0 10 3600 16 -1 -1 16 -1 1024 1 1 1 -1 -1 -1 -1 -1
2 60 5 120 4 -1 -1 4 -1 -1 1 2 1 -1 -1 -1 -1 -1
3 120 0 -1 8 -1 -1 8 -1 -1 0 3 1 -1 -1 -1 -1 -1
"""


class TestReader:
    def test_parses_jobs_and_skips_comments(self):
        jobs = read_swf(io.StringIO(SAMPLE))
        assert len(jobs) == 3
        assert jobs[0].job_number == 1
        assert jobs[0].run_time == 3600
        assert jobs[0].requested_procs == 16
        assert jobs[0].requested_memory == 1024
        assert jobs[1].submit_time == 60

    def test_blank_lines_skipped(self):
        jobs = read_swf(io.StringIO("\n\n1 0 0 10 1 -1 -1 1 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"))
        assert len(jobs) == 1

    def test_short_lines_padded(self):
        jobs = read_swf(io.StringIO("1 5 0 100\n"))
        assert jobs[0].run_time == 100
        assert jobs[0].requested_procs == -1

    def test_malformed_line_raises_with_lineno(self):
        for bad in ("not numbers here", "1 inf 0 10", "1 -inf 0 10", "1 nan 0 10", "1 1e400 0 10"):
            with pytest.raises(ValueError, match="line 2"):
                read_swf(io.StringIO(f"1 0 0 10\n{bad}\n"))

    def test_too_few_fields_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            read_swf(io.StringIO("1 2\n"))

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "trace.swf"
        p.write_text(SAMPLE)
        assert len(read_swf(p)) == 3


class TestWriter:
    def test_roundtrip(self, tmp_path):
        jobs = read_swf(io.StringIO(SAMPLE))
        p = tmp_path / "out.swf"
        write_swf(jobs, p)
        back = read_swf(p)
        assert len(back) == len(jobs)
        for a, b in zip(jobs, back):
            assert (a.job_number, a.submit_time, a.run_time) == (
                b.job_number,
                b.submit_time,
                b.run_time,
            )

    def test_header_written(self):
        buf = io.StringIO()
        write_swf([], buf, header="test header")
        assert buf.getvalue().startswith("; test header")


class TestTaskMapping:
    @pytest.fixture
    def configs(self):
        return generate_configs(ConfigSpec(count=8), RNG(seed=1))

    def test_basic_mapping(self, configs):
        jobs = read_swf(io.StringIO(SAMPLE))
        arrivals = tasks_from_swf(jobs, configs)
        # job 3 has run_time -1 and status 0 -> skipped
        assert len(arrivals) == 2
        assert arrivals[0].task.required_time == 3600
        assert arrivals[0].at == 0

    def test_time_scaling(self, configs):
        jobs = read_swf(io.StringIO(SAMPLE))
        arrivals = tasks_from_swf(jobs, configs, time_scale=0.5)
        assert arrivals[0].task.required_time == 1800
        assert arrivals[1].at == 30

    def test_deterministic_config_assignment(self, configs):
        jobs = read_swf(io.StringIO(SAMPLE))
        a = tasks_from_swf(jobs, configs)
        b = tasks_from_swf(jobs, configs)
        assert [x.task.pref_config.config_no for x in a] == [
            x.task.pref_config.config_no for x in b
        ]

    def test_sorted_by_arrival(self, configs):
        jobs = [
            SwfJob.from_fields([2, 500, 0, 10, 1, -1, -1, 1, -1, -1, 1]),
            SwfJob.from_fields([1, 100, 0, 10, 1, -1, -1, 1, -1, -1, 1]),
        ]
        arrivals = tasks_from_swf(jobs, configs)
        assert [a.at for a in arrivals] == [100, 500]

    def test_keep_failed_jobs_option(self, configs):
        jobs = read_swf(io.StringIO(SAMPLE))
        arrivals = tasks_from_swf(jobs, configs, skip_failed=False)
        # job 3 still skipped for run_time <= 0, others kept
        assert len(arrivals) == 2

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            tasks_from_swf([], [])
