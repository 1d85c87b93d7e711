"""Wall-clock bench: the two resource-manager backends on one workload.

Unlike the figure benches (which compare *simulated* metrics), this bench
compares *real* runtime of the backends on identical workloads and asserts
the thing the array core promises: simulated outputs are bit-identical
while wall-clock drops.

Scale control: ``REPRO_BENCH_WALLCLOCK_TASKS`` overrides the task count
(default 2000, small enough for CI).  The committed end-to-end numbers live
in ``BENCH_perf.json``, produced by ``tools/perf.py`` at full scale.
"""

import json
import os
import time

from repro import quick_simulation

BENCH_TASKS = int(os.environ.get("REPRO_BENCH_WALLCLOCK_TASKS", "2000"))
BENCH_NODES = 100
SEED = 42


def timed_run(backend: str, partial: bool = True):
    t0 = time.perf_counter()
    result = quick_simulation(
        nodes=BENCH_NODES,
        tasks=BENCH_TASKS,
        partial=partial,
        seed=SEED,
        backend=backend,
    )
    return time.perf_counter() - t0, result


class TestWallclockBackends:
    def test_identical_reports_and_timing(self):
        array_s, array = timed_run("array")
        scan_s, scan = timed_run("scan")
        assert array.report.as_dict() == scan.report.as_dict()
        print(
            f"\n=== wall-clock ({BENCH_NODES} nodes, {BENCH_TASKS} tasks, partial) ==="
            f"\narray   : {array_s:7.3f}s"
            f"\nscan    : {scan_s:7.3f}s"
            f"\nspeedup : {scan_s / array_s:7.2f}x vs scan"
        )
        # Loose sanity gate (CI machines are noisy): the array backend must
        # never be meaningfully *slower* than the reference scan.
        assert array_s < scan_s * 1.5

    def test_simulated_counters_independent_of_wallclock_mode(self):
        _, array = timed_run("array", partial=False)
        _, scan = timed_run("scan", partial=False)
        ra, rs = array.report, scan.report
        assert ra.avg_scheduling_steps_per_task == rs.avg_scheduling_steps_per_task
        assert ra.total_scheduler_workload == rs.total_scheduler_workload


class TestPerfHarness:
    def test_perf_tool_writes_valid_json(self, tmp_path):
        """tools/perf.py --quick produces a schema-complete BENCH_perf.json."""
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
        try:
            import perf
        finally:
            sys.path.pop(0)
        out = tmp_path / "BENCH_perf.json"
        rc = perf.main(["--quick", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"description", "python", "headline", "results"}
        head = payload["headline"]
        assert set(head) >= {
            "scale",
            "before_scan_seconds",
            "after_array_seconds",
            "speedup_vs_scan",
        }
        for row in payload["results"]:
            assert row["reports_equal"] is True
            assert row["array_seconds"] > 0 and row["scan_seconds"] > 0
            # Peak RSS is measured per row and per backend (forked children).
            assert row["array_peak_rss_mb"] > 0 and row["scan_peak_rss_mb"] > 0
        # The windowed service row: scan-manager and hot-loop windows
        # seal with the same digest and Table I.
        service = payload["service_windows"]
        assert service["outputs_equal"] is True
        assert service["scan_seconds"] > 0 and service["hot_seconds"] > 0

    def test_committed_bench_numbers_meet_the_gate(self):
        """The repo-root BENCH_perf.json documents the headline win: the
        array backend >= 10x vs scan at 200n/20k, plus a routine 200n/100k
        paper-scale row."""
        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")
        payload = json.loads(open(path).read())
        assert payload["headline"]["speedup_vs_scan"] >= 10.0
        assert all(row["reports_equal"] for row in payload["results"])
        assert any(
            row["nodes"] == 200 and row["tasks"] == 100000
            for row in payload["results"]
        )
