"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import compare
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(9999) == 99
    assert run.tail_percentile(10000) == 99.9


def test_percentile_and_summary():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    s = run.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert s["q1"] < s["median"] < s["q3"]


def test_benchmark_json_schema():
    raw = (run.ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    bounds = {}
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert all(NAME.match(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        group = [m["name"] for m in spec[key]]
        assert len(group) == len(set(group))
        assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in spec[key])


def test_per_layer_names_match_what_the_traced_run_computes():
    class Quiet:
        """A traced repetition with no spans and no outputs."""

        children: list = []

        class timed:
            wall = 1.0
            result = {"outputs": {}}

        @staticmethod
        def count(name):
            return 0

    computed = run.layer_metrics(Quiet(), [])
    assert list(computed) == [m["name"] for m in run.SPEC["per_layer"]]


def test_failing_child_counts_as_a_failed_operation(monkeypatch):
    # A non-positive fault mean makes build_campaign raise in the child.
    broken = dict(run.SMOKE["faults"], faults={"mtbf": 0})
    monkeypatch.setitem(run.SMOKE, "faults", broken)
    monkeypatch.setattr(run, "expected_outputs", lambda key: {})
    res = run.run_workload("faults", 42, 0.0, trace=False, smoke=True)
    assert res["failed"] == res["attempted"] == run.MIN_REPS
    assert all("exited with 1" in e for e in res["errors"])


def test_digest_mismatch_counts_as_a_failed_operation(monkeypatch):
    real = run.expected_outputs

    def wrong_digest(key):
        return dict(real(key), digest="0" * 32)

    monkeypatch.setattr(run, "expected_outputs", wrong_digest)
    res = run.run_workload("faults", 42, 0.0, trace=False, smoke=True)
    assert res["failed"] == res["attempted"] == run.MIN_REPS
    assert all(e.startswith("digest differs") for e in res["errors"])


def test_smoke_invocation_is_fast_and_correct():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke", "--seconds", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 4 * run.MIN_REPS
    expected = {f"{w}.{m['name']}" for w in run.WORKLOADS for m in run.SPEC["end_to_end"]}
    assert set(line["metrics"]) == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert elapsed < 30


def test_traced_smoke_writes_spans_and_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke", "--seconds", "0",
         "--workload", "service", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in run.SPEC["per_layer"]}
    assert line["metrics"]["service.report_view_s"]["value"] > 0
    assert line["metrics"]["service.windows"]["value"] > 0
    trace = json.loads((run.OUT / "trace-service-s42.json").read_text())
    spans = trace["children"][0]["spans"]
    names = {s[2] for s in spans}
    assert {"cli.import", "service.advance", "trace.replay"} <= names
    ids = {s[0] for s in spans}
    assert all(s[1] is None or s[1] in ids for s in spans)


def _result(values: dict[str, list[float]], failed: int = 0) -> dict:
    metrics = {name: {**run.summarize(v), "values": v} for name, v in values.items()}
    return {"workloads": {"batch": {"attempted": 10, "failed": failed, "metrics": metrics}}}


def _verdicts(a: dict, b: dict) -> dict[str, str]:
    lines, _ = compare.compare(a, b, run.SPEC)
    return {line.split()[1]: line.split()[-2] for line in lines[1:] if "batch" in line}


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00]
    values = {
        "wall_s": steady, "setup_s": steady,
        "tasks_per_s": [1000 * v for v in steady], "peak_rss_mb": [80 * v for v in steady],
    }
    base = _result(values)
    change = _result({
        "wall_s": [1.5 * v for v in steady],  # 50% slower: beyond the bound
        "setup_s": [0.8 * v for v in steady],  # 20% faster: beyond the spread
        "tasks_per_s": [1000 * v for v in steady],
        "peak_rss_mb": [80 * v for v in (0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4)],  # noisy
    })
    assert _verdicts(base, change) == {
        "wall_s": "regressed", "setup_s": "improved",
        "tasks_per_s": "unchanged", "peak_rss_mb": "unresolved",
    }
    assert compare.compare(base, change, run.SPEC)[1]
    assert not compare.compare(base, base, run.SPEC)[1]
    assert compare.compare(base, _result(values, failed=1), run.SPEC)[1]
