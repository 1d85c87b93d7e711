"""The repository benchmark: four user-facing workloads, correctness-checked.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--smoke]

Without ``--workload`` every workload runs in turn.  Each workload is a
closed loop with one client: one child process at a time (``child.py``),
the next starting when the previous one has exited, repeated for
``--seconds`` (at least ``MIN_REPS`` times).  The only parallelism is the
``figures`` sweep's fixed two workers.  The parent times each child from
spawn to exit and reads its peak RSS through ``os.wait4``.

Every repetition's outputs are compared with the ``scan`` backend's (the
executable spec): ``bench/expected/`` holds them for seeds 42 and 7; for
any other seed the oracle runs once, untimed, and is kept under
``bench/out/oracle/``.  A failed child or a mismatch counts as a failed
operation and is printed.

``--trace 1`` adds one traced repetition per workload and reports the
per-layer metrics of ``BENCHMARK.json``; its spans go to
``bench/out/trace-<workload>-s<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from spans import SPANS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0

# Sizes are chosen so one run of any workload, oracle included, stays near
# half a minute on a 2-CPU host; see bench/README.md for the reasons.
WORKLOADS: dict[str, dict] = {
    "batch": {"nodes": 200, "tasks": 20_000},
    "faults": {
        "nodes": 200,
        "tasks": 5_000,
        "digest": True,
        "faults": {
            "seu_rate": 300, "scrub_factor": 2, "mtbf": 5000, "mttr": 500,
            "retry_budget": 3, "backoff_base": 16, "backoff_cap": 1024,
        },
    },
    "service": {
        "nodes": 200, "tasks": 5_000, "window": 2000,
        "report_every": 10, "checkpoint_every": 50,
    },
    "figures": {"tasks": [1000, 2000, 5000], "jobs": 2},
}
# --smoke: a seconds-long pass over every code path, for the harness tests.
SMOKE: dict[str, dict] = {
    "batch": {"nodes": 50, "tasks": 500},
    "faults": {"nodes": 50, "tasks": 500},
    "service": {"nodes": 50, "tasks": 500},
    "figures": {"tasks": [500, 1000]},
}

# Layers in the order their metrics are listed, named after the repro packages.
LAYERS = tuple(dict.fromkeys(span.split(".")[0] for span in SPANS))
# Counts a child reports (summed over the traced repetition's children).
COUNTS = (
    "workload.tasks", "framework.events", "framework.hot_runs",
    "trace.replay_events", "trace.memory_events", "service.windows",
    "service.records", "service.records_rejected", "service.snapshot_bytes",
    "parallel.specs", "parallel.jobs", "parallel.cache_hits",
    "parallel.cache_misses", "parallel.cache_stored",
)


class BenchError(RuntimeError):
    """The program cannot be run or checked at all (no result is printed)."""


# -- statistics ----------------------------------------------------------------------


def tail_percentile(n: int) -> Optional[float]:
    """The highest reported percentile with at least ten samples beyond it."""
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles`` cuts them) and n."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- children ------------------------------------------------------------------------


@dataclass
class Child:
    """One finished child process."""

    ok: bool
    wall: float
    setup: float
    rss_mb: float
    result: dict
    error: str = ""


_child_ids = itertools.count()


def spawn(kind: str, params: dict, workdir: Path) -> Child:
    """Run ``child.py KIND`` to completion; time it from spawn to exit."""
    n = next(_child_ids)
    out_path = workdir / f"child-{n}.json"
    err_path = workdir / f"child-{n}.err"
    argv = [sys.executable, str(BENCH / "child.py"), kind, json.dumps(params), str(out_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not out_path.exists():
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-5:]
        error = f"{kind} child exited with {proc.returncode}: " + " | ".join(tail)
        return Child(False, ended - spawned, 0.0, rss_mb, {}, error)
    result = json.loads(out_path.read_text(encoding="utf-8"))
    setup = result.get("ready", result["imported"]) - spawned
    return Child(True, ended - spawned, setup, rss_mb, result)


def fresh_dir(label: str) -> Path:
    path = OUT / "tmp" / f"{label}-{os.getpid()}-{next(_child_ids)}"
    path.mkdir(parents=True)
    return path


def preflight() -> None:
    """Import the program once, untimed: fails fast when it is missing."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    work = fresh_dir("warmup")
    try:
        child = spawn("warmup", {"seed": 0}, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not child.ok:
        raise BenchError(child.error)


# -- the oracle ----------------------------------------------------------------------


def workload_params(name: str, smoke: bool) -> dict:
    params = dict(WORKLOADS[name])
    if smoke:
        params.update(SMOKE[name])
    return params


def oracle_key(name: str, seed: int, smoke: bool) -> dict:
    """Everything the expected outputs depend on."""
    return {"workload": name, "seed": seed, **workload_params(name, smoke)}


def expected_outputs(key: dict) -> dict:
    """The scan backend's outputs for one oracle key, computed once (untimed)."""
    stem = f"{key['workload']}-s{key['seed']}"
    tag = hashlib.blake2b(json.dumps(key, sort_keys=True).encode(), digest_size=4).hexdigest()
    cached = OUT / "oracle" / f"{stem}-{tag}.json"
    for path in (BENCH / "expected" / f"{stem}.json", cached):
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
            if data["params"] == key:
                return data["expected"]
    expected = compute_oracle(key)
    write_expected(cached, key, expected)
    return expected


def write_expected(path: Path, key: dict, expected: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"params": key, "expected": expected}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def compute_oracle(key: dict) -> dict:
    work = fresh_dir("oracle")
    try:
        child = spawn("oracle", key, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not child.ok:
        raise BenchError(f"oracle for {key['workload']} failed: {child.error}")
    return child.result["expected"]


def mismatches(name: str, children: list[Child], expected: dict) -> list[str]:
    """Every way this repetition's outputs differ from what they must be."""
    outs = [c.result["outputs"] for c in children]
    errors = []
    if name == "figures":
        cold, warm = outs
        if cold["rc"] != 0 or warm["rc"] != 0:
            errors.append(f"figures exit codes {cold['rc']}/{warm['rc']} (shape check)")
        if cold["csvs"] != warm["csvs"]:
            errors.append("cold and warm CSVs differ")
        outs = [cold]
    out = outs[0]
    for key, want in expected.items():
        if out.get(key) != want:
            errors.append(f"{key} differs from the scan oracle{_diff(out.get(key), want)}")
    if name == "service" and out["view_report"] != out["report"]:
        errors.append("report_view() after drain() differs from drain()'s report")
    return errors


def _diff(got: object, want: object) -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f" in {', '.join(map(str, keys[:6]))}"
    return f": got {str(got)[:40]!r}, want {str(want)[:40]!r}"


# -- repetitions ---------------------------------------------------------------------


@dataclass
class Rep:
    children: list[Child]
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def timed(self) -> Child:
        """The child whose wall time is the repetition's (figures: cold)."""
        return self.children[0]

    def count(self, name: str) -> float:
        return sum(c.result.get("counts", {}).get(name, 0) for c in self.children)


def run_rep(name: str, params: dict, seed: int, expected: dict, rep_id: str, trace: bool) -> Rep:
    work = fresh_dir(name)
    p = {**params, "seed": seed, "trace": trace, "rep_id": rep_id}
    try:
        if name == "figures":
            p["cache_dir"] = str(work / "cache")
            children = [spawn(name, {**p, "csv_dir": str(work / "cold")}, work)]
            if children[0].ok:
                children.append(spawn(name, {**p, "csv_dir": str(work / "warm")}, work))
        elif name == "service":
            children = [spawn(name, {**p, "workdir": str(work)}, work)]
        else:
            children = [spawn(name, p, work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c.error for c in children if not c.ok]
    if failed or (name == "figures" and len(children) < 2):
        return Rep(children, failed or ["figures cold pass failed"])
    return Rep(children, mismatches(name, children, expected))


def operations(rep: Rep) -> int:
    """A repetition is one operation; a session adds its windows, reports, checkpoints."""
    if not rep.ok:
        return 1
    samples = rep.timed.result.get("samples", {})
    return 1 + sum(len(v) for v in samples.values())


# -- metrics -------------------------------------------------------------------------


def e2e_samples(reps: list[Rep]) -> dict[str, list[float]]:
    """Per-repetition values of every end-to-end metric (good repetitions only)."""
    good = [r for r in reps if r.ok]
    return {
        "wall_s": [r.timed.wall for r in good],
        "setup_s": [c.setup for r in good for c in r.children],
        "tasks_per_s": [
            r.timed.result["counts"]["workload.tasks_done"] / (r.timed.wall - r.timed.setup)
            for r in good
        ],
        "peak_rss_mb": [r.timed.rss_mb for r in good],
    }


def extra_samples(reps: list[Rep]) -> dict[str, list[float]]:
    """Workload-specific latencies, pooled over the repetitions."""
    good = [r for r in reps if r.ok]
    out: dict[str, list[float]] = {}
    for key in ("window_ms", "report_ms", "checkpoint_ms"):
        pooled = [v for r in good for v in r.timed.result.get("samples", {}).get(key, [])]
        if pooled:
            out[key] = pooled
    if good and len(good[0].children) > 1:
        out["warm_wall_s"] = [r.children[1].wall for r in good]
    return out


def layer_metrics(traced: Rep, untraced: list[Rep]) -> dict[str, float]:
    """Every per-layer metric, from the traced repetition and the untraced ones."""
    totals: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for child in traced.children:
        trace = child.result.get("trace", {})
        for span, (calls, busy, own) in trace.get("totals", {}).items():
            t = totals.setdefault(span, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += busy
            t[2] += own
        for key, value in trace.get("counts", {}).items():
            # Worker count is a setting, not work: take it, do not add it.
            merge = max if key == "parallel.jobs" else float.__add__
            counts[key] = merge(float(counts.get(key, 0)), float(value))
    m: dict[str, float] = {}
    for span, with_calls in SPANS.items():
        calls, busy, _ = totals.get(span, (0, 0.0, 0.0))
        m[f"{span}_s"] = busy
        if with_calls:
            m[f"{span}_calls"] = calls
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own for span, (_, _, own) in totals.items() if span.split(".")[0] == layer
        )
    for key in COUNTS:
        m[key] = counts.get(key, 0) + traced.count(key)
    events = m["framework.events"]
    m["framework.us_per_event"] = m["framework.run_s"] / events * 1e6 if events else 0.0

    out = traced.timed.result["outputs"]
    report = out.get("report", {})
    resilience = out.get("resilience", {})
    m["framework.failures.crashes"] = resilience.get("failures_total", 0)
    m["framework.failures.config_faults"] = resilience.get("config_faults", 0)
    m["framework.failures.interrupts"] = resilience.get("interrupts_total", 0)
    m["framework.failures.retries"] = resilience.get("retries_total", 0)
    m["core.steps_per_task"] = report.get("avg_scheduling_steps_per_task", 0)
    m["core.suspended"] = report.get("total_suspension_events", 0)
    m["core.discarded"] = report.get("total_discarded_tasks", 0)

    extra = extra_samples(untraced)
    for key, p in (("window", 50), ("window", 99), ("report", 50), ("report", 90),
                   ("checkpoint", 50)):
        values = extra.get(f"{key}_ms", [])
        m[f"service.{key}_p{p}_ms"] = percentile(values, p) if values else 0.0
    warm = extra.get("warm_wall_s", [])
    m["parallel.warm_wall_s"] = statistics.median(warm) if warm else 0.0
    walls = [r.timed.wall for r in untraced if r.ok]
    base = statistics.median(walls) if walls else 0.0
    m["trace_overhead_pct"] = (traced.timed.wall / base - 1.0) * 100.0 if base else 0.0
    return m


def write_trace(name: str, seed: int, traced: Rep) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-s{seed}.json"
    children = [c.result.get("trace", {}) for c in traced.children]
    doc = {"workload": name, "seed": seed, "children": children}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# -- one workload --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    params = workload_params(name, smoke)
    expected = expected_outputs(oracle_key(name, seed, smoke))
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run_rep(name, params, seed, expected, f"{name}-s{seed}-r{len(reps)}", False))
    result: dict = {"reps": reps}
    if trace:
        traced = run_rep(name, params, seed, expected, f"{name}-s{seed}-traced", True)
        hot = {r.count("framework.hot_runs") for r in reps if r.ok}
        if traced.ok and hot and hot != {traced.count("framework.hot_runs")}:
            traced.errors.append(
                f"framework.hot_runs {traced.count('framework.hot_runs')} traced "
                f"vs {sorted(hot)} untraced"
            )
        reps = reps + [traced]
        if traced.ok:
            result["layers"] = layer_metrics(traced, result["reps"])
            result["trace_file"] = str(write_trace(name, seed, traced).relative_to(ROOT))
    result["attempted"] = sum(operations(r) for r in reps)
    result["failed"] = sum(1 for r in reps if not r.ok)
    result["errors"] = [e for r in reps for e in r.errors]
    return result


# -- reporting -----------------------------------------------------------------------


def metric_table(res: dict) -> dict[str, dict]:
    """Summaries of the end-to-end and workload-specific metrics."""
    units = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    table = {}
    for metric, values in e2e_samples(res["reps"]).items():
        unit, better = units[metric]
        table[metric] = {"unit": unit, "better": better, **summarize(values), "values": values}
    for key, values in extra_samples(res["reps"]).items():
        unit = "s" if key.endswith("_s") else "ms"
        metric = key if key.endswith("_s") else key.replace("_ms", "_latency_ms")
        table[metric] = {"unit": unit, "better": "lower", **summarize(values), "values": values}
    return table


def print_workload(name: str, seed: int, res: dict, table: dict[str, dict]) -> None:
    good = sum(1 for r in res["reps"] if r.ok)
    print(
        f"== {name}: seed {seed}, {good}/{len(res['reps'])} good repetitions, "
        f"nproc {os.cpu_count()}, python {platform.python_version()} =="
    )
    print(f"  {'metric':<22} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>6}  tail")
    for metric, s in table.items():
        tail = tail_percentile(s["n"])
        tail_text = "-"
        if tail is not None and tail > 50:
            tail_text = f"p{tail:g}={percentile(s['values'], tail):.6g}"
        print(
            f"  {metric:<22} {s['unit']:<8} {s['median']:>12.6g} {s['q1']:>12.6g} "
            f"{s['q3']:>12.6g} {s['n']:>6}  {tail_text}"
        )
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<22} {'fraction':<8} {rate:>12.6g}  "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for error in res["errors"]:
        print(f"  FAILED: {error}")
    if "layers" in res:
        print(f"  per-layer metrics (traced repetition, spans in {res['trace_file']}):")
        for metric, value in res["layers"].items():
            print(f"    {metric:<40} {value:.6g}")


def result_line(results: dict[str, dict], tables: dict[str, dict], trace: bool) -> dict:
    metrics: dict[str, dict] = {}
    single = len(results) == 1
    for name, res in results.items():
        prefix = "" if single else f"{name}."
        if trace:
            layers = res.get("layers", {})
            for m in SPEC["per_layer"]:
                metrics[prefix + m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
        else:
            for m in SPEC["end_to_end"]:
                metrics[prefix + m["name"]] = {
                    "value": tables[name][m["name"]]["median"], "unit": m["unit"]
                }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="run one workload (default: all four in turn)")
    ap.add_argument("--seed", type=int, default=42, help="workload seed (7 is held out)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measurement time per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="add a traced repetition and report per-layer metrics")
    ap.add_argument("--out", type=Path, default=None, help="write every sample here as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes for the harness tests; never a baseline")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        preflight()
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    tables = {}
    for name, res in results.items():
        tables[name] = metric_table(res)
        print_workload(name, args.seed, res, tables[name])
    if args.out is not None:
        doc = {
            "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
            "smoke": args.smoke, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "workloads": {
                name: {
                    "attempted": res["attempted"], "failed": res["failed"],
                    "metrics": tables[name], "layers": res.get("layers", {}),
                }
                for name, res in results.items()
            },
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    line = result_line(results, tables, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
