#!/usr/bin/env python
"""Wall-clock perf harness: the two resource-manager backends, head to head.

Runs the same simulations twice — once per backend (``array``, the
flat-table hot core; ``scan``, the reference linear-scan manager) — times
each arm, verifies the paper-facing report is identical across backends,
measures each arm's peak RSS, and writes the results to ``BENCH_perf.json``.

Wall-clock time and memory are the only things that may differ between
backends; Table I counters, per-task SL, and the Figure 6–10 series are
bit-identical by construction (the array backend bulk-charges exactly the
steps the simulated linear search would have taken — the array-vs-scan
differential suite pins it).

Each measurement runs in a forked child process, for two reasons: the
child's ``ru_maxrss`` high-water mark resets at fork, so every row gets an
honest per-run peak-RSS reading, and every arm starts from the same cold
caches instead of inheriting the previous arm's heap.

Usage::

    PYTHONPATH=src python tools/perf.py                 # full matrix
    PYTHONPATH=src python tools/perf.py --quick         # small smoke matrix
    PYTHONPATH=src python tools/perf.py --seed 7 -o out.json

Beyond the backend matrix it times the tracing overhead, an SEU campaign on
both backends, a windowed service session (the bench's ``service`` spec,
scan-manager windows against the hot loop), the parallel sweep engine and
one dreamlint pass, and records the host (Python, platform, CPU count).

The headline scale (200 nodes / 20k tasks, partial reconfiguration) is the
acceptance gate: the array backend must be >= 10x faster than scan, end to
end.  The 200 nodes / 100k tasks row is
the paper-scale regime the array backend makes routine (the figure
pipeline's ``--paper-scale`` escape hatch is retired; see README
"Backends").
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import DReAMSim, Node, RNG, Task  # noqa: E402
from repro.framework import FaultCampaignSpec, run_campaign  # noqa: E402
from repro.trace import DigestSink, TraceBus  # noqa: E402
from repro.workload import ConfigSpec, NodeSpec, TaskSpec  # noqa: E402
from repro.workload.generator import (  # noqa: E402
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

BACKENDS = ("array", "scan")

# (nodes, tasks, partial) — headline next-to-last so progress output ends on
# the paper-scale row the array backend makes routine.
FULL_MATRIX = [
    (100, 5000, False),
    (100, 5000, True),
    (200, 20000, False),
    (200, 20000, True),
    (200, 100000, True),
]
QUICK_MATRIX = [
    (50, 500, False),
    (50, 500, True),
]
HEADLINE = (200, 20000, True)

_FORK = multiprocessing.get_context("fork")


class WorkloadBundle:
    """One ``(nodes, tasks, seed)`` workload, generated exactly once.

    The Marsaglia generators are deterministic but not free; the timing
    matrix runs every cell ``len(BACKENDS)`` × ``repeats`` times, and
    regenerating the node table and 100k-task arrival stream each time
    charges workload construction to whichever arm runs it.  A bundle
    materialises the workload once and hands every arm a *fresh clone* of
    the mutable objects — ``Task`` and ``Node`` carry run state, while
    ``Configuration`` is frozen and safely shared — so each run starts from
    a bit-identical initial state and the timed region is simulation only.
    """

    def __init__(self, nodes: int, tasks: int, seed: int, configs: int = 50):
        rng = RNG(seed=seed)
        self.nodes = generate_nodes(NodeSpec(count=nodes), rng)
        self.configs = generate_configs(ConfigSpec(count=configs), rng)
        self.arrivals = list(
            generate_task_stream(TaskSpec(count=tasks), self.configs, rng)
        )

    def fresh(self):
        """``(nodes, configs, arrivals)`` with brand-new mutable state."""
        nodes = [
            Node(
                node_no=n.node_no,
                total_area=n.total_area,
                family=n.family,
                caps=n.caps,
                network_delay=n.network_delay,
            )
            for n in self.nodes
        ]
        arrivals = [
            TaskArrival(
                at=a.at,
                task=Task(
                    task_no=a.task.task_no,
                    required_time=a.task.required_time,
                    pref_config=a.task.pref_config,
                    data=a.task.data,
                ),
            )
            for a in self.arrivals
        ]
        return nodes, self.configs, arrivals


def time_run(bundle: WorkloadBundle, partial: bool, backend: str, trace=None):
    """Run one simulation off the bundle, returning (seconds, report_dict).

    Cloning happens outside the timed region: only simulation is measured.
    """
    nodes, configs, arrivals = bundle.fresh()
    t0 = time.perf_counter()
    sim = DReAMSim(
        nodes, configs, arrivals, partial=partial, backend=backend, trace=trace
    )
    result = sim.run()
    elapsed = time.perf_counter() - t0
    return elapsed, result.report.as_dict()


def _measure_child(bundle, partial, backend, conn):
    """Child half of :func:`measure_run`: time one arm, report its peak RSS."""
    elapsed, report = time_run(bundle, partial, backend)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send((elapsed, report, peak_kb))
    conn.close()


def measure_run(bundle: WorkloadBundle, partial: bool, backend: str):
    """One timed arm in a forked child: ``(seconds, report_dict, peak_rss_kb)``.

    Fork resets the child's ``ru_maxrss`` high-water mark to the RSS at the
    fork point, so the returned peak is this run's own footprint (workload
    bundle included) rather than a process-lifetime maximum that earlier,
    larger rows already pushed up.
    """
    parent_conn, child_conn = _FORK.Pipe(duplex=False)
    proc = _FORK.Process(
        target=_measure_child, args=(bundle, partial, backend, child_conn)
    )
    proc.start()
    child_conn.close()
    out = parent_conn.recv()
    proc.join()
    return out


def run_matrix(matrix, seed: int, repeats: int):
    """Time every (nodes, tasks, partial) cell on both backends.

    Per cell and backend: min wall-clock over ``repeats`` (best-of-N beats
    the scheduler noise that single-shot timings pick up) and max peak RSS.
    """
    rows = []
    bundles: dict[tuple[int, int], WorkloadBundle] = {}
    for nodes, tasks, partial in matrix:
        mode = "partial" if partial else "full"
        if (nodes, tasks) not in bundles:
            bundles[(nodes, tasks)] = WorkloadBundle(nodes, tasks, seed)
        bundle = bundles[(nodes, tasks)]
        seconds = {b: float("inf") for b in BACKENDS}
        peaks = {b: 0 for b in BACKENDS}
        reports = {}
        for _ in range(repeats):
            for backend in BACKENDS:
                t, reports[backend], peak_kb = measure_run(bundle, partial, backend)
                seconds[backend] = min(seconds[backend], t)
                peaks[backend] = max(peaks[backend], peak_kb)
        row = {
            "nodes": nodes,
            "tasks": tasks,
            "mode": mode,
            "seed": seed,
            "array_seconds": round(seconds["array"], 3),
            "scan_seconds": round(seconds["scan"], 3),
            "array_peak_rss_mb": round(peaks["array"] / 1024, 1),
            "scan_peak_rss_mb": round(peaks["scan"] / 1024, 1),
            "speedup_vs_scan": round(seconds["scan"] / seconds["array"], 2),
            "reports_equal": reports["array"] == reports["scan"],
            "avg_scheduling_steps_per_task": reports["array"][
                "avg_scheduling_steps_per_task"
            ],
        }
        rows.append(row)
        print(
            f"{nodes:>4} nodes x {tasks:>6} tasks [{mode:>7}]  "
            f"array {seconds['array']:6.2f}s  scan {seconds['scan']:6.2f}s  "
            f"{row['speedup_vs_scan']:.2f}x vs scan  "
            f"rss {row['array_peak_rss_mb']:.0f}MB  "
            f"reports_equal={row['reports_equal']}"
        )
        if not row["reports_equal"]:
            got, ref = reports["array"], reports["scan"]
            diff = {
                k: (got.get(k), ref.get(k))
                for k in set(got) | set(ref)
                if got.get(k) != ref.get(k)
            }
            print(f"  REPORT MISMATCH (array vs scan): {diff}", file=sys.stderr)
    return rows


def run_trace_overhead(nodes: int, tasks: int, partial: bool, seed: int, repeats: int):
    """Measure the observability layer's wall-clock cost at one scale.

    Three timings (min over ``repeats``, array backend): tracing disabled
    (``trace=None`` — the default every other benchmark row uses, paying
    only the per-site ``is not None`` guards), tracing into a
    :class:`DigestSink` only, and tracing with digest plus a
    :class:`MemorySink` keeping the lines.  The disabled run *is* the headline configuration, so
    comparing the headline across commits measures the guards' cost;
    ``digest_overhead_pct`` is the opt-in price of a digest-producing run.
    """
    from repro.trace import MemorySink

    bundle = WorkloadBundle(nodes, tasks, seed)

    def best(factory):
        elapsed = float("inf")
        for _ in range(repeats):
            t, _ = time_run(bundle, partial, backend="array", trace=factory())
            elapsed = min(elapsed, t)
        return elapsed

    disabled = best(lambda: None)
    digest = best(lambda: TraceBus(DigestSink()))
    memory = best(lambda: TraceBus(MemorySink(), DigestSink()))
    row = {
        "scale": f"{nodes} nodes / {tasks} tasks "
        f"({'partial' if partial else 'full'} reconfiguration, array backend)",
        "disabled_seconds": round(disabled, 3),
        "digest_seconds": round(digest, 3),
        "digest_and_memory_seconds": round(memory, 3),
        "digest_overhead_pct": round(100.0 * (digest / disabled - 1.0), 1),
        "note": (
            "disabled == the default every row above uses; its cost vs the "
            "pre-instrumentation commit is the diff of the headline numbers "
            "across commits (gate: < 2%)."
        ),
    }
    print(
        f"tracing overhead @ {row['scale']}: disabled {disabled:6.2f}s, "
        f"digest {digest:6.2f}s (+{row['digest_overhead_pct']}%), "
        f"digest+memory {memory:6.2f}s"
    )
    return row


def run_faults_scenario(seed: int, repeats: int, quick: bool):
    """Time the fault-injection layer: SEU campaign on both backends.

    The fault layer rides the same event kernel as the base simulation, so
    the array backend's speedup must survive an active campaign; the
    resilience reports (and Table I) must stay equal across backends.
    """
    nodes, tasks = (50, 500) if quick else (200, 20000)
    spec = FaultCampaignSpec(
        nodes=nodes,
        tasks=tasks,
        configs=50,
        seed=seed,
        seu_rate=300,
        scrub_factor=2,
        retry_budget=3,
        backoff_base=16,
        backoff_cap=1024,
    )

    def best(backend):
        elapsed, result, injector = float("inf"), None, None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result, injector = run_campaign(spec, backend=backend)
            elapsed = min(elapsed, time.perf_counter() - t0)
        return elapsed, result, injector

    seconds, results, resilience = {}, {}, {}
    for backend in BACKENDS:
        seconds[backend], results[backend], injector = best(backend)
        resilience[backend] = injector.resilience(results[backend])
    rep = resilience["array"]
    row = {
        "scale": f"{nodes} nodes / {tasks} tasks (partial, SEU campaign)",
        "spec": {
            "seu_rate": spec.seu_rate,
            "scrub_factor": spec.scrub_factor,
            "retry_budget": spec.retry_budget,
            "backoff_base": spec.backoff_base,
            "backoff_cap": spec.backoff_cap,
        },
        "array_seconds": round(seconds["array"], 3),
        "scan_seconds": round(seconds["scan"], 3),
        "speedup_vs_scan": round(seconds["scan"] / seconds["array"], 2),
        "reports_equal": results["array"].report == results["scan"].report,
        "resilience_equal": rep == resilience["scan"],
        "interrupts_total": rep.interrupts_total,
        "config_faults": rep.config_faults,
        "goodput": round(rep.goodput, 4),
    }
    print(
        f"faults @ {row['scale']}: array {seconds['array']:6.2f}s  "
        f"scan {seconds['scan']:6.2f}s  "
        f"{row['speedup_vs_scan']:.2f}x vs scan  "
        f"reports_equal={row['reports_equal']}  "
        f"resilience_equal={row['resilience_equal']}"
    )
    return row


#: The windowed ``service`` session of ``bench/run.py``: window width and
#: the report/checkpoint cadence, in windows.
SERVICE_WINDOW, SERVICE_REPORT_EVERY, SERVICE_CHECKPOINT_EVERY = 2000, 10, 50


def _service_child(spec: FaultCampaignSpec, backend: str, conn) -> None:
    """Child half of :func:`run_service_windows`: one timed session.

    The arrivals are the ones ``build_campaign`` would draw for the spec,
    fed through a :class:`ReplaySource` to a service built with
    ``tasks=0``, as the bench feeds its JSONL tail.  On ``backend="scan"``
    every window takes the kernel, the scheduler and the scan manager; on
    ``"array"`` the hot loop.
    """
    import dataclasses

    from repro.rng import RNG
    from repro.service import ReplaySource, ServiceSimulator

    rng = RNG(seed=spec.seed)
    generate_nodes(NodeSpec(count=spec.nodes), rng)
    configs = generate_configs(ConfigSpec(count=spec.configs), rng)
    arrivals = list(generate_task_stream(TaskSpec(count=spec.tasks), configs, rng))
    svc = ServiceSimulator(dataclasses.replace(spec, tasks=0), backend=backend)
    svc.source = ReplaySource(arrivals)
    t0 = time.perf_counter()
    advance_s = 0.0
    now = windows = 0
    while not svc.ready_to_drain:
        now += SERVICE_WINDOW
        t1 = time.perf_counter()
        svc.advance_to(now)
        advance_s += time.perf_counter() - t1
        windows += 1
        if windows % SERVICE_REPORT_EVERY == 0:
            svc.report_view()
        if windows % SERVICE_CHECKPOINT_EVERY == 0:
            svc.checkpoint().to_json()
    result = svc.drain()
    elapsed = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    conn.send((elapsed, advance_s, windows, svc.hexdigest(), result.report.as_dict(), peak_kb))
    conn.close()


def run_service_windows(seed: int, repeats: int, quick: bool):
    """Time a windowed service session: scan-manager windows vs the hot loop.

    The bench's ``service`` spec (200 nodes / 5 000 tasks, 2 000-tick
    windows, a report view every 10 windows, a checkpoint every 50), each
    arm in a forked child (min wall-clock over ``repeats``, max peak RSS).
    The two arms must seal with the same digest and Table I.
    """
    nodes, tasks = (50, 500) if quick else (200, 5000)
    spec = FaultCampaignSpec(nodes=nodes, tasks=tasks, seed=seed)
    backends = ("scan", "array")
    seconds = {b: float("inf") for b in backends}
    advance = {b: float("inf") for b in backends}
    peaks = {b: 0 for b in backends}
    outputs = {}
    for _ in range(repeats):
        for backend in backends:
            parent_conn, child_conn = _FORK.Pipe(duplex=False)
            proc = _FORK.Process(target=_service_child, args=(spec, backend, child_conn))
            proc.start()
            child_conn.close()
            elapsed, advance_s, windows, digest, report, peak_kb = parent_conn.recv()
            proc.join()
            seconds[backend] = min(seconds[backend], elapsed)
            advance[backend] = min(advance[backend], advance_s)
            peaks[backend] = max(peaks[backend], peak_kb)
            outputs[backend] = (digest, report)
    row = {
        "scale": f"{nodes} nodes / {tasks} tasks (partial, "
        f"{SERVICE_WINDOW}-tick windows, a view every {SERVICE_REPORT_EVERY} "
        f"and a checkpoint every {SERVICE_CHECKPOINT_EVERY} windows)",
        "windows": windows,
        "scan_seconds": round(seconds["scan"], 3),
        "hot_seconds": round(seconds["array"], 3),
        "scan_advance_seconds": round(advance["scan"], 3),
        "hot_advance_seconds": round(advance["array"], 3),
        "speedup": round(seconds["scan"] / seconds["array"], 2),
        "scan_peak_rss_mb": round(peaks["scan"] / 1024, 1),
        "hot_peak_rss_mb": round(peaks["array"] / 1024, 1),
        "digest": outputs["array"][0],
        "outputs_equal": outputs["scan"] == outputs["array"],
    }
    print(
        f"service windows @ {row['scale']}: scan {seconds['scan']:6.2f}s  "
        f"hot {seconds['array']:6.2f}s  {row['speedup']:.2f}x  "
        f"(advance {advance['scan']:5.2f}s -> {advance['array']:5.2f}s)  "
        f"outputs_equal={row['outputs_equal']}"
    )
    return row


def run_sweep_engine(seed: int, repeats: int, quick: bool):
    """Time the parallel sweep engine: jobs=1 vs jobs=4, cold vs warm cache.

    All arms execute the identical :class:`RunSpec` list (a Fig. 6–10 style
    task-count sweep, partial and full modes, array backend, digests on) and
    the merged payloads are compared for bit-identical reports and digests.
    The worker workload memo is prewarmed first (the forked pool inherits
    it), so the timed region is simulation + dispatch only — workload
    generation is charged to neither arm, mirroring the ``WorkloadBundle``
    discipline the backend matrix uses.

    The jobs speedup is wall-clock only; a sub-1x result is *annotated*
    with the detected CPU count, never gated — on a 1-core container (or a
    host whose cores the pool cannot use) the engine's value is the
    bit-identical merge, and pool overhead legitimately exceeds the win.
    The cache rows time one cold pass (every spec executes and is stored)
    against one warm pass (every spec served from disk) through a
    throwaway cache directory; warm must land under 20% of cold with
    payloads bit-identical to the uncached serial run.
    """
    import shutil
    import tempfile

    from repro.parallel import (
        ResultCache,
        RunSpec,
        SweepExecutor,
        prewarm_workloads,
    )

    if quick:
        nodes, task_counts = 50, (200, 400)
    else:
        nodes, task_counts = 200, (1000, 2000, 5000, 10000)
    specs = [
        RunSpec(
            campaign=FaultCampaignSpec(
                nodes=nodes, configs=50, tasks=tasks, partial=partial, seed=seed
            ),
            backend="array",
            collect_digest=True,
        )
        for tasks in task_counts
        for partial in (True, False)
    ]
    prewarmed = prewarm_workloads(specs)

    def best(jobs):
        elapsed, payloads = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            payloads = SweepExecutor(jobs=jobs).run(specs)
            elapsed = min(elapsed, time.perf_counter() - t0)
        return elapsed, payloads

    serial_s, serial_payloads = best(1)
    parallel_s, parallel_payloads = best(4)
    payloads_equal = [
        (s.report, s.digest) for s in serial_payloads
    ] == [(p.report, p.digest) for p in parallel_payloads]

    # Resumable cache: one cold pass (stores everything), one warm pass
    # (pure hits).  Single passes, not best-of-N — a repeated "cold" pass
    # would be warm.
    cache_dir = tempfile.mkdtemp(prefix="dreamsim-sweep-cache-")
    try:
        cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        SweepExecutor(jobs=1, cache=cache).run(specs)
        cold_s = time.perf_counter() - t0
        cold = (cache.stats.hits, cache.stats.misses, cache.stats.stored)
        cache.reset_stats()
        t0 = time.perf_counter()
        warm_payloads = SweepExecutor(jobs=1, cache=cache).run(specs)
        warm_s = time.perf_counter() - t0
        warm = (cache.stats.hits, cache.stats.misses, cache.stats.stored)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cache_payloads_equal = [
        (s.report, s.digest) for s in serial_payloads
    ] == [(p.report, p.digest) for p in warm_payloads]
    warm_pct = round(100.0 * warm_s / cold_s, 1) if cold_s else None

    cpus = os.cpu_count()
    speedup = round(serial_s / parallel_s, 2) if parallel_s else None
    row = {
        "scale": f"{nodes} nodes x tasks {list(task_counts)} x (partial, full)",
        "spec_count": len(specs),
        "cpus": cpus,
        "workloads_prewarmed": prewarmed,
        "jobs1_seconds": round(serial_s, 3),
        "jobs4_seconds": round(parallel_s, 3),
        "speedup": speedup,
        "payloads_equal": payloads_equal,
        "cache_cold_seconds": round(cold_s, 3),
        "cache_warm_seconds": round(warm_s, 3),
        "cache_warm_pct_of_cold": warm_pct,
        "cache_cold_stats": {"hits": cold[0], "misses": cold[1], "stored": cold[2]},
        "cache_warm_stats": {"hits": warm[0], "misses": warm[1], "stored": warm[2]},
        "cache_payloads_equal": cache_payloads_equal,
        "note": (
            "jobs=4 should be >= 2x on hosts with >= 4 usable CPUs; below "
            "that the engine's value is the bit-identical merge, not "
            "wall-clock.  Worker workload memo prewarmed: the timed region "
            "is simulation + dispatch only.  Cache gate: warm pass < 20% "
            "of cold wall-clock, payloads bit-identical to uncached serial."
        ),
    }
    if speedup is not None and speedup < 1.0:
        row["annotation"] = (
            f"sub-1x parallel speedup ({speedup}x) on a host reporting "
            f"{cpus} CPU(s): pool startup/pickling overhead exceeded the "
            "parallel win at this scale — informational, not a failure."
        )
    print(
        f"sweep engine @ {row['scale']}: jobs=1 {serial_s:6.2f}s  "
        f"jobs=4 {parallel_s:6.2f}s  speedup {row['speedup']:.2f}x  "
        f"payloads_equal={payloads_equal}  (host has {cpus} CPU(s))"
    )
    print(
        f"  result cache: cold {cold_s:6.2f}s ({cold[2]} stored)  "
        f"warm {warm_s:6.2f}s ({warm[0]} hit(s), {warm_pct}% of cold)  "
        f"cache_payloads_equal={cache_payloads_equal}"
    )
    if "annotation" in row:
        print(f"  note: {row['annotation']}")
    return row


def run_dreamlint_timing(repeats: int):
    """Time one dreamlint pass over the full ``src/repro`` tree.

    The linter runs in CI on every push, so its wall-clock cost is part of
    the perf budget this file tracks; the row also re-asserts the clean-tree
    invariant (zero errors) the static-analysis job gates on.  Since v2 the
    pass includes the whole-program flow rules (DL010–DL013: CFG + dataflow
    over every class); their share is timed separately so a flow-engine
    regression is visible against the syntactic baseline.  All four flow
    rules share one cached project model per run — the flow share measures
    the engine, not four rebuilds.
    """
    from repro.lint import run_lint

    tree = Path(__file__).resolve().parent.parent / "src" / "repro"
    flow_rules = {"DL010", "DL011", "DL012", "DL013"}
    elapsed, report = float("inf"), None
    flow_elapsed = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = run_lint(tree)
        elapsed = min(elapsed, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_lint(tree, rule_ids=flow_rules)
        flow_elapsed = min(flow_elapsed, time.perf_counter() - t0)
    row = {
        "tool": "dreamlint",
        "target": "src/repro",
        "files": len(report.files),
        "seconds": round(elapsed, 3),
        "flow_rules_seconds": round(flow_elapsed, 3),
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "suppressed": len(report.suppressed),
    }
    print(
        f"dreamlint @ src/repro: {row['files']} files in {elapsed:6.2f}s  "
        f"(flow rules {flow_elapsed:5.2f}s; {row['errors']} error(s), "
        f"{row['warnings']} warning(s))"
    )
    return row


def main(argv=None) -> int:
    """CLI entry point; returns a process exit status."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--repeats", type=int, default=1, help="timing repeats (min taken)")
    ap.add_argument(
        "--quick", action="store_true", help="small matrix for CI smoke runs"
    )
    ap.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_perf.json"),
        help="output JSON path (default: repo-root BENCH_perf.json)",
    )
    args = ap.parse_args(argv)

    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    rows = run_matrix(matrix, args.seed, max(1, args.repeats))
    overhead_scale = QUICK_MATRIX[-1] if args.quick else HEADLINE
    tracing = run_trace_overhead(
        overhead_scale[0], overhead_scale[1], overhead_scale[2],
        args.seed, max(1, args.repeats),
    )
    faults = run_faults_scenario(args.seed, max(1, args.repeats), args.quick)
    service = run_service_windows(args.seed, max(1, args.repeats), args.quick)
    sweep_engine = run_sweep_engine(args.seed, max(1, args.repeats), args.quick)
    static_analysis = run_dreamlint_timing(max(1, args.repeats))

    headline = next(
        (
            r
            for r in rows
            if (r["nodes"], r["tasks"], r["mode"] == "partial") == HEADLINE
        ),
        rows[-1],
    )
    payload = {
        "description": (
            "Wall-clock and peak-RSS comparison of the two resource-manager "
            "backends: array (flat-table hot core) and the reference "
            "linear-scan manager.  Simulated step accounting is bit-identical "
            "across backends; only wall-clock and memory differ."
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "command": "PYTHONPATH=src python tools/perf.py"
        + (" --quick" if args.quick else ""),
        "headline": {
            "scale": f"{headline['nodes']} nodes / {headline['tasks']} tasks "
            f"({headline['mode']} reconfiguration)",
            "before_scan_seconds": headline["scan_seconds"],
            "after_array_seconds": headline["array_seconds"],
            "speedup_vs_scan": headline["speedup_vs_scan"],
        },
        "results": rows,
        "tracing_overhead": tracing,
        "faults": faults,
        "service_windows": service,
        "sweep_engine": sweep_engine,
        "static_analysis": static_analysis,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"headline: {payload['headline']['scale']} -> "
        f"{payload['headline']['speedup_vs_scan']}x vs scan"
    )
    if not all(r["reports_equal"] for r in rows):
        print("FAIL: reports differ between backends", file=sys.stderr)
        return 1
    if not (faults["reports_equal"] and faults["resilience_equal"]):
        print("FAIL: fault-campaign reports differ between backends", file=sys.stderr)
        return 1
    if not sweep_engine["payloads_equal"]:
        print(
            "FAIL: parallel sweep payloads differ from serial", file=sys.stderr
        )
        return 1
    if not sweep_engine["cache_payloads_equal"]:
        print(
            "FAIL: warm-cache sweep payloads differ from serial", file=sys.stderr
        )
        return 1
    warm_pct = sweep_engine["cache_warm_pct_of_cold"]
    if warm_pct is not None and warm_pct >= 20.0:
        print(
            f"FAIL: warm-cache sweep took {warm_pct}% of the cold pass "
            "(gate: < 20%)",
            file=sys.stderr,
        )
        return 1
    if static_analysis["errors"]:
        print("FAIL: dreamlint found errors in src/repro", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
