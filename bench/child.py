"""One benchmark repetition, or one oracle computation, in its own process.

Usage (by ``bench/run.py``; not meant to be run by hand)::

    python bench/child.py KIND PARAMS_JSON OUT_PATH

``KIND`` is ``warmup``, a workload name (``batch``, ``faults``,
``service``, ``figures``) or ``oracle``.  ``PARAMS_JSON`` carries the
workload parameters and the seed; ``OUT_PATH`` receives this process's
result as JSON.  The ``ready`` stamp is ``time.perf_counter()``, which on
Linux reads CLOCK_MONOTONIC like the parent's spawn stamp, so the parent
computes set-up time as ``ready - spawn``.

With ``"trace": true`` in the parameters, :mod:`spans` wraps the ``repro``
layer boundaries after the import and the spans go into the result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def terminal_tasks(report) -> int:
    return report.total_completed_tasks + report.total_discarded_tasks


def campaign_spec(p: dict, seed: int, tasks: int):
    from repro.framework.campaign import FaultCampaignSpec

    return FaultCampaignSpec(
        nodes=p["nodes"], tasks=tasks, partial=True, seed=seed, **p.get("faults", {})
    )


def digest_bus():
    from repro.trace import DigestSink, TraceBus

    bus = TraceBus()
    sink = DigestSink()
    bus.attach(sink)
    return bus, sink


def print_report(d: dict, title: str) -> None:
    print(f"== {title} ==")
    for key, value in d.items():
        print(f"  {key:<36} {value}")


# -- workloads ---------------------------------------------------------------------


def run_campaign(p: dict, seed: int, tracer) -> tuple[float, dict]:
    """``dreamsim run``: build the campaign, run it, print Table I."""
    from repro.framework.campaign import build_campaign
    from repro.framework.hotloop import hot_eligible

    bus = sink = None
    if p.get("digest"):
        bus, sink = digest_bus()
    sim, injector = build_campaign(
        campaign_spec(p, seed, p["tasks"]), backend="array", trace=bus
    )
    ready = time.perf_counter()
    hot = hot_eligible(sim)
    result = sim.run()
    out = {"report": result.report.as_dict()}
    print_report(out["report"], "Table I")
    if injector is not None:
        out["resilience"] = injector.resilience(result).as_dict()
        print_report(out["resilience"], "resilience")
    if sink is not None:
        out["digest"] = sink.hexdigest()
        print(f"trace digest: {out['digest']}")
    counts = {
        "framework.hot_runs": int(hot),
        "framework.events": sim.env.events_processed,
        "workload.tasks_done": terminal_tasks(result.report),
    }
    return ready, {"outputs": out, "counts": counts}


def feed_records(spec) -> list[tuple[int, str]]:
    """The service's arrivals as pre-rendered JSONL records, in arrival order.

    The same draws ``build_campaign`` makes for ``tasks=N``, so the batch
    run of the same spec is the service's oracle.
    """
    from repro.rng import RNG
    from repro.workload import ConfigSpec, NodeSpec, TaskSpec
    from repro.workload.generator import (
        generate_configs,
        generate_nodes,
        generate_task_stream,
    )

    rng = RNG(seed=spec.seed)
    generate_nodes(NodeSpec(count=spec.nodes), rng)
    configs = generate_configs(ConfigSpec(count=spec.configs), rng)
    known = {c.config_no for c in configs}
    records = []
    for arrival in generate_task_stream(TaskSpec(count=spec.tasks), configs, rng):
        task = arrival.task
        pref = task.pref_config
        rec = {"no": task.task_no, "at": arrival.at, "req": task.required_time,
               "pref": pref.config_no}
        if pref.config_no not in known:
            rec["pref_area"] = pref.req_area
            rec["pref_ctime"] = pref.config_time
        records.append((arrival.at, json.dumps(rec) + "\n"))
    return records


def run_service(p: dict, seed: int, tracer) -> tuple[float, dict]:
    """A windowed service session fed by a JSONL tail, one window ahead."""
    from repro.service import ServiceSimulator
    from repro.service.sources import JsonlTailSource

    workdir = Path(p["workdir"])
    feed = workdir / "feed.jsonl"
    records = feed_records(campaign_spec(p, seed, p["tasks"]))
    feed.write_text("", encoding="utf-8")
    svc = ServiceSimulator(campaign_spec(p, seed, 0), backend="array")
    source = JsonlTailSource(feed, svc.sim.rim.configs)
    svc.source = source
    ready = time.perf_counter()

    window = p["window"]
    window_ms: list[float] = []
    report_ms: list[float] = []
    checkpoint_ms: list[float] = []
    replayed = 0
    snapshot_bytes = 0
    written = 0
    now = 0
    clock = time.perf_counter
    with open(feed, "a", encoding="utf-8") as fh:
        while True:
            while written < len(records) and records[written][0] <= now + 2 * window:
                fh.write(records[written][1])
                written += 1
            fh.flush()
            if written == len(records):
                source.close()
            now += window
            t = clock()
            svc.advance_to(now)
            window_ms.append((clock() - t) * 1e3)
            if len(window_ms) % p["report_every"] == 0:
                t = clock()
                view = svc.report_view()
                report_ms.append((clock() - t) * 1e3)
                replayed += view.events_seen
            if len(window_ms) % p["checkpoint_every"] == 0:
                t = clock()
                path = svc.checkpoint().write(workdir / "snapshot.json")
                checkpoint_ms.append((clock() - t) * 1e3)
                snapshot_bytes = path.stat().st_size
            if svc.sim.env.pending_count == 0 and source.exhausted:
                break
    result = svc.drain()
    final_view = svc.report_view()
    report = result.report.as_dict()
    print_report(report, "Table I")
    print(f"trace digest: {svc.hexdigest()}")
    counts = {
        "framework.events": svc.sim.env.events_processed,
        "service.windows": len(window_ms),
        "service.records": len(records),
        "service.records_rejected": len(records) - result.report.total_tasks_generated,
        "service.snapshot_bytes": snapshot_bytes,
        "trace.replay_events": replayed + final_view.events_seen,
        "trace.memory_events": len(svc.memory),
        "workload.tasks_done": terminal_tasks(result.report),
    }
    outputs = {
        "report": report,
        "digest": svc.hexdigest(),
        "view_report": final_view.report.as_dict(),
    }
    samples = {"window_ms": window_ms, "report_ms": report_ms, "checkpoint_ms": checkpoint_ms}
    return ready, {"outputs": outputs, "counts": counts, "samples": samples}


def figures_argv(p: dict, seed: int) -> list[str]:
    return [
        "figures", "--seed", str(seed), "-j", str(p["jobs"]),
        "--tasks", *map(str, p["tasks"]),
        "--cache-dir", p["cache_dir"], "--csv", p["csv_dir"],
    ]


def run_figures(p: dict, seed: int, tracer) -> tuple[float, dict]:
    """``dreamsim figures`` on a (cold or warm) result cache.

    Every scenario of the grid runs to completion, so each generated task
    ends completed or discarded: the grid's task total is its terminal count.
    """
    import contextlib

    from repro.analysis.figures import FIGURES
    from repro.cli.main import main

    ready = time.perf_counter()
    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
        rc = main(figures_argv(p, seed))
    csvs = {
        f.name: f.read_text(encoding="utf-8")
        for f in sorted(Path(p["csv_dir"]).glob("*.csv"))
    }
    node_counts = {spec["nodes"] for spec in FIGURES.values()}
    counts = {"workload.tasks_done": 2 * len(node_counts) * sum(p["tasks"])}
    return ready, {"outputs": {"rc": rc, "csvs": csvs}, "counts": counts}


# -- oracle ------------------------------------------------------------------------


def oracle(p: dict, seed: int) -> dict:
    """Expected outputs, computed on the ``scan`` backend (the executable spec)."""
    from repro.framework.campaign import build_campaign

    workload = p["workload"]
    if workload == "figures":
        from repro.analysis.figures import FIGURES, build_figure
        from repro.analysis.runner import prefetch_scenarios, run_sweep, sweep_scenarios

        nodes = sorted({spec["nodes"] for spec in FIGURES.values()})
        grid = [sc for n in nodes for sc in sweep_scenarios(n, p["tasks"], seed)]
        prefetch_scenarios(grid, jobs=p["jobs"], backend="scan")
        sweeps = {n: run_sweep(n, p["tasks"], seed, backend="scan") for n in nodes}
        return {
            "csvs": {
                f"{fid}.csv": build_figure(fid, sweeps[spec["nodes"]]).to_csv()
                for fid, spec in sorted(FIGURES.items())
            }
        }
    bus = sink = None
    if workload != "batch":
        bus, sink = digest_bus()
    sim, injector = build_campaign(
        campaign_spec(p, seed, p["tasks"]), backend="scan", trace=bus
    )
    result = sim.run()
    out = {"report": result.report.as_dict()}
    if workload == "faults":
        out["resilience"] = injector.resilience(result).as_dict()
    if workload in ("faults", "service"):
        out["digest"] = sink.hexdigest()
    return out


WORKLOADS = {
    "batch": run_campaign,
    "faults": run_campaign,
    "service": run_service,
    "figures": run_figures,
}


def main(kind: str, params: dict, out_path: str) -> None:
    import repro.cli.main  # noqa: F401 - what `dreamsim` imports first

    imported = time.perf_counter()
    seed = params["seed"]
    if kind == "warmup":
        result: dict = {}
    elif kind == "oracle":
        result = {"expected": oracle(params, seed)}
    else:
        tracer = None
        if params.get("trace"):
            from spans import Tracer, install

            tracer = Tracer(params["rep_id"])
            tracer.record("cli.import", START, imported)
            install(tracer)
        ready, result = WORKLOADS[kind](params, seed, tracer)
        result["ready"] = ready
        if tracer is not None:
            result["trace"] = tracer.as_json()
    result["start"] = START
    result["imported"] = imported
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]), sys.argv[3])
