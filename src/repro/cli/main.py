"""The ``dreamsim`` command-line interface.

Subcommands
-----------
``run``
    One simulation with Table II defaults; prints the Table I report and can
    write the XML report (output subsystem).
``serve``
    The same campaign as a long-lived service: windowed advancement with
    optional SWF arrival replay, periodic snapshots (``--checkpoint-every``)
    and deterministic ``--resume`` (byte-identical digest and report).
``sweep``
    Task-count sweep at one node count, both modes; prints a metric table.
``figures``
    Regenerate the paper's figures (ASCII plots + numeric tables) at reduced
    or full ``--paper-scale``.
``claims``
    Evaluate every §VI-A qualitative claim and print the scorecard.
``graph``
    Schedule a generated task graph (future-work extension) and report
    makespan vs. the critical-path bound.
``lint``
    Run dreamlint (the determinism & accounting linter) over the installed
    package or explicit paths; same flags as ``tools/dreamlint.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.framework.report import write_report_xml
from repro.resources import BACKENDS, resolve_backend

# The parser's defaults from repro.analysis (paperconfig's DEFAULT_SEED and
# DEFAULT_TASK_SWEEP, the FIGURES ids), spelled out so that building the
# parser imports neither repro.analysis nor repro.lint: each subcommand
# imports what it needs in its handler.  tests/test_cli.py checks they agree.
DEFAULT_SEED = 20120521
DEFAULT_TASK_SWEEP = (1_000, 2_000, 5_000, 10_000, 15_000, 20_000)
FIGURE_IDS = ("fig10", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="simulation seed")
    p.add_argument("--configs", type=int, default=50, help="number of configurations")


def _jobs_type(value: str) -> int:
    """``--jobs`` argument: non-negative int (0 = one worker per CPU)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid jobs value: {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}"
        )
    return jobs


def _time_scale_type(value: str) -> float:
    """``--time-scale`` argument: a finite float > 0."""
    try:
        scale = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid time scale: {value!r}")
    if not 0 < scale < float("inf"):  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(
            f"time scale must be finite and > 0, got {value}"
        )
    return scale


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-j", "--jobs", type=_jobs_type, default=1, metavar="N",
        help="worker processes for the sweep engine "
        "(1 = serial, 0 = one per CPU; results are bit-identical either way)",
    )


def _resolved_backend(args: argparse.Namespace) -> str:
    """Resolve ``--backend``; the default is the array backend.

    Both backends produce bit-identical results (the differential suite
    asserts it), so the fastest one is the only sensible default.
    """
    return resolve_backend(getattr(args, "backend", None))


def _add_backend(p: argparse.ArgumentParser, note: str) -> None:
    p.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help=f"resource-manager backend (default: array; {note})",
    )


def _resolved_jobs(args: argparse.Namespace) -> int:
    """Resolve ``--jobs`` (0 → CPU count), announcing the resolution."""
    from repro.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    if args.jobs == 0:
        print(f"--jobs 0 resolved to {jobs} (one worker per CPU)", file=sys.stderr)
    return jobs


def _add_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="resumable on-disk result cache: completed runs persist here "
        "keyed by spec content, so a re-run (after a crash or an edit to "
        "one arm) executes only the missing specs",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (one-off override; neither reads nor writes)",
    )


def _resolved_cache(args: argparse.Namespace):
    """Build the ResultCache from ``--cache-dir``/``--no-cache`` (or None)."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None or getattr(args, "no_cache", False):
        return None
    from repro.parallel import ResultCache

    return ResultCache(cache_dir)


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    """The fault-injection knobs shared by ``run`` and ``serve``."""
    faults = p.add_argument_group(
        "fault injection",
        "opt-in fault campaign; any of --faults, --mtbf, --seu-rate or "
        "--burst-rate enables it and a ResilienceReport is printed after "
        "Table I",
    )
    faults.add_argument(
        "--faults", action="store_true",
        help="enable the crash process with default parameters",
    )
    faults.add_argument(
        "--mtbf", type=int, default=None, metavar="TICKS",
        help="mean ticks between node crashes (default 5000 with --faults)",
    )
    faults.add_argument(
        "--mttr", type=int, default=500, metavar="TICKS",
        help="mean node repair time (default 500)",
    )
    faults.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="stop injecting node-loss events after N",
    )
    faults.add_argument(
        "--seu-rate", type=int, default=None, metavar="TICKS",
        help="mean ticks between transient SEU configuration faults",
    )
    faults.add_argument(
        "--scrub-factor", type=int, default=1, metavar="K",
        help="scrub duration = config_time x K (default 1)",
    )
    faults.add_argument(
        "--burst-rate", type=int, default=None, metavar="TICKS",
        help="mean ticks between correlated failure bursts",
    )
    faults.add_argument(
        "--burst-size", type=int, default=2, metavar="K",
        help="nodes felled per burst (default 2)",
    )
    faults.add_argument(
        "--burst-group", type=int, default=8, metavar="W",
        help="power-group width: nodes n with equal n//W fail together",
    )
    faults.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="max fault interrupts per task before discard (default unbounded)",
    )
    faults.add_argument(
        "--backoff-base", type=int, default=0, metavar="TICKS",
        help="exponential-backoff base delay (0 = instant resubmit, default)",
    )
    faults.add_argument(
        "--backoff-cap", type=int, default=None, metavar="TICKS",
        help="cap on one backoff delay",
    )
    faults.add_argument(
        "--quarantine-threshold", type=int, default=None, metavar="MILLI",
        help="health score (milli-units) that quarantines a node",
    )
    faults.add_argument(
        "--probation", type=int, default=None, metavar="TICKS",
        help="quarantine hold duration",
    )
    faults.add_argument(
        "--health-half-life", type=int, default=None, metavar="TICKS",
        help="failure-score decay half-life",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-process seed (default: workload seed + 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``dreamsim`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="dreamsim",
        description="DReAMSim reproduction: partial-reconfiguration task scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation and print Table I")
    run_p.add_argument("--nodes", type=int, default=200)
    run_p.add_argument("--tasks", type=int, default=2000)
    run_p.add_argument(
        "--mode", choices=("partial", "full"), default="partial",
        help="reconfiguration method (Table II's last row)",
    )
    run_p.add_argument("--xml", type=str, default=None, help="write XML report here")
    run_p.add_argument(
        "--config", type=str, default=None,
        help="JSON experiment file (overrides the other workload flags)",
    )
    run_p.add_argument(
        "--timeline", action="store_true",
        help="ASCII plots of busy nodes / queue length over time",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    _add_backend(
        run_p, "scan is the reference linear-scan manager; both produce "
        "bit-identical results",
    )
    run_p.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write the structured event trace as JSON lines to PATH",
    )
    run_p.add_argument(
        "--trace-digest", action="store_true",
        help="print the run's order-sensitive trace digest "
        "(identical for bit-identical runs; implies tracing)",
    )
    _add_fault_args(run_p)
    run_p.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="run the campaign at N consecutive seeds (seed..seed+N-1) "
        "through the sweep engine and print one report per seed",
    )
    _add_jobs(run_p)
    _add_cache(run_p)
    _add_common(run_p)

    serve_p = sub.add_parser(
        "serve",
        help="trace-driven service mode: windowed run with checkpoint/resume",
    )
    serve_p.add_argument("--nodes", type=int, default=200)
    serve_p.add_argument("--tasks", type=int, default=2000)
    serve_p.add_argument(
        "--mode", choices=("partial", "full"), default="partial",
        help="reconfiguration method (Table II's last row)",
    )
    _add_backend(
        serve_p, "snapshots are backend-neutral, so a resume may pick a "
        "different one",
    )
    serve_p.add_argument(
        "--swf", type=str, default=None, metavar="PATH",
        help="replay arrivals from this SWF workload trace at their "
        "(scaled) submit times instead of the generated stream "
        "(implies --tasks 0)",
    )
    serve_p.add_argument(
        "--time-scale", type=_time_scale_type, default=1.0, metavar="X",
        help="SWF submit-time scale factor (with --swf)",
    )
    serve_p.add_argument(
        "--window", type=int, default=1000, metavar="TICKS",
        help="advance simulated time in windows of this size (default 1000)",
    )
    serve_p.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="TICKS",
        help="write a snapshot each time this much simulated time passes",
    )
    serve_p.add_argument(
        "--checkpoint-dir", type=str, default=".", metavar="DIR",
        help="directory snapshots are written to (default: current)",
    )
    serve_p.add_argument(
        "--resume", type=str, default=None, metavar="FROM",
        help="resume from this snapshot file; requires --trace pointing at "
        "the JSONL trace the original service wrote (the prefix up to the "
        "cut is verified against the snapshot's digest)",
    )
    serve_p.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="persist the event trace as JSON lines (appended on --resume)",
    )
    serve_p.add_argument(
        "--report-every", type=int, default=None, metavar="TICKS",
        help="print a mid-run Table I view each time this much simulated "
        "time passes",
    )
    _add_fault_args(serve_p)
    _add_common(serve_p)

    sweep_p = sub.add_parser("sweep", help="task-count sweep, both modes")
    sweep_p.add_argument("--nodes", type=int, default=200)
    sweep_p.add_argument(
        "--tasks", type=int, nargs="+", default=list(DEFAULT_TASK_SWEEP)
    )
    sweep_p.add_argument(
        "--metric", type=str, default="avg_waiting_time_per_task",
        help="MetricsReport attribute to tabulate",
    )
    _add_backend(
        sweep_p, "results are bit-identical across backends, only "
        "wall-clock differs",
    )
    _add_jobs(sweep_p)
    _add_cache(sweep_p)
    _add_common(sweep_p)

    fig_p = sub.add_parser("figures", help="regenerate the paper's figures")
    fig_p.add_argument(
        "--figure", choices=[*FIGURE_IDS, "all"], default="all"
    )
    fig_p.add_argument(
        "--paper-scale", action="store_true",
        help="full Table II sweep to 100k tasks (retired as an escape "
        "hatch: the array backend makes this routine — see README "
        "'Backends'; kept as a shorthand for the full task grid)",
    )
    fig_p.add_argument(
        "--tasks", type=int, nargs="+", default=None,
        help="override the task-count sweep",
    )
    fig_p.add_argument("--plot", action="store_true", help="ASCII plots too")
    fig_p.add_argument(
        "--save-sweeps", type=str, default=None, metavar="DIR",
        help="checkpoint sweep results as JSON into DIR",
    )
    fig_p.add_argument(
        "--load-sweeps", type=str, default=None, metavar="DIR",
        help="reuse sweeps previously saved with --save-sweeps",
    )
    fig_p.add_argument(
        "--csv", type=str, default=None, metavar="DIR",
        help="write one CSV per figure into DIR",
    )
    _add_jobs(fig_p)
    _add_cache(fig_p)
    _add_common(fig_p)

    claims_p = sub.add_parser("claims", help="check every §VI-A claim")
    claims_p.add_argument(
        "--tasks", type=int, nargs="+", default=[500, 1000, 2000]
    )
    claims_p.add_argument("--nodes", type=int, nargs="+", default=[100, 200])
    _add_jobs(claims_p)
    _add_cache(claims_p)
    _add_common(claims_p)

    rep_p = sub.add_parser(
        "replicate", help="multi-seed replication with confidence intervals"
    )
    rep_p.add_argument("--nodes", type=int, default=100)
    rep_p.add_argument("--tasks", type=int, default=1000)
    rep_p.add_argument("--replications", type=int, default=5)
    rep_p.add_argument(
        "--metric", type=str, nargs="+",
        default=["avg_waiting_time_per_task", "avg_reconfig_count_per_node"],
    )
    _add_jobs(rep_p)
    _add_cache(rep_p)
    _add_common(rep_p)

    graph_p = sub.add_parser("graph", help="schedule a generated task graph")
    graph_p.add_argument(
        "--shape", choices=("layered", "pipeline", "forkjoin", "mapreduce"),
        default="layered",
    )
    graph_p.add_argument("--size", type=int, default=30, help="approximate task count")
    graph_p.add_argument("--nodes", type=int, default=20)
    graph_p.add_argument(
        "--priority", choices=("rank", "fifo"), default="rank"
    )
    _add_common(graph_p)

    # The lint flags are parsed by cmd_lint (see main), so that building
    # this parser does not import repro.lint.
    sub.add_parser(
        "lint",
        help="run dreamlint, the determinism & accounting linter",
        add_help=False,
    )

    return parser


def _print_report(report, label: str) -> None:
    print(f"== {label} ==")
    d = report.as_dict()
    placements = d.pop("placements_by_kind")
    for k, v in d.items():
        if isinstance(v, float):
            print(f"  {k:<36} {v:,.3f}")
        else:
            print(f"  {k:<36} {v}")
    if placements:
        print("  placements:")
        for kind, count in sorted(placements.items()):
            print(f"    {kind:<24} {count}")


def _print_resilience(report) -> None:
    print("== resilience ==")
    d = report.as_dict()
    by_class = {
        "failures_by_class": d.pop("failures_by_class"),
        "interrupts_by_class": d.pop("interrupts_by_class"),
    }
    for k, v in d.items():
        if isinstance(v, float):
            print(f"  {k:<36} {v:,.6f}")
        else:
            print(f"  {k:<36} {v}")
    for label, counts in by_class.items():
        if counts:
            print(f"  {label}:")
            for cls, count in sorted(counts.items()):
                print(f"    {cls:<24} {count}")


def _campaign_spec_from_args(args):
    """The :class:`FaultCampaignSpec` a ``run`` invocation describes."""
    from repro.framework.campaign import FaultCampaignSpec

    mtbf = args.mtbf
    if mtbf is None and args.faults:
        mtbf = 5000
    return FaultCampaignSpec(
        nodes=args.nodes,
        configs=args.configs,
        tasks=args.tasks,
        partial=(args.mode == "partial"),
        seed=args.seed,
        fault_seed=args.fault_seed,
        mtbf=mtbf,
        mttr=args.mttr,
        max_failures=args.max_failures,
        burst_rate=args.burst_rate,
        burst_size=args.burst_size,
        burst_group=args.burst_group,
        seu_rate=args.seu_rate,
        scrub_factor=args.scrub_factor,
        retry_budget=args.retry_budget,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        quarantine_threshold=args.quarantine_threshold,
        probation=args.probation,
        health_half_life=args.health_half_life,
    )


def _run_seed_sweep(args: argparse.Namespace) -> int:
    """``run --seeds N``: the fault-campaign sweep across consecutive seeds.

    Each seed is an independent :class:`RunSpec` executed by the parallel
    sweep engine; reports (and resilience/digests when enabled) are printed
    in seed order regardless of worker completion order.
    """
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    incompatible = [
        ("--config", args.config),
        ("--xml", args.xml),
        ("--timeline", args.timeline),
        ("--trace", args.trace),
        ("--profile", args.profile),
    ]
    bad = [flag for flag, value in incompatible if value]
    if bad:
        print(
            f"error: --seeds > 1 is incompatible with {', '.join(bad)} "
            "(per-run artifacts have no defined order across a sweep)",
            file=sys.stderr,
        )
        return 2
    from repro.metrics.merge import in_submission_order
    from repro.parallel import RunSpec, SweepExecutor

    jobs = _resolved_jobs(args)
    progress = lambda m: print(m, file=sys.stderr)  # noqa: E731
    base = RunSpec(
        campaign=_campaign_spec_from_args(args),
        backend=_resolved_backend(args),
        collect_digest=args.trace_digest,
    )
    specs = [base.with_seed(args.seed + i) for i in range(args.seeds)]
    payloads = SweepExecutor(
        jobs=jobs, on_message=progress, cache=_resolved_cache(args)
    ).run(specs)
    for payload in in_submission_order(payloads, expected=len(specs)):
        campaign = payload.spec.campaign
        label = (
            f"{args.mode} / {args.nodes} nodes / {args.tasks} tasks"
            f" / seed {campaign.seed}"
        )
        if campaign.faults_enabled:
            label += " / faults"
        _print_report(payload.report, label)
        if payload.resilience is not None:
            _print_resilience(payload.resilience)
        if payload.digest is not None:
            print(f"trace digest: {payload.digest}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``dreamsim run``: one simulation, Table I report, optional XML."""
    if args.seeds != 1:
        return _run_seed_sweep(args)
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    trace = None
    digest_sink = None
    jsonl_sink = None
    if getattr(args, "trace", None) or getattr(args, "trace_digest", False):
        from repro.trace import DigestSink, JsonlSink, TraceBus

        trace = TraceBus()
        digest_sink = DigestSink()
        trace.attach(digest_sink)
        if args.trace:
            jsonl_sink = JsonlSink(args.trace)
            trace.attach(jsonl_sink)
    injector = None
    if args.config:
        from repro.framework.expconfig import load_experiment

        cfg = load_experiment(args.config)
        result = cfg.build(trace=trace).run()
        params = cfg.describe()
        label = f"config {args.config}"
    else:
        from repro.framework.campaign import run_campaign

        spec = _campaign_spec_from_args(args)
        result, injector = run_campaign(
            spec,
            backend=_resolved_backend(args),
            trace=trace,
        )
        params = {
            "nodes": args.nodes,
            "tasks": args.tasks,
            "mode": args.mode,
            "seed": args.seed,
        }
        label = f"{args.mode} / {args.nodes} nodes / {args.tasks} tasks"
        if spec.faults_enabled:
            label += " / faults"
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(25)
        print("=== cProfile hot spots (top 25 by cumulative time) ===")
        print(buf.getvalue())
    _print_report(result.report, label)
    if injector is not None:
        _print_resilience(injector.resilience(result))
    if jsonl_sink is not None:
        jsonl_sink.close()
        print(f"trace written to {args.trace} ({trace.events_emitted} events)")
    if digest_sink is not None and getattr(args, "trace_digest", False):
        print(f"trace digest: {digest_sink.hexdigest()}")
    if args.timeline:
        from repro.analysis.asciiplot import ascii_plot

        for series in (result.monitor.busy_nodes, result.monitor.queue_length):
            if len(series) > 1:
                r = series.resample(64)
                print(
                    ascii_plot(
                        r.times, {series.name: r.values},
                        width=64, height=10, title=series.name,
                    )
                )
    if args.xml:
        path = write_report_xml(result.report, args.xml, params=params)
        print(f"XML report written to {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``dreamsim serve``: windowed service run with checkpoint/resume.

    Advances the simulator ``--window`` ticks at a time, optionally writing
    a versioned snapshot every ``--checkpoint-every`` simulated ticks and a
    mid-run Table I view every ``--report-every``, until the workload is
    finished and the source (if any) exhausted; then it drains the rest of
    the run, fault tail included, in one go.  ``--resume FROM`` picks
    a previous invocation up from its snapshot file: the JSONL trace it
    wrote (``--trace``) supplies the verified prefix, and the final digest
    and report come out byte-identical to the uninterrupted run.
    """
    import dataclasses
    from pathlib import Path

    from repro.service import ReplaySource, ServiceSimulator, Snapshot, SnapshotError
    from repro.trace.bus import read_jsonl

    spec = _campaign_spec_from_args(args)
    if args.swf:
        spec = dataclasses.replace(spec, tasks=0)
    backend = _resolved_backend(args)

    if args.resume:
        prefix = []
        if args.trace and Path(args.trace).exists():
            prefix = read_jsonl(args.trace)
        else:
            print(
                "error: --resume needs --trace pointing at the original "
                "service's JSONL trace (the prefix up to the cut)",
                file=sys.stderr,
            )
            return 2
        try:
            snap = Snapshot.read(args.resume)
            if snap.trace_seq is not None and len(prefix) > snap.trace_seq:
                # The old service kept running past this checkpoint before it
                # died: drop the post-cut tail and rewrite the file to just
                # the prefix so the resumed stream stays seq-contiguous.
                prefix = prefix[: snap.trace_seq]
                from repro.trace.bus import write_jsonl

                write_jsonl(args.trace, prefix)
                print(
                    f"truncated {args.trace} to the checkpoint's "
                    f"{snap.trace_seq} events"
                )
            svc = ServiceSimulator.resume(
                snap, spec, backend=backend, prefix_events=prefix,
                jsonl_path=args.trace,
            )
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"resumed from {args.resume} at t={svc.sim.env.now}")
    else:
        svc = ServiceSimulator(spec, backend=backend, jsonl_path=args.trace)
    if args.swf:
        try:
            svc.source = ReplaySource.from_swf(
                args.swf, svc.sim.rim.configs, time_scale=args.time_scale
            )
        except (OSError, ValueError) as exc:
            if svc.jsonl is not None:
                svc.jsonl.close()
            print(f"error: {exc}", file=sys.stderr)
            return 2

    window = max(args.window, 1)
    now = svc.sim.env.now
    cp_dir = Path(args.checkpoint_dir)
    next_cp = now + args.checkpoint_every if args.checkpoint_every else None
    next_view = now + args.report_every if args.report_every else None
    while True:
        now += window
        svc.advance_to(now)
        if svc.ready_to_drain:
            # Whatever is still queued is the fault tail (stale completions,
            # repairs): drain() fires it, so windows past it would only
            # print views and checkpoints of a finished workload.
            break
        if next_view is not None and now >= next_view:
            view = svc.report_view()
            print(
                f"t={view.time}: {view.events_seen} events, "
                f"{view.report.total_completed_tasks} completed"
            )
            next_view += args.report_every
        if next_cp is not None and now >= next_cp:
            snap = svc.checkpoint()
            cp_dir.mkdir(parents=True, exist_ok=True)
            path = snap.write(cp_dir / f"snapshot-{snap.key}.json")
            print(f"checkpoint at t={now} -> {path}")
            next_cp += args.checkpoint_every
    result = svc.drain()
    label = (
        f"serve / {args.mode} / {spec.nodes} nodes / "
        f"{svc.bus.events_emitted} events / seed {spec.seed}"
    )
    _print_report(result.report, label)
    if svc.injector is not None:
        _print_resilience(svc.injector.resilience(result))
    if svc.jsonl is not None:
        svc.jsonl.close()
        print(f"trace written to {args.trace} ({svc.bus.events_emitted} events)")
    print(f"trace digest: {svc.hexdigest()}")
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    """``dreamsim replicate``: multi-seed means ± 95% CIs, both modes."""
    from repro.analysis.paperconfig import Scenario
    from repro.analysis.replicate import replicate

    seeds = [args.seed + i for i in range(args.replications)]
    jobs = _resolved_jobs(args)
    cache = _resolved_cache(args)
    if jobs != 1 or cache is not None:
        from dataclasses import replace as _replace

        from repro.analysis.runner import prefetch_scenarios

        grid = [
            _replace(
                Scenario(
                    nodes=args.nodes, tasks=args.tasks, partial=partial,
                    configs=args.configs, seed=args.seed,
                ),
                seed=s,
            )
            for partial in (True, False)
            for s in seeds
        ]
        prefetch_scenarios(
            grid, jobs=jobs, progress=lambda m: print(m, file=sys.stderr),
            cache=cache,
        )
    rows = []
    for partial in (True, False):
        sc = Scenario(
            nodes=args.nodes, tasks=args.tasks, partial=partial,
            configs=args.configs, seed=args.seed,
        )
        rep = replicate(sc, seeds, progress=lambda m: print(m, file=sys.stderr))
        rows.append((("partial" if partial else "full"), rep))
    print(
        f"{'metric':<34} {'mode':>8} {'mean':>14} {'±95% CI':>12} {'stddev':>12}"
    )
    print("-" * 84)
    for metric in args.metric:
        for mode, rep in rows:
            s = rep.summary(metric)
            print(
                f"{metric:<34} {mode:>8} {s.mean:>14,.2f} "
                f"{s.ci95_half_width:>12,.2f} {s.stddev:>12,.2f}"
            )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``dreamsim sweep``: one metric across a task-count sweep."""
    from repro.analysis.asciiplot import series_table
    from repro.analysis.runner import run_sweep

    sweep = run_sweep(
        args.nodes, args.tasks, args.seed,
        progress=lambda m: print(m, file=sys.stderr),
        jobs=_resolved_jobs(args),
        backend=_resolved_backend(args),
        cache=_resolved_cache(args),
    )
    print(
        series_table(
            sweep.task_counts,
            {
                "partial": sweep.series(args.metric, partial=True),
                "full": sweep.series(args.metric, partial=False),
            },
        )
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``dreamsim figures``: regenerate paper figures, check shapes."""
    from pathlib import Path

    from repro.analysis.asciiplot import ascii_plot, series_table
    from repro.analysis.figures import FIGURES, build_figure
    from repro.analysis.paperconfig import PAPER_TASK_SWEEP
    from repro.analysis.runner import run_sweep

    task_counts = args.tasks or (
        list(PAPER_TASK_SWEEP) if args.paper_scale else list(DEFAULT_TASK_SWEEP)
    )
    wanted = sorted(FIGURES) if args.figure == "all" else [args.figure]
    needed_nodes = sorted({FIGURES[f]["nodes"] for f in wanted})
    jobs = _resolved_jobs(args)
    cache = _resolved_cache(args)
    if jobs != 1 or cache is not None:
        from repro.analysis.runner import prefetch_scenarios, sweep_scenarios

        to_run = [
            n
            for n in needed_nodes
            if not (
                args.load_sweeps
                and (Path(args.load_sweeps) / f"sweep_n{n}.json").exists()
            )
        ]
        grid = [
            sc for n in to_run for sc in sweep_scenarios(n, task_counts, args.seed)
        ]
        prefetch_scenarios(
            grid, jobs=jobs, progress=lambda m: print(m, file=sys.stderr),
            cache=cache,
        )
    sweeps = {}
    for n in needed_nodes:
        loaded = False
        if args.load_sweeps:
            path = Path(args.load_sweeps) / f"sweep_n{n}.json"
            if path.exists():
                from repro.analysis.storage import load_sweep

                sweeps[n] = load_sweep(path)
                loaded = True
                print(f"loaded {path}", file=sys.stderr)
        if not loaded:
            sweeps[n] = run_sweep(
                n, task_counts, args.seed,
                progress=lambda m: print(m, file=sys.stderr),
            )
        if args.save_sweeps:
            from repro.analysis.storage import save_sweep

            out_dir = Path(args.save_sweeps)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_sweep(sweeps[n], out_dir / f"sweep_n{n}.json")
    ok = True
    for fid in wanted:
        series = build_figure(fid, sweeps[FIGURES[fid]["nodes"]])
        if args.csv:
            out_dir = Path(args.csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{fid}.csv").write_text(series.to_csv(), encoding="utf-8")
        print(f"\n=== {fid}: {series.title} ===")
        print(
            series_table(
                series.x, {"partial": series.partial, "full": series.full}
            )
        )
        problems = series.validate_shape()
        if problems:
            ok = False
            for p in problems:
                print(f"  SHAPE VIOLATION: {p}")
        else:
            print(
                f"  shape OK (mean winner ratio {series.mean_ratio():.2f}x)"
            )
        if args.plot:
            print(
                ascii_plot(
                    series.x,
                    {"partial": series.partial, "full": series.full},
                    title=series.title,
                )
            )
    return 0 if ok else 1


def cmd_claims(args: argparse.Namespace) -> int:
    """``dreamsim claims``: evaluate the §VI-A scorecard."""
    from repro.analysis.compare import check_claims, scorecard

    checks = check_claims(
        args.tasks,
        args.seed,
        node_counts=tuple(args.nodes),
        progress=lambda m: print(m, file=sys.stderr),
        jobs=_resolved_jobs(args),
        cache=_resolved_cache(args),
    )
    print(scorecard(checks))
    return 0 if all(c.passed for c in checks) else 1


def cmd_graph(args: argparse.Namespace) -> int:
    """``dreamsim graph``: schedule a generated task graph."""
    from repro.rng import RNG
    from repro.taskgraph import (
        TaskGraphScheduler,
        fork_join,
        layered_random,
        map_reduce,
        pipeline,
    )
    from repro.workload import ConfigSpec, NodeSpec
    from repro.workload.generator import generate_configs, generate_nodes

    rng = RNG(seed=args.seed)
    configs = generate_configs(ConfigSpec(count=args.configs), rng)
    nodes = generate_nodes(NodeSpec(count=args.nodes), rng)
    if args.shape == "pipeline":
        graph = pipeline(args.size, configs, rng)
    elif args.shape == "forkjoin":
        graph = fork_join(max(1, args.size - 2), configs, rng)
    elif args.shape == "mapreduce":
        graph = map_reduce(max(1, args.size // 2), max(1, args.size // 2), configs, rng)
    else:
        width = max(1, round(args.size**0.5))
        graph = layered_random(max(1, args.size // width), width, configs, rng)
    result = TaskGraphScheduler(nodes, configs, priority=args.priority).run(graph)
    print(f"shape={args.shape} tasks={len(graph)} edges={graph.edge_count()}")
    print(f"critical path bound : {result.critical_path}")
    print(f"makespan ({args.priority:>4})     : {result.makespan}")
    print(f"efficiency          : {result.efficiency:.3f}")
    print(f"discarded           : {result.discarded}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``dreamsim lint``: dreamlint over the installed package or paths."""
    from repro.lint.cli import add_lint_arguments, run_from_args

    parser = argparse.ArgumentParser(
        prog="dreamsim lint",
        description="run dreamlint, the determinism & accounting linter",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(args.lint_argv))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        args.lint_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    handlers = {
        "run": cmd_run,
        "serve": cmd_serve,
        "sweep": cmd_sweep,
        "figures": cmd_figures,
        "claims": cmd_claims,
        "graph": cmd_graph,
        "replicate": cmd_replicate,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
