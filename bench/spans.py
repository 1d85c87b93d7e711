"""Span recording for the traced benchmark run.

:func:`install` replaces public functions and methods of ``repro`` with
wrappers that time each call.  It runs inside one child process only, after
``repro`` is imported and before the workload starts, so the untraced runs
never execute a wrapper.  Each span records its name, start, end, the span
that was open when it started, and its self time: its duration minus the
part covered by child spans.

Calls that happen once per simulated event (scheduling, trace emission,
monitor sampling, ...) are aggregated only, in calls, total and self time:
keeping every one of them as a span would cost more memory than the run.

Nothing wrapped here is checked by identity in
:func:`repro.framework.hotloop.hot_eligible`; in particular
``DreamScheduler.matched_config_no`` stays untouched, so a traced run takes
the same hot-loop decision as an untraced one.  Pool workers forked by the
``figures`` sweep inherit the wrappers, but their spans stay in the worker
and are lost.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Iterator, Optional

perf_counter = time.perf_counter

# Span names whose totals are per-layer metrics (``<name>_s``); True where
# the call count is one too (``<name>_calls``).  The benchmark's own
# ``cli.main`` span around ``dreamsim figures`` counts only in ``cli.self_s``.
SPANS: dict[str, bool] = {
    "cli.import": False,
    "workload.generate": False,
    "framework.build": False,
    "framework.run": False,
    "framework.finish": False,
    "framework.monitor_sample": True,
    "core.schedule": True,
    "core.redispatch": True,
    "resources.complete_task": True,
    "resources.wasted_area": True,
    "sim.env_run": True,
    "trace.emit": True,
    "trace.digest": False,
    "trace.replay": False,
    "metrics.compute_report": True,
    "service.advance": False,
    "service.source_take": False,
    "service.ingest": False,
    "service.report_view": False,
    "service.checkpoint": False,
    "service.snapshot_write": False,
    "service.drain": False,
    "parallel.sweep": False,
    "parallel.cache_load": False,
    "parallel.cache_store": False,
    "analysis.assemble": False,
    "analysis.build_figure": False,
}


class Tracer:
    """In-memory span store with per-name totals and free-form counters."""

    def __init__(self, rep_id: str) -> None:
        self.rep_id = rep_id
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self)
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [id, parent, name, start, child_time]
        self._next_id = 0

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (e.g. the import before install)."""
        self._close(self._open(name, start), end, True)

    def _open(self, name: str, start: float) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, start, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float, keep: bool) -> None:
        self._stack.pop()
        span_id, parent, name, start, child_time = frame
        duration = end - start
        self_time = duration - child_time
        if self._stack:
            self._stack[-1][4] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += self_time
        if keep:
            self.spans.append((span_id, parent, name, start, end, self_time))

    def wrap(
        self,
        fn: Callable,
        name: str,
        keep: bool = True,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after`` sees each call's result."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = open_(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, perf_counter(), keep)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own call into the program."""
        frame = self._open(name, perf_counter())
        try:
            yield
        finally:
            self._close(frame, perf_counter(), True)

    def as_json(self) -> dict:
        return {
            "rep_id": self.rep_id,
            "fields": ["id", "parent", "name", "start", "end", "self"],
            "spans": self.spans,
            "totals": self.totals,
            "counts": self.counts,
        }


def _patch_function(
    tracer: Tracer, module: str, attr: str, name: str, lazy: bool = False, **kw: Any
) -> None:
    """Wrap ``module.attr`` in every ``repro`` module that imported it by name.

    ``lazy`` marks a function returning a lazy iterator; the wrapper lists
    it so the span covers the work.  The callers wrapped here draw from
    their generator's RNG only through that iterator, so listing it early
    yields the same items.
    """
    original = getattr(sys.modules[module], attr)
    wrapped = tracer.wrap(_materialised(original) if lazy else original, name, **kw)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, **kw: Any) -> None:
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))


def _materialised(fn: Callable) -> Callable:
    """The task stream is lazy; list it so its span covers the generation."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return iter(list(fn(*args, **kwargs)))

    return wrapper


def _after_sweep(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    executor, specs = args[0], args[1]
    tracer.add_count("parallel.specs", len(specs))
    tracer.counts["parallel.jobs"] = max(tracer.counts.get("parallel.jobs", 0), executor.jobs)
    if executor.cache is not None:
        stats = executor.cache.stats
        tracer.counts["parallel.cache_hits"] = stats.hits
        tracer.counts["parallel.cache_misses"] = stats.misses
        tracer.counts["parallel.cache_stored"] = stats.stored


def _after_generate_tasks(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    spec = args[0] if args else kwargs["spec"]
    tracer.add_count("workload.tasks", spec.count)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark attributes time to."""
    import repro.analysis.figures  # noqa: F401 - make every patched module visible
    import repro.analysis.runner  # noqa: F401
    import repro.framework.campaign  # noqa: F401
    import repro.metrics.table1  # noqa: F401
    import repro.workload.generator  # noqa: F401
    from repro.core.scheduler import DreamScheduler
    from repro.framework.monitoring import Monitor
    from repro.framework.simulator import DReAMSim
    from repro.parallel import ResultCache, SweepExecutor
    from repro.resources.arraycore import ArrayRIM
    from repro.resources.manager import ResourceInformationManager
    from repro.service import ServiceSimulator, Snapshot
    from repro.service.sources import JsonlTailSource
    from repro.sim.environment import Environment
    from repro.trace.bus import DigestSink, TraceBus
    from repro.trace.replay import TraceReplayer

    fn = lambda module, attr, name, **kw: _patch_function(tracer, module, attr, name, **kw)  # noqa: E731
    meth = lambda cls, attr, name, **kw: _patch_method(tracer, cls, attr, name, **kw)  # noqa: E731

    fn("repro.workload.generator", "generate_nodes", "workload.generate")
    fn("repro.workload.generator", "generate_configs", "workload.generate")
    fn(
        "repro.workload.generator", "generate_task_stream", "workload.generate",
        lazy=True, after=_after_generate_tasks,
    )
    fn("repro.framework.campaign", "build_campaign", "framework.build")
    fn("repro.metrics.table1", "compute_report", "metrics.compute_report")
    fn("repro.analysis.runner", "run_sweep", "analysis.assemble")
    fn("repro.analysis.figures", "build_figure", "analysis.build_figure")

    meth(DReAMSim, "run", "framework.run")
    meth(DReAMSim, "finish", "framework.finish")
    meth(DReAMSim, "ingest", "service.ingest")
    meth(Monitor, "sample", "framework.monitor_sample", keep=False)
    meth(DreamScheduler, "schedule", "core.schedule", keep=False)
    meth(DreamScheduler, "next_redispatch", "core.redispatch", keep=False)
    for manager in (ArrayRIM, ResourceInformationManager):
        meth(manager, "complete_task", "resources.complete_task", keep=False)
        meth(manager, "total_wasted_area", "resources.wasted_area", keep=False)
    meth(Environment, "run", "sim.env_run")
    meth(TraceBus, "emit", "trace.emit", keep=False)
    for attr in ("write", "write_lines", "hexdigest"):
        meth(DigestSink, attr, "trace.digest", keep=False)
    meth(TraceReplayer, "replay", "trace.replay")
    meth(ServiceSimulator, "advance_to", "service.advance")
    meth(ServiceSimulator, "report_view", "service.report_view")
    meth(ServiceSimulator, "checkpoint", "service.checkpoint")
    meth(ServiceSimulator, "drain", "service.drain")
    meth(JsonlTailSource, "take_until", "service.source_take")
    meth(Snapshot, "write", "service.snapshot_write")
    meth(SweepExecutor, "run", "parallel.sweep", after=_after_sweep)
    meth(ResultCache, "load", "parallel.cache_load", keep=False)
    meth(ResultCache, "store", "parallel.cache_store", keep=False)
