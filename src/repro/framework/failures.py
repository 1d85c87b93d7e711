"""Fault injection: crashes, correlated bursts, and transient SEUs.

Large-scale distributed systems lose nodes routinely; the paper's framework
is positioned for exactly such systems ("millions of cores"), and SRAM-based
partially reconfigurable fabrics additionally suffer *transient* upsets that
corrupt a single loaded configuration rather than the whole device.  This
module models a layered fault taxonomy plus the scheduler-side defenses, all
strictly opt-in (the simulator is byte-identical with no injector attached):

**Fault classes**

* ``crash`` — permanent node loss (the classic fail–restart model): the gap
  to the next crash is drawn from ``mtbf``, the victim is a uniformly random
  in-service node; it loses every loaded configuration (SRAM does not
  survive power loss), interrupts its running tasks, and returns to service
  blank after an ``mttr`` delay.
* ``burst`` — correlated loss: at gaps drawn from ``burst_rate``, up to
  ``burst_size`` in-service nodes of one power/rack group (node numbers
  partitioned ``node_no // burst_group``) crash together, each with its own
  repair draw.
* ``seu`` — a single-event upset strikes a uniformly random fabric offset of
  a random configured node.  With partial reconfiguration only the struck
  *region* is corrupted: its task (if any) is interrupted and the region is
  scrubbed — reconfigured — for ``config_time × scrub_factor`` ticks while
  the rest of the node keeps executing.  Without partial reconfiguration
  the device holds one monolithic configuration context, so any strike
  corrupts every loaded region: the whole node's work is lost and rescrubbed.
  This asymmetry is the headline resilience advantage of partial
  reconfiguration and is what the SEU campaign measures.

**Retry policy** — an interrupted task consumes one unit of its per-task
retry budget (``retry_budget``, ``None`` = unbounded).  With
``backoff_base > 0`` it re-enters scheduling only at
``now + min(backoff_cap, backoff_base · 2^attempt)`` (deterministic
exponential backoff); with the default ``backoff_base=0`` it resubmits
immediately through the suspension queue exactly as the classic
fail–restart model did.  A task whose budget is exhausted is discarded with
the distinct trace reason ``"retry_budget"``.

**Health-aware quarantine** — when ``health_half_life``,
``quarantine_threshold`` and ``probation`` are all set, every crash/burst
failure bumps the victim's integer recent-failure score (1000 milli-units
per failure, dyadic decay with the given half-life).  A node whose score
reaches the threshold is not returned to service at repair time: it is
*quarantined* — held out of every placement index — until a probation
period passes, or until the scheduler *requisitions* it as the last rung of
graceful degradation (only a task that would otherwise be discarded may
claim a quarantined node; see ``DreamScheduler._rescue_or_discard``).

Every decision is deterministic under the injector's ``rng`` seed and —
because all state changes flow through the resource manager's
backend-agnostic mutation paths — bit-identical between the ``array`` and
``scan`` backends.

Attach with ``FailureInjector(sim, mtbf=…, mttr=…, rng=…).arm()`` before
``sim.run()``.  Injection stops once all arrivals have been generated and
the queue has drained (so simulations still terminate), or after
``max_failures``.  After the run, :meth:`FailureInjector.resilience` folds
the accumulated :class:`~repro.metrics.resilience.FaultLog` into a
:class:`~repro.metrics.resilience.ResilienceReport`;
:meth:`repro.trace.replay.TraceReplayer.resilience_report` re-derives the
same report bit-identically from the event stream alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.model.config import Configuration
from repro.model.errors import ConfigurationError
from repro.framework.simulator import DReAMSim, SimulationResult
from repro.metrics.resilience import FaultLog, ResilienceReport, assemble_resilience
from repro.model.node import ConfigTaskEntry, Node
from repro.model.task import Task, TaskStatus, export_task, restore_task
from repro.rng import RNG
from repro.rng.distributions import Distribution
from repro.trace.events import DISCARDED, TASK_INTERRUPTED, TASK_RETRY, line_encoder

# Trace shapes (TraceBus.emit takes the values in this order).
_TASK_INTERRUPTED = line_encoder(TASK_INTERRUPTED, "task", "node", "cls")
_TASK_RETRY = line_encoder(TASK_RETRY, "task", "attempt", "delay", "at")
_DISCARDED = line_encoder(DISCARDED, "task", "reason")

# Synthetic scrub placeholders live far above any workload task number so
# invariant I7 (task uniqueness) can never collide with real tasks.
_SCRUB_TASK_BASE = 1 << 40


@dataclass
class _Scrub:
    """One in-flight SEU scrub: the region stays busy until the deadline."""

    node: Node
    entry: ConfigTaskEntry
    scrub_task: Task


class FailureInjector:
    """Drives fault events against a simulator's node table.

    Parameters
    ----------
    sim:
        The simulator to inject into (must not have started yet).
    mtbf / mttr:
        Distributions for the crash inter-failure gap and the repair
        duration.  ``mtbf=None`` disables the crash process (e.g. for an
        SEU-only campaign); ``mttr`` is required whenever crashes or bursts
        are enabled.
    rng:
        Randomness source for gaps, durations, and victim choice.
    max_failures:
        Stop injecting node-loss events (crashes + burst members) after this
        many (None = unbounded while tasks remain).
    seu_rate:
        Distribution of gaps between SEU strikes (None = no SEUs).
    scrub_factor:
        Scrub duration multiplier: a corrupted region is re-reconfigured for
        ``config_time × scrub_factor`` ticks.
    retry_budget:
        Max fault interrupts one task survives (None = unbounded).
    backoff_base / backoff_cap:
        Exponential-backoff parameters; ``backoff_base=0`` (default) keeps
        the classic instant-resubmit semantics.
    burst_rate / burst_size / burst_group:
        Correlated-failure process: gap distribution, nodes per burst, and
        the power-group partition width.
    health_half_life / quarantine_threshold / probation:
        Quarantine policy (all three must be set to enable it): failure-score
        half-life in ticks, the milli-unit score that triggers quarantine,
        and the probation hold duration.
    """

    def __init__(
        self,
        sim: DReAMSim,
        mtbf: Optional[Distribution] = None,
        mttr: Optional[Distribution] = None,
        rng: Optional[RNG] = None,
        max_failures: Optional[int] = None,
        *,
        seu_rate: Optional[Distribution] = None,
        scrub_factor: int = 1,
        retry_budget: Optional[int] = None,
        backoff_base: int = 0,
        backoff_cap: Optional[int] = None,
        burst_rate: Optional[Distribution] = None,
        burst_size: int = 2,
        burst_group: int = 8,
        health_half_life: Optional[int] = None,
        quarantine_threshold: Optional[int] = None,
        probation: Optional[int] = None,
    ) -> None:
        if rng is None:
            raise ValueError("FailureInjector requires an rng")
        if (mtbf is not None or burst_rate is not None) and mttr is None:
            raise ValueError("mttr is required when crash or burst faults are enabled")
        if scrub_factor < 1:
            raise ValueError("scrub_factor must be >= 1")
        if burst_size < 1 or burst_group < 1:
            raise ValueError("burst_size and burst_group must be >= 1")
        self.sim = sim
        self.mtbf = mtbf
        self.mttr = mttr
        self.rng = rng
        self.max_failures = max_failures
        self.seu_rate = seu_rate
        self.scrub_factor = scrub_factor
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.burst_rate = burst_rate
        self.burst_size = burst_size
        self.burst_group = burst_group
        self.quarantine_enabled = (
            health_half_life is not None
            and quarantine_threshold is not None
            and probation is not None
        )
        self.health_half_life = health_half_life
        self.quarantine_threshold = quarantine_threshold
        self.probation = probation

        self.log = FaultLog()
        self._armed = False
        self._scrub_seq = 0
        # Active scrubs by placeholder task number; entry ids absorb re-strikes.
        self._scrubs: dict[int, _Scrub] = {}
        self._scrub_entries: set[int] = set()
        # Open spans: node_no -> index into log.failures / log.quarantines.
        self._open_fail: dict[int, int] = {}
        self._open_quar: dict[int, int] = {}
        self._quarantine_due: set[int] = set()

    # -- public API --------------------------------------------------------------

    def arm(self) -> "FailureInjector":
        """Schedule the first event of each enabled process; chain-schedules."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        if self.quarantine_enabled:
            # Requisition (scheduler-side early release) must close the same
            # spans a probation release does; the manager calls back here.
            self.sim.rim.on_quarantine_release = self._on_release
        if self.mtbf is not None:
            self._schedule_next_crash()
        if self.seu_rate is not None:
            self._schedule_next_seu()
        if self.burst_rate is not None:
            self._schedule_next_burst()
        return self

    def fault_log(self, final_time: int) -> FaultLog:
        """The run's primitive fault facts, finalized for assembly.

        ``completed_first_try`` counts tasks that completed without ever
        being interrupted (a task's ``fault_retries`` counts its
        interrupts) — the goodput numerator — read, with the task total,
        from the simulator's task fold ⊕ the tasks past it.
        """
        log = self.log
        totals, live = self.sim.task_totals()
        log.node_count = len(self.sim.rim.nodes)
        log.final_time = final_time
        log.total_tasks = totals.count + live
        log.completed_first_try = totals.first_try
        return log

    def resilience(self, result: SimulationResult) -> ResilienceReport:
        """Fold this campaign's fault log into a :class:`ResilienceReport`."""
        return assemble_resilience(self.fault_log(result.final_time))

    # -- process scheduling -------------------------------------------------------

    def _schedule_next_crash(self) -> None:
        if self.max_failures is not None and len(self.log.failures) >= self.max_failures:
            return
        assert self.mtbf is not None
        gap = max(1, self.mtbf.sample_int(self.rng))
        self.sim.env.call_at(
            self.sim.env.now + gap, self._fail_one, tag=("crash_next",)
        )

    def _schedule_next_seu(self) -> None:
        assert self.seu_rate is not None
        gap = max(1, self.seu_rate.sample_int(self.rng))
        self.sim.env.call_at(
            self.sim.env.now + gap, self._seu_one, tag=("seu_next",)
        )

    def _schedule_next_burst(self) -> None:
        if self.max_failures is not None and len(self.log.failures) >= self.max_failures:
            return
        assert self.burst_rate is not None
        gap = max(1, self.burst_rate.sample_int(self.rng))
        self.sim.env.call_at(
            self.sim.env.now + gap, self._burst_one, tag=("burst_next",)
        )

    # -- node-loss faults (crash / burst) ----------------------------------------

    def _fail_one(self) -> None:
        sim = self.sim
        now = sim.env.now
        # Stop injecting once the workload is finished (keeps runs finite:
        # pending repair events alone must not sustain the failure process).
        if sim.workload_finished:
            return
        victims = [n for n in sim.rim.nodes if n.in_service]
        if len(victims) > 1:  # never fail the last node: tasks must finish
            node = self.rng.choice(victims)
            self._crash(node, now)
        self._schedule_next_crash()

    def _burst_one(self) -> None:
        """Correlated loss: crash up to ``burst_size`` nodes of one group."""
        sim = self.sim
        now = sim.env.now
        if sim.workload_finished:
            return
        victims = [n for n in sim.rim.nodes if n.in_service]
        if len(victims) > 1:
            anchor = self.rng.choice(victims)
            group = anchor.node_no // self.burst_group
            in_service = sum(1 for n in sim.rim.nodes if n.in_service)
            felled = 0
            for node in sim.rim.nodes:  # table order: deterministic victim order
                if felled >= self.burst_size or in_service <= 1:
                    break
                if self.max_failures is not None and len(self.log.failures) >= self.max_failures:
                    break
                if node.in_service and node.node_no // self.burst_group == group:
                    self._crash(node, now, cls="burst")
                    felled += 1
                    in_service -= 1
        self._schedule_next_burst()

    def _crash(self, node: Node, now: int, cls: str = "crash") -> None:
        sim = self.sim
        assert self.mttr is not None
        interrupted = sim.rim.fail_node(node, cls=cls)
        # In-flight scrubs on this node are moot — the configurations are
        # gone anyway; drop their placeholders so the pending finish event
        # goes stale and the detached scrub tasks are never "restarted".
        workload: list[Task] = []
        for task in interrupted:
            scrub = self._scrubs.pop(task.task_no, None)
            if scrub is not None:
                self._scrub_entries.discard(id(scrub.entry))
            else:
                workload.append(task)
        repair_in = max(1, self.mttr.sample_int(self.rng))
        self._open_fail[node.node_no] = len(self.log.failures)
        self.log.failures.append((now, cls, -1))
        if self.quarantine_enabled:
            assert self.health_half_life is not None
            score = node.bump_health(now, self.health_half_life)
            if score >= self.quarantine_threshold:  # type: ignore[operator]
                self._quarantine_due.add(node.node_no)
        # Fail-restart: interrupted tasks drop their stale completion events
        # (placement mismatch) and re-enter through the retry policy.
        for task in workload:
            sim._placements.pop(task.task_no, None)
        for task in workload:
            self._interrupt(task, node, now, cls)
        # Liveness: if the crash idled the whole system while tasks wait
        # (every running task was on this node), restart the queue now —
        # no future completion event exists to trigger redispatch.
        self._kick(now)
        sim.env.call_at(
            now + repair_in,
            lambda: self._repair_due(node),
            tag=("repair", node.node_no),
        )

    def _repair_due(self, node: Node) -> None:
        """Scheduled repair tick: return to service, or quarantine if flaky."""
        now = self.sim.env.now
        if node.node_no in self._quarantine_due:
            self._quarantine_due.discard(node.node_no)
            assert self.probation is not None
            until = now + self.probation
            self._open_quar[node.node_no] = len(self.log.quarantines)
            self.log.quarantines.append((now, -1))
            self.sim.rim.quarantine_node(node, now=now, until=until, score_milli=node.health_milli)
            self.sim.env.call_at(
                until,
                lambda: self._probation_over(node),
                tag=("probation", node.node_no),
            )
            return
        self.sim.rim.repair_node(node)
        self._close_failure(node, now)
        self._kick(now)

    def _probation_over(self, node: Node) -> None:
        """Probation elapsed; release unless the scheduler requisitioned it."""
        if not self.sim.rim.is_quarantined(node):
            return  # already requisitioned (and released) by the scheduler
        self.sim.rim.release_quarantined(node, reason="probation")
        self._kick(self.sim.env.now)

    def _on_release(self, node: Node, reason: str) -> None:
        """Manager callback: a quarantine ended (probation or requisition)."""
        now = self.sim.env.now
        idx = self._open_quar.pop(node.node_no, None)
        if idx is not None:
            start, _end = self.log.quarantines[idx]
            self.log.quarantines[idx] = (start, now)
        self._close_failure(node, now)

    def _close_failure(self, node: Node, now: int) -> None:
        idx = self._open_fail.pop(node.node_no, None)
        if idx is not None:
            start, cls, _end = self.log.failures[idx]
            self.log.failures[idx] = (start, cls, now)

    # -- transient configuration faults (SEU) -------------------------------------

    def _seu_one(self) -> None:
        sim = self.sim
        now = sim.env.now
        if sim.workload_finished:
            return
        if sim._arrivals_done and not sim._pending_retries and not self._scrubs:
            # Liveness, as after a crash: with no arrival, retry or scrub
            # left to redispatch, a queue on an idle system restarts here.
            self._kick(now)
        configured = sim.rim.configured_in_service()
        if configured:
            node = self.rng.choice(configured)
            offset = self.rng.randint(0, node.total_area - 1)
            if sim.partial:
                # Partial reconfiguration: the upset corrupts only the region
                # covering the struck offset; free fabric absorbs the strike.
                cum = 0
                for entry in list(node.entries):
                    cum += entry.config.req_area
                    if offset < cum:
                        if id(entry) not in self._scrub_entries:
                            self._scrub_entry(node, entry, now)
                        break
            else:
                # Full reconfiguration: one monolithic configuration context —
                # any strike corrupts every loaded region on the device.
                for entry in list(node.entries):
                    if id(entry) not in self._scrub_entries:
                        self._scrub_entry(node, entry, now)
        self._schedule_next_seu()

    def _scrub_entry(self, node: Node, entry: ConfigTaskEntry, now: int) -> None:
        """Corrupt one region and start its scrub/reconfigure repair."""
        sim = self.sim
        scrub_ticks = max(1, entry.config.config_time * self.scrub_factor)
        self._scrub_seq += 1
        scrub_task = Task(
            task_no=_SCRUB_TASK_BASE + self._scrub_seq,
            required_time=scrub_ticks,
            pref_config=entry.config,
            data="scrub",
        )
        scrub_task.mark_created(now)
        scrub_task.mark_started(now, entry.config)
        victim = sim.rim.seu_corrupt(node, entry, scrub_task)
        self._scrubs[scrub_task.task_no] = _Scrub(node, entry, scrub_task)
        self._scrub_entries.add(id(entry))
        self.log.config_faults += 1
        if victim is not None:
            sim._placements.pop(victim.task_no, None)
            self._interrupt(victim, node, now, "seu")
        sim.env.call_at(
            now + scrub_ticks,
            lambda: self._finish_scrub(scrub_task.task_no),
            tag=("scrub_finish", scrub_task.task_no),
        )

    def _finish_scrub(self, scrub_no: int) -> None:
        scrub = self._scrubs.pop(scrub_no, None)
        if scrub is None:
            return  # stale: the node crashed mid-scrub and lost the region
        self._scrub_entries.discard(id(scrub.entry))
        now = self.sim.env.now
        self.sim.rim.finish_scrub(scrub.node, scrub.entry, scrub.scrub_task)
        # The freed region (and any area it unblocks) can host queued work.
        self.sim._redispatch_from(scrub.node, now)

    # -- retry policy ---------------------------------------------------------------

    def _interrupt(self, task: Task, node: Node, now: int, cls: str) -> None:
        """Record one fault interrupt and route the task through retries."""
        sim = self.sim
        self.log.interrupt(cls)
        if sim.trace is not None:
            sim.trace.emit(_TASK_INTERRUPTED, task.task_no, node.node_no, cls)
        attempt = task.fault_retries
        task.fault_retries += 1
        if self.retry_budget is not None and attempt >= self.retry_budget:
            task.mark_discarded(now)
            sim.scheduler.stats.discarded += 1
            self.log.retry_discards += 1
            if sim.trace is not None:
                sim.trace.emit(_DISCARDED, task.task_no, "retry_budget")
            return
        if self.backoff_base <= 0:
            self._resubmit_now(task, now)
            return
        delay = self.backoff_base * (2 ** min(attempt, 32))
        if self.backoff_cap is not None:
            delay = min(delay, self.backoff_cap)
        task.mark_suspended(now)  # parked outside any queue until the retry tick
        self.log.retry(delay)
        if sim.trace is not None:
            sim.trace.emit(_TASK_RETRY, task.task_no, attempt + 1, delay, now + delay)
        sim._pending_retries += 1
        sim.env.call_at(
            now + delay, lambda: self._retry(task), tag=("retry", task.task_no)
        )

    def _resubmit_now(self, task: Task, now: int) -> None:
        """Classic fail-restart: instant resubmit via the suspension queue."""
        sim = self.sim
        rec = sim.susqueue.add(task, now)
        if rec is None:
            task.mark_discarded(now)
            sim.scheduler.stats.discarded += 1
            if sim.trace is not None:
                sim.trace.emit(_DISCARDED, task.task_no, "queue_full")
            return
        candidate = sim.susqueue.remove(rec)
        sim._submit(candidate, now)
        # If not scheduled, the task re-suspended; a future completion (or a
        # repair/scrub) redispatches it.

    def _retry(self, task: Task) -> None:
        """Backoff elapsed: the parked task re-enters scheduling."""
        sim = self.sim
        sim._pending_retries -= 1
        sim._submit(task, sim.env.now)

    def _kick(self, now: int) -> None:
        """Restart a fully idled system whose queue still holds work.

        Only fires when no placement is outstanding (otherwise a future
        completion event performs the §IV redispatch); drains the queue head
        until a dispatch fails, exactly like the completion-time protocol.
        """
        sim = self.sim
        if sim._placements or not sim.susqueue:
            return
        while sim.susqueue:
            rec = sim.susqueue.head
            assert rec is not None
            candidate = sim.susqueue.remove(rec)
            sim._submit(candidate, now)
            if candidate.status is not TaskStatus.RUNNING:
                break

    # -- snapshot support --------------------------------------------------------

    def export_state(self) -> dict:
        """Serialize the injector's dynamic state to JSON-safe plain data.

        Parameters (mtbf, rates, budgets, quarantine knobs) do NOT travel —
        restore requires a freshly constructed injector with identical
        parameters, exactly as the simulator restore requires the identical
        static system.  Scrub placeholder tasks are serialized in full: the
        manager's entries reference them, so the simulator's restore needs
        them before it can rebuild node state (two-phase protocol below).
        """
        node_entries = {n.node_no: n.entries for n in self.sim.rim.nodes}

        def entry_index(node: Node, entry: ConfigTaskEntry) -> int:
            # Identity scan — ConfigTaskEntry has value equality.
            return next(
                i for i, e in enumerate(node_entries[node.node_no]) if e is entry
            )

        return {
            "armed": self._armed,
            "log": self.log.export_state(),
            "scrub_seq": self._scrub_seq,
            "scrubs": [
                [
                    scrub_no,
                    scrub.node.node_no,
                    entry_index(scrub.node, scrub.entry),
                    export_task(scrub.scrub_task),
                ]
                for scrub_no, scrub in sorted(self._scrubs.items())
            ],
            "open_fail": sorted(self._open_fail.items()),
            "open_quar": sorted(self._open_quar.items()),
            "quarantine_due": sorted(self._quarantine_due),
            "rng": list(self.rng.getstate()),
        }

    def restore_scrub_tasks(
        self, state: dict, resolve_config: Callable[[list], Configuration]
    ) -> dict[int, Task]:
        """Restore phase 1: rebuild scrub placeholder tasks.

        Returns ``{task_no: Task}`` for the simulator to merge into its
        task table before the manager restore (corrupted entries bind these
        tasks).  Entry binding itself waits for phase 2 — the entries do
        not exist until the manager has been restored.
        """
        if self._armed or self.log.failures or self._scrubs:
            raise RuntimeError(
                "restore requires a freshly constructed, un-armed injector"
            )
        out: dict[int, Task] = {}
        self._restoring_scrubs: list[tuple[int, int, Task]] = []
        for _scrub_no, node_no, entry_idx, tdata in state["scrubs"]:
            task = restore_task(tdata, resolve_config)
            out[task.task_no] = task
            self._restoring_scrubs.append((node_no, entry_idx, task))
        return out

    def restore_state(self, state: dict) -> None:
        """Restore phase 2: bind scrubs to restored entries, rebuild the
        fault log and its open-span bookkeeping, and rewire the quarantine
        callback (taking the place of :meth:`arm` — do NOT arm a restored
        injector).  A malformed fault log, or an open span that names no
        open record of it, raises :class:`ConfigurationError`.
        """
        if not hasattr(self, "_restoring_scrubs"):
            raise RuntimeError("restore_scrub_tasks must run before restore_state")
        sim = self.sim
        node_by_no = {n.node_no: n for n in sim.rim.nodes}
        self._armed = state["armed"]
        log = self.log
        log.restore_state(state.get("log"))
        self._scrub_seq = state["scrub_seq"]
        for node_no, entry_idx, task in self._restoring_scrubs:
            node = node_by_no[node_no]
            entry = node.entries[entry_idx]
            self._scrubs[task.task_no] = _Scrub(node, entry, task)
            self._scrub_entries.add(id(entry))
        del self._restoring_scrubs
        self._open_fail = _open_spans(state["open_fail"], log.failures, "failure")
        self._open_quar = _open_spans(state["open_quar"], log.quarantines, "quarantine")
        self._quarantine_due = set(state["quarantine_due"])
        self.rng.setstate(tuple(state["rng"]))
        if self._armed and self.quarantine_enabled:
            sim.rim.on_quarantine_release = self._on_release

    def resolve_tag(
        self, tag: tuple, task_of: Callable[[int], Task]
    ) -> Callable[[], None]:
        """Map an exported injector event tag back to its callback."""
        kind = tag[0]
        if kind == "crash_next":
            return self._fail_one
        if kind == "seu_next":
            return self._seu_one
        if kind == "burst_next":
            return self._burst_one
        if kind == "repair":
            node = next(n for n in self.sim.rim.nodes if n.node_no == tag[1])
            return lambda: self._repair_due(node)
        if kind == "probation":
            node = next(n for n in self.sim.rim.nodes if n.node_no == tag[1])
            return lambda: self._probation_over(node)
        if kind == "scrub_finish":
            scrub_no = tag[1]
            return lambda: self._finish_scrub(scrub_no)
        if kind == "retry":
            task = task_of(tag[1])
            return lambda: self._retry(task)
        raise ValueError(f"unknown injector event tag {tag!r}")


def _open_spans(pairs: list, spans: list, what: str) -> dict[int, int]:
    """``{node_no: span index}`` from exported pairs, each naming an open span."""
    out = {}
    for node_no, idx in pairs:
        if type(idx) is not int or not 0 <= idx < len(spans) or spans[idx][-1] != -1:
            raise ConfigurationError(
                f"snapshot open {what} span {idx!r} of node {node_no} names no "
                "open span of the fault log"
            )
        out[node_no] = idx
    return out


__all__ = ["FailureInjector"]
