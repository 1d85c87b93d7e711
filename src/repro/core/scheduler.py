"""The case-study scheduling algorithm — Fig. 5 and Alg. 1 of the paper.

:class:`DreamScheduler` implements the four-phase placement process:

1. **Match** — exact preferred configuration via linear search of the
   configurations list; else the closest match (minimum ``ReqArea`` among
   configurations at least as large); else the task is *discarded*.
2. **Allocation** — best idle node already holding the matched
   configuration (minimum ``AvailableArea``); zero configuration cost.
3. **Configuration** — best blank node (minimum sufficient ``TotalArea``);
   pays the configuration time.
4. **Partial configuration** *(partial mode only)* — best configured node
   with a sufficient free region (minimum sufficient ``AvailableArea``).
5. **Partial re-configuration** *(partial mode only)* — ``FindAnyIdleNode``
   (Alg. 1): the first node whose free area plus idle-entry area suffices;
   its idle entries are evicted and the region reconfigured.
6. **Suspension** — if any busy node could *ever* host the configuration,
   the task waits in the suspension queue; otherwise it is discarded.

``partial=False`` reproduces the paper's *without partial reconfiguration*
scenario: each node holds at most one configuration (one node – one task),
so phases 4–5 reduce to whole-node reconfiguration of idle nodes, which
Alg. 1 covers naturally (a full node's single idle entry is the eviction
set).  The published comparison (Figs. 6–10) is exactly these two modes run
on identical workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import (
    Placement,
    PlacementKind,
    ScheduleOutcome,
    ScheduleResult,
    SchedulerStats,
)
from repro.core.policies import PlacementPolicy
from repro.model.config import Configuration
from repro.model.node import Node
from repro.model.task import Task
from repro.resources.manager import ResourceInformationManager
from repro.resources.susqueue import SuspensionQueue
from repro.trace.events import DISCARDED, PLACED, SUSPENDED, line_encoder

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.gpp import GppPool
    from repro.trace.bus import TraceBus

# Trace shapes (TraceBus.emit takes the values in this order).
_PLACED = line_encoder(PLACED, "task", "kind", "node", "cfg", "ctime", "avail", "sw", "closest")
_PLACED_GPP = line_encoder(PLACED, "task", "kind", "node", "cfg", "ctime", "closest")
_SUSPENDED = line_encoder(SUSPENDED, "task", "qlen")
_DISCARDED = line_encoder(DISCARDED, "task", "reason")

# What the phases decide; schedule() wraps it in the ScheduleOutcome.
_Decision = tuple[ScheduleResult, Optional[Placement]]


class DreamScheduler:
    """Four-phase scheduler over a resource information manager.

    It runs on the scan manager; over the array manager the hot loop runs
    the same phases and uses only its statistics, match memo and queue key.

    Parameters
    ----------
    rim:
        The resource information manager (node table + chains + counters).
    susqueue:
        The suspension queue; created automatically if omitted.
    partial:
        ``True`` (default) for the partial-reconfiguration scenario,
        ``False`` for the one-node-one-task baseline.
    policy:
        Candidate-selection criteria; defaults to the paper's
        minimum-sufficient-area rule.
    trace:
        Optional :class:`repro.trace.TraceBus`; emits ``Placed`` (with the
        phase that produced the placement) and ``Discarded`` events.  An
        auto-created suspension queue inherits it.
    """

    def __init__(
        self,
        rim: ResourceInformationManager,
        susqueue: Optional[SuspensionQueue] = None,
        partial: bool = True,
        policy: Optional[PlacementPolicy] = None,
        gpp_pool: Optional["GppPool"] = None,
        trace: Optional["TraceBus"] = None,
    ) -> None:
        self.rim = rim
        self.trace = trace
        if susqueue is None:
            susqueue = SuspensionQueue(
                rim.counters, key_fn=self.matched_config_no, trace=trace
            )
        elif susqueue.key_fn is None:
            susqueue.key_fn = self.matched_config_no
        self.susqueue = susqueue
        self.partial = partial
        self.policy = policy if policy is not None else PlacementPolicy.paper()
        self.stats = SchedulerStats()
        # Memo for silent configuration matching: the configurations list is
        # static for a run, so a task's match never changes.
        self._match_memo: dict[int, Optional[Configuration]] = {}
        self._min_config_area = min((c.req_area for c in rim.configs), default=0)
        self.gpp_pool = gpp_pool

    # -- public API -----------------------------------------------------------

    def schedule(self, task: Task, now: int) -> ScheduleOutcome:
        """Attempt to place ``task``; applies all state changes on success.

        The returned outcome carries the per-task search length (Alg. 1's
        ``SL``), also accumulated on ``task.scheduling_steps``.
        """
        steps_before = self.rim.counters.scheduling_steps
        result, placement = self._schedule_inner(task, now)
        steps = self.rim.counters.scheduling_steps - steps_before
        task.scheduling_steps += steps
        outcome = ScheduleOutcome(
            task=task, result=result, placement=placement, search_steps=steps
        )
        self.stats.record(outcome)
        return outcome

    def next_redispatch(self, freed_node: Node) -> Optional[Task]:
        """Completion-time suspension-queue check (§IV ``TaskCompletionProc``).

        "Each time a node finishes executing a task, the suspension queue is
        checked … to determine if a suitable task is waiting in the queue
        which can be executed on the node."  Suitability is two-tier:

        1. **Exact reuse** — the earliest queued task whose matched
           configuration is one the freed node now holds idle; dispatching
           it is a zero-cost direct allocation.  This is the dominant path
           once queues are long, which is why the full-reconfiguration
           scenario performs so few reconfigurations per task (Fig. 10).
        2. **Reconfiguration fallback** — if no exact candidate exists, the
           first queued task whose matched configuration fits the freed
           node's reclaimable area (a re-configuration could host it).

        The check's simulated cost is a linear queue traversal, billed via
        :meth:`SuspensionQueue.charge_full_scan`; returns the task removed
        from the queue, or None.
        """
        if not self.susqueue:
            return None
        reclaimable = freed_node.reclaimable_area()
        if reclaimable <= 0:
            return None  # node fully busy again; nothing can be hosted
        self.susqueue.charge_full_scan()
        freed_keys = {e.config.config_no for e in freed_node.entries if e.is_idle}
        rec = self.susqueue.first_with_key(freed_keys) if freed_keys else None
        if rec is None:
            if reclaimable < self._min_config_area:
                return None  # no configuration can fit in the reclaimable region

            def fits(task: Task) -> bool:
                cfg = self.matched_config(task)
                return cfg is not None and cfg.req_area <= reclaimable

            # Reference fallback: linear queue walk with early exit.
            rec = self.susqueue.search(fits)
        if rec is None:
            return None
        return self.susqueue.remove(rec)

    def matched_config(self, task: Task) -> Optional[Configuration]:
        """The configuration ``task`` resolves to (exact or closest match),
        memoised and without step charging — used by queue predicates.

        Delegates to the RIM's uncharged ``peek_*`` helpers so the matching
        rule lives in exactly one place; the charged phase-0 lookups
        (:meth:`ResourceInformationManager.find_preferred_config` /
        ``find_closest_config``) resolve to the same answers.
        """
        memo = self._match_memo
        if task.task_no in memo:
            return memo[task.task_no]
        pref = task.pref_config
        found = self.rim.peek_preferred_config(pref)
        if found is None:
            found = self.rim.peek_closest_config(pref)
        memo[task.task_no] = found
        return found

    def matched_config_no(self, task: Task) -> Optional[int]:
        """Suspension-queue index key: the matched configuration number."""
        cfg = self.matched_config(task)
        return cfg.config_no if cfg is not None else None

    # -- the algorithm ------------------------------------------------------------

    def _schedule_inner(self, task: Task, now: int) -> _Decision:
        rim = self.rim

        # Phase 0: match the configuration (exact, then closest).
        config = rim.find_preferred_config(task.pref_config)
        used_closest = False
        if config is None:
            config = rim.find_closest_config(task.pref_config)
            used_closest = True
            if config is None:
                return self._discard(task, now, reason="no_config")

        # Phase 1: allocation on an idle entry with the matched config.
        entry = self.policy.select_idle_entry(rim, config)
        if entry is not None:
            node = rim._node_of(entry)
            return self._start(
                task, now, node, entry, config,
                PlacementKind.ALLOCATION, config_time=0,
                used_closest=used_closest,
            )

        # Phase 2: configuration of a blank node.
        node = self.policy.select_blank_node(rim, config)
        if node is not None:
            new_entry = rim.configure_node(node, config, now=now)
            return self._start(
                task, now, node, new_entry, config,
                PlacementKind.CONFIGURATION, config_time=config.config_time,
                used_closest=used_closest,
            )

        if self.partial:
            # Phase 3: partial configuration of a free region.
            node = self.policy.select_partially_blank_node(rim, config)
            if node is not None:
                new_entry = rim.configure_node(node, config, now=now)
                return self._start(
                    task, now, node, new_entry, config,
                    PlacementKind.PARTIAL_CONFIGURATION,
                    config_time=config.config_time,
                    used_closest=used_closest,
                )

        # Phase 4: (partial) re-configuration via FindAnyIdleNode (Alg. 1).
        # In full mode this is whole-node reconfiguration of an idle node.
        node, evict = rim.find_any_idle_node(config, require_all_idle=not self.partial)
        if node is not None:
            evicted_area = rim.evict_entries(node, evict) if evict else 0
            new_entry = rim.configure_node(node, config, now=now)
            return self._start(
                task, now, node, new_entry, config,
                PlacementKind.PARTIAL_RECONFIGURATION,
                config_time=config.config_time,
                used_closest=used_closest,
                evicted_area=evicted_area,
            )

        # Hybrid fallback (Fig. 1): run on a free GPP core at a slowdown
        # rather than wait for reconfigurable capacity.
        if self.gpp_pool is not None:
            slot = self.gpp_pool.acquire(task)
            if slot is not None:
                from repro.model.gpp import GPP_CONFIG

                comm = self.gpp_pool.network_delay
                task.mark_started(now, GPP_CONFIG, comm_time=comm, on_gpp=True)
                placement = Placement(
                    kind=PlacementKind.GPP_OFFLOAD,
                    node=None,
                    entry=None,
                    config=GPP_CONFIG,
                    comm_time=comm,
                    used_closest_match=False,
                    gpp_slot=slot,
                    exec_time=self.gpp_pool.exec_time(task),
                )
                if self.trace is not None:
                    self.trace.emit(
                        _PLACED_GPP,
                        task.task_no,
                        PlacementKind.GPP_OFFLOAD.value,
                        None,
                        GPP_CONFIG.config_no,
                        0,
                        False,
                    )
                return ScheduleResult.SCHEDULED, placement

        # Last resort: suspension if some busy node could ever host it.
        if self.rim.busy_candidate_exists(config):
            if self.susqueue.add(task, now):
                # Emitted here, not inside SuspensionQueue.add: only
                # scheduler-decided suspensions are suspension *events*
                # (Table I); the failure injector's transient add/remove
                # round-trip is queue bookkeeping, not a suspension.
                if self.trace is not None:
                    self.trace.emit(_SUSPENDED, task.task_no, len(self.susqueue))
                return ScheduleResult.SUSPENDED, None
            return self._rescue_or_discard(task, now, config, used_closest, "queue_full")
        return self._rescue_or_discard(task, now, config, used_closest, "no_placement")

    # -- helpers --------------------------------------------------------------------

    def _rescue_or_discard(
        self,
        task: Task,
        now: int,
        config: Configuration,
        used_closest: bool,
        reason: str,
    ) -> _Decision:
        """Graceful degradation's final rung: a quarantined node, else discard.

        The health policy's preference order — healthy idle, then healthy
        partial, then reconfiguration — is the unmodified four-phase search
        (quarantined nodes are out of service and invisible to it); only a
        task that would otherwise be *discarded* may requisition a
        quarantined node.  The ``has_quarantined`` guard keeps the hook
        zero-cost when no fault campaign is active.
        """
        if self.rim.has_quarantined():
            node = self.rim.find_quarantined_host(config)
            if node is not None:
                self.rim.release_quarantined(node, reason="requisition")
                entry = self.rim.configure_node(node, config, now=now)
                return self._start(
                    task, now, node, entry, config,
                    PlacementKind.CONFIGURATION,
                    config_time=config.config_time,
                    used_closest=used_closest,
                )
        return self._discard(task, now, reason=reason)

    def _start(
        self,
        task: Task,
        now: int,
        node: Node,
        entry,
        config: Configuration,
        kind: PlacementKind,
        config_time: int,
        used_closest: bool,
        evicted_area: int = 0,
    ) -> _Decision:
        # Eq. 8 semantics: t_start is the dispatch tick; t_comm and t_config
        # are added on top of (t_start − t_create) when computing the wait.
        # Execution therefore occupies [now + comm + config, + t_required].
        # t_comm is the node's fixed delay (Table II's ranges, drawn per node).
        comm_time = node.network_delay
        task.mark_started(now, config, comm_time=comm_time, config_time_paid=config_time)
        self.rim.assign_task(task, node, entry)
        if self.trace is not None:
            self.trace.emit(
                _PLACED,
                task.task_no,
                kind.value,
                node.node_no,
                config.config_no,
                config_time,
                node.available_area,
                self.rim.total_wasted_area(),
                used_closest,
            )
        placement = Placement(
            kind=kind,
            node=node,
            entry=entry,
            config=config,
            config_time=config_time,
            comm_time=comm_time,
            evicted_area=evicted_area,
            used_closest_match=used_closest,
        )
        return ScheduleResult.SCHEDULED, placement

    def _discard(self, task: Task, now: int, reason: str = "no_placement") -> _Decision:
        task.mark_discarded(now)
        if self.trace is not None:
            self.trace.emit(_DISCARDED, task.task_no, reason)
        return ScheduleResult.DISCARDED, None


__all__ = ["DreamScheduler"]
