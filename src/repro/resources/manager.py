"""The resource information manager — §III's information subsystem core.

Maintains "all sorts of information about the nodes": the static node table,
the dynamic per-configuration idle/busy chains of Fig. 3, the blank-node
list, and the search-step counters of Table I.  All scheduler queries and all
state mutations go through this class, so consistency between node state and
chain membership is enforced in one place (and independently verified by
:func:`repro.resources.invariants.check_invariants`).

Search-step accounting: every link traversed during a *query* charges the
counter passed by the scheduler (per-task ``SL``); every link touched during
a *mutation* (configure/assign/complete/evict) charges housekeeping, matching
the paper's split between "scheduling steps" and "scheduler workload".

This is the ``backend="scan"`` manager and the executable specification:
every query is the paper's linear walk over the §IV-B ``Inext``/``Bnext``
chains or the node table, charging one step per element visited.  The
production backend, :class:`repro.resources.arraycore.ArrayRIM`, answers the
same queries from flat sorted arrays while billing exactly the steps these
walks take; the differential and golden-trace suites hold the two
bit-identical.  Heterogeneous (device-family) systems always run here, since
the per-pair compatibility filters only exist in the walks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.model.config import Configuration
from repro.model.errors import ConfigurationError
from repro.model.node import ConfigTaskEntry, Node
from repro.model.task import Task
from repro.resources.chains import IntrusiveChain
from repro.resources.counters import SearchCounters
from repro.trace.bus import TraceBus
from repro.trace.events import (
    CONFIG_EVICTED,
    CONFIG_FAULT,
    CONFIG_LOADED,
    NODE_FAILED,
    NODE_PROBATION,
    NODE_QUARANTINED,
    NODE_REPAIRED,
    line_encoder,
)

# The trace shapes both managers emit (TraceBus.emit takes the values in
# this order).
CONFIG_LOADED_SHAPE = line_encoder(CONFIG_LOADED, "node", "cfg", "ctime")
CONFIG_EVICTED_SHAPE = line_encoder(CONFIG_EVICTED, "node", "cfgs", "area")
CONFIG_FAULT_SHAPE = line_encoder(CONFIG_FAULT, "node", "cfg", "interrupted", "scrub")
NODE_FAILED_SHAPE = line_encoder(NODE_FAILED, "node", "interrupted", "lost", "cls")
NODE_REPAIRED_SHAPE = line_encoder(NODE_REPAIRED, "node")
NODE_QUARANTINED_SHAPE = line_encoder(NODE_QUARANTINED, "node", "until", "score")
NODE_PROBATION_SHAPE = line_encoder(NODE_PROBATION, "node", "reason")


class ResourceInformationManager:
    """Node table + per-configuration idle/busy chains + step accounting.

    Parameters
    ----------
    nodes:
        All reconfigurable nodes in the system (assumed blank initially;
        nodes created with pre-loaded entries are chained appropriately).
    configs:
        The global configurations list (§IV-A); preferred configurations not
        in this list trigger the closest-match path.
    counters:
        Shared search-step counters; a fresh one is created if omitted.
    trace:
        Optional :class:`repro.trace.TraceBus`; when attached, every
        configuration load/evict and node fail/repair emits a structured
        event.  ``None`` (default) costs one attribute check per mutation.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        configs: Sequence[Configuration],
        counters: Optional[SearchCounters] = None,
        trace: Optional[TraceBus] = None,
    ) -> None:
        self.nodes: list[Node] = list(nodes)
        self.configs: list[Configuration] = list(configs)
        self.counters = counters if counters is not None else SearchCounters()
        self.trace = trace

        seen_nos = set()
        for c in self.configs:
            if c.config_no in seen_nos:
                raise ValueError(f"duplicate config_no {c.config_no} in configurations list")
            seen_nos.add(c.config_no)

        # Static configuration lookup behind the uncharged peek_* helpers
        # used by the scheduler's memoised matching.
        self._config_by_no: dict[int, tuple[int, Configuration]] = {
            c.config_no: (i, c) for i, c in enumerate(self.configs)
        }

        self._idle: dict[int, IntrusiveChain] = {
            c.config_no: IntrusiveChain(f"idle[C{c.config_no}]") for c in self.configs
        }
        self._busy: dict[int, IntrusiveChain] = {
            c.config_no: IntrusiveChain(f"busy[C{c.config_no}]") for c in self.configs
        }
        self._blank = IntrusiveChain("blank-nodes")
        self._used_nodes: set[int] = set()  # node_nos that ever received a config/task
        # Per-configuration reconfiguration counts: the (ReconfigCount)_k of
        # Eq. 10, from which total configuration time is computed.
        self.reconfig_count_by_config: dict[int, int] = {c.config_no: 0 for c in self.configs}

        # Chain append stamps: every blank-chain and idle-chain append takes
        # the next sequence number.  Snapshots carry them, and the array
        # backend allocates them at exactly the same points (its sorted
        # arrays tie-break on them), which keeps cross-backend restore exact.
        self._node_pos: dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self._chain_seq = 0
        # Quarantined nodes: repaired hardware held out of service until a
        # probation deadline (node_no -> (node, release deadline)).  Strictly
        # opt-in: the dict stays empty unless a health policy quarantines,
        # and every scheduler hook guards on has_quarantined() first.
        self._quarantined: dict[int, tuple[Node, int]] = {}
        # Called as (node, reason) whenever a quarantine ends — probation or
        # scheduler requisition alike — so the failure injector can close its
        # failure/quarantine spans from either path.
        self.on_quarantine_release = None

        for node in self.nodes:
            if node.is_blank:
                if node.in_service:
                    self._blank_append(node)
            else:
                self._used_nodes.add(node.node_no)
                for entry in node.entries:
                    setattr(entry, "_node", node)
                    self._chain_for(entry).append(entry)
                    if entry.is_idle and node.in_service:
                        setattr(entry, "_idle_seq", self._next_seq())

        self._derive_aggregates()

    # -- aggregate bookkeeping ------------------------------------------------------

    def _derive_aggregates(self) -> None:
        """Count the incremental system aggregates from the nodes.

        ``_track`` keeps them exact around every node mutation from here on
        (cross-checked by invariant I9); they make the per-event monitoring
        O(1) instead of O(nodes).  Construction and restore both start here.
        """
        self.state_counts: dict[str, int] = {"blank": 0, "idle": 0, "busy": 0}
        self._wasted_total = 0
        self.running_tasks_count = 0
        for node in self.nodes:
            self.state_counts[self._state_key(node)] += 1
            self._wasted_total += self._waste_of(node)
            self.running_tasks_count += node.busy_count

    @staticmethod
    def _state_key(node: Node) -> str:
        if node.is_blank:
            return "blank"
        return "busy" if node.busy_count > 0 else "idle"

    @staticmethod
    def _waste_of(node: Node) -> int:
        """Eq. 6 contribution: available area of a configured node."""
        return 0 if node.is_blank else node.available_area

    def _track(self, node: Node, mutate):
        """Run a node mutation, keeping the incremental aggregates exact.

        Subtracts the node's contributions, runs the mutation, adds them
        back.  (``in_service`` never changes inside a tracked mutation;
        fail/repair toggle it outside.)
        """
        self.state_counts[self._state_key(node)] -= 1
        self._wasted_total -= self._waste_of(node)
        self.running_tasks_count -= node.busy_count
        result = mutate()
        self.state_counts[self._state_key(node)] += 1
        self._wasted_total += self._waste_of(node)
        self.running_tasks_count += node.busy_count
        return result

    def _next_seq(self) -> int:
        self._chain_seq += 1
        return self._chain_seq

    def _idle_append(self, entry: ConfigTaskEntry) -> None:
        """Append to the configuration's idle chain (allocates a sequence number)."""
        self._idle[entry.config.config_no].append(entry)
        setattr(entry, "_idle_seq", self._next_seq())

    def _blank_append(self, node: Node) -> None:
        """Append to the blank chain (allocates a sequence number)."""
        self._blank.append(node)
        setattr(node, "_blank_seq", self._next_seq())

    # -- chain helpers -----------------------------------------------------------

    def _chain_for(self, entry: ConfigTaskEntry) -> IntrusiveChain:
        table = self._idle if entry.is_idle else self._busy
        chain = table.get(entry.config.config_no)
        if chain is None:
            raise ConfigurationError(
                f"config {entry.config.config_no} is not in the configurations list"
            )
        return chain

    def idle_chain(self, config: Configuration) -> IntrusiveChain:
        """The Idle_start chain (Fig. 3) for one configuration."""
        return self._idle[config.config_no]

    def busy_chain(self, config: Configuration) -> IntrusiveChain:
        """The Busy_start chain (Fig. 3) for one configuration."""
        return self._busy[config.config_no]

    @property
    def blank_chain(self) -> IntrusiveChain:
        return self._blank

    @property
    def total_used_nodes(self) -> int:
        """Table I: nodes that received at least one configuration."""
        return len(self._used_nodes)

    # -- configuration lookup (FindPreferredConfig / FindClosestConfig) ----------

    def peek_preferred_config(self, pref: Configuration) -> Optional[Configuration]:
        """Uncharged exact-match lookup (O(1) dict hit).

        Used by the scheduler's memoised silent matching; the charged
        :meth:`find_preferred_config` walk resolves to the same answer.
        """
        hit = self._config_by_no.get(pref.config_no)
        return hit[1] if hit is not None else None

    def peek_closest_config(self, pref: Configuration) -> Optional[Configuration]:
        """Uncharged closest-match lookup.

        The configuration with minimal ``ReqArea`` among those ≥ the
        preference's, earliest list position on area ties.
        """
        best: Optional[Configuration] = None
        for c in self.configs:
            if c.req_area >= pref.req_area and (best is None or c.req_area < best.req_area):
                best = c
        return best

    def find_preferred_config(self, pref: Configuration) -> Optional[Configuration]:
        """Linear search of the configurations list for the exact match.

        "Currently, a simple linear search is employed" — each element
        visited charges one scheduling step.
        """
        for c in self.configs:
            self.counters.charge_scheduling()
            if c is pref or c.config_no == pref.config_no:
                return c
        return None

    def find_closest_config(self, pref: Configuration) -> Optional[Configuration]:
        """The config with minimal ``ReqArea`` among those ≥ the preference's.

        Returns ``None`` when every configuration is smaller than the
        preferred area — the task is then discarded (§V).  The scan never
        stops early, so it charges one step per configuration.
        """
        self.counters.charge_scheduling_many(len(self.configs))
        return self.peek_closest_config(pref)

    # -- scheduler queries (FindBestNode / FindBestBlankNode / ...) ----------------

    def find_best_idle_entry(self, config: Configuration) -> Optional[ConfigTaskEntry]:
        """Best direct-allocation target: idle entry whose node has minimum
        ``AvailableArea`` (§V: "so that the nodes with larger AvailableArea
        are utilized for later re-configurations")."""
        best: Optional[ConfigTaskEntry] = None
        for entry in self._idle[config.config_no]:
            self.counters.charge_scheduling()
            node = self._node_of(entry)
            if not node.in_service:
                continue
            if best is None or node.available_area < self._node_of(best).available_area:
                best = entry
        return best

    def find_best_blank_node(self, config: Configuration) -> Optional[Node]:
        """Blank node with minimal sufficient ``TotalArea`` for ``config``."""
        best: Optional[Node] = None
        for node in self._blank:
            self.counters.charge_scheduling()
            if not node.in_service:
                continue
            if node.total_area >= config.req_area and config.compatible_with_node_family(
                node.family
            ):
                if best is None or node.total_area < best.total_area:
                    best = node
        return best

    def find_best_partially_blank_node(self, config: Configuration) -> Optional[Node]:
        """Configured node with minimal sufficient *free* region (§V partial
        configuration: "chooses a node with minimum sufficient region").

        Charges one scheduling step per configured (non-blank) node examined.
        """
        best: Optional[Node] = None
        for node in self.nodes:
            if node.is_blank:
                continue
            self.counters.charge_scheduling()
            if not node.in_service:
                continue
            if node.available_area >= config.req_area and config.compatible_with_node_family(
                node.family
            ):
                if best is None or node.available_area < best.available_area:
                    best = node
        return best

    def find_any_idle_node(
        self, config: Configuration, require_all_idle: bool = False
    ) -> tuple[Optional[Node], list[ConfigTaskEntry]]:
        """Alg. 1 (``FindAnyIdleNode``): first node whose free area plus the
        area under its *idle* entries can host ``config``.

        Returns ``(node, entries-to-evict)`` or ``(None, [])``.  Step
        accounting matches the pseudocode: at least one scheduling step per
        node visited (every branch), plus one per config–task entry
        examined.

        ``require_all_idle`` restricts candidates to nodes with no running
        task — the *without partial reconfiguration* scenario, where reuse
        means blanking and reconfiguring a whole idle node.
        """
        req = config.req_area
        for node in self.nodes:
            if not node.in_service or not config.compatible_with_node_family(node.family):
                self.counters.charge_scheduling()
                continue
            if require_all_idle and node.busy_count:
                self.counters.charge_scheduling()
                continue
            accum = node.available_area
            if accum >= req and node.entries and not require_all_idle:
                # Free region alone suffices; nothing to evict.  (Normally the
                # partial-configuration phase catches this first.)
                self.counters.charge_scheduling()
                return node, []
            if not node.entries:
                self.counters.charge_scheduling()
                continue
            collected: list[ConfigTaskEntry] = []
            for entry in node.entries:
                self.counters.charge_scheduling()
                if entry.is_idle:
                    accum += entry.config.req_area
                    collected.append(entry)
                    if accum >= req:
                        if require_all_idle:
                            # Whole-node reconfiguration: evict everything.
                            return node, list(node.entries)
                        return node, collected
        return None, []

    def busy_candidate_exists(self, config: Configuration) -> bool:
        """§V last resort: any *busy* node whose ``TotalArea`` could ever
        host the configuration (the task is then worth suspending).

        The walk stops at the first candidate, charging its position.
        """
        for node in self.nodes:
            self.counters.charge_scheduling()
            if node.in_service and node.state.value == "busy" and node.total_area >= config.req_area:
                if config.compatible_with_node_family(node.family):
                    return True
        return False

    # -- mutations (housekeeping) -----------------------------------------------------

    def configure_node(self, node: Node, config: Configuration, now: int = 0) -> ConfigTaskEntry:
        """Send a bitstream: load ``config`` onto ``node`` as an idle entry."""
        was_blank = node.is_blank
        entry = self._track(node, lambda: node.send_bitstream(config, now=now))
        setattr(entry, "_node", node)
        if was_blank and node in self._blank:
            self._blank.remove(node)
            self.counters.charge_housekeeping()
        self._idle_append(entry)
        self.counters.charge_housekeeping()
        self._used_nodes.add(node.node_no)
        self.reconfig_count_by_config[config.config_no] += 1
        if self.trace is not None:
            self.trace.emit(
                CONFIG_LOADED_SHAPE, node.node_no, config.config_no, config.config_time
            )
        return entry

    def assign_task(self, task: Task, node: Node, entry: ConfigTaskEntry) -> None:
        """Bind a task to an idle entry and move it idle→busy chain."""
        self._idle[entry.config.config_no].remove(entry)
        self.counters.charge_housekeeping()
        self._track(node, lambda: node.add_task(task, entry))
        self._busy[entry.config.config_no].append(entry)
        self.counters.charge_housekeeping()
        self._used_nodes.add(node.node_no)

    def complete_task(self, task: Task, node: Node) -> ConfigTaskEntry:
        """Release a finished task's entry and move it busy→idle chain.

        The configuration stays loaded — the freed region becomes a
        zero-cost direct-allocation target.
        """
        entry = self._track(node, lambda: node.remove_task(task))
        self._busy[entry.config.config_no].remove(entry)
        self.counters.charge_housekeeping()
        self._idle_append(entry)
        self.counters.charge_housekeeping()
        return entry

    def evict_entries(self, node: Node, entries: Iterable[ConfigTaskEntry]) -> int:
        """Remove idle entries (partial re-configuration); returns area freed."""
        entries = list(entries)
        for entry in entries:
            self._idle[entry.config.config_no].remove(entry)
            self.counters.charge_housekeeping()
        reclaimed = self._track(node, lambda: node.make_partially_blank(entries))
        if node.is_blank and node not in self._blank:
            self._blank_append(node)
            self.counters.charge_housekeeping()
        if entries and self.trace is not None:
            self.trace.emit(
                CONFIG_EVICTED_SHAPE,
                node.node_no,
                [e.config.config_no for e in entries],
                reclaimed,
            )
        return reclaimed

    # -- failure injection ---------------------------------------------------------------

    def fail_node(self, node: Node, cls: str = "crash") -> list[Task]:
        """Take a node out of service (failure-injection studies).

        All running tasks are interrupted (returned for the caller to
        restart), all configurations are lost (SRAM contents do not survive),
        and the node leaves every chain until repaired.  ``cls`` tags the
        fault class ("crash" or "burst") on the ``NodeFailed`` event so trace
        replay can re-derive per-class resilience counters.
        """
        if not node.in_service:
            raise ConfigurationError(f"node {node.node_no} is already failed")
        interrupted: list[Task] = []
        lost = len(node.entries)

        def wipe() -> None:
            for entry in list(node.entries):
                if entry.is_busy:
                    self._busy[entry.config.config_no].remove(entry)
                else:
                    self._idle[entry.config.config_no].remove(entry)
                self.counters.charge_housekeeping()
            interrupted.extend(node.interrupt_all())
            node.make_blank()

        self._track(node, wipe)
        if node in self._blank:
            self._blank.remove(node)
            self.counters.charge_housekeeping()
        node.in_service = False
        if self.trace is not None:
            self.trace.emit(NODE_FAILED_SHAPE, node.node_no, len(interrupted), lost, cls)
        return interrupted

    def repair_node(self, node: Node) -> None:
        """Return a repaired node to service, blank."""
        if node.in_service:
            raise ConfigurationError(f"node {node.node_no} is not failed")
        node.in_service = True
        self._blank_append(node)
        self.counters.charge_housekeeping()
        if self.trace is not None:
            self.trace.emit(NODE_REPAIRED_SHAPE, node.node_no)

    # -- transient configuration faults (SEU scrubbing) ---------------------------------

    def seu_corrupt(self, node: Node, entry: ConfigTaskEntry, scrub_task: Task) -> Optional[Task]:
        """A single-event upset corrupted ``entry``'s loaded configuration.

        Only this region is affected — the rest of the node keeps running
        (the headline advantage of partial reconfiguration under transient
        faults).  The running task, if any, is detached and returned for the
        caller to restart; ``scrub_task`` (a synthetic placeholder whose
        required time is the scrubbing/reconfigure duration) is bound to the
        entry so the region stays busy — and therefore invisible to every
        placement query — until :meth:`finish_scrub`.
        """
        if not node.in_service:
            raise ConfigurationError(f"node {node.node_no} is not in service")
        victim = entry.task

        def mutate() -> None:
            if victim is not None:
                node.remove_task(victim)
            node.add_task(scrub_task, entry)

        if victim is None:
            # Idle region: the entry moves idle -> busy chain for the scrub.
            self._idle[entry.config.config_no].remove(entry)
            self.counters.charge_housekeeping()
        self._track(node, mutate)
        if victim is None:
            self._busy[entry.config.config_no].append(entry)
        self.counters.charge_housekeeping()
        if self.trace is not None:
            self.trace.emit(
                CONFIG_FAULT_SHAPE,
                node.node_no,
                entry.config.config_no,
                victim.task_no if victim is not None else None,
                scrub_task.required_time,
            )
        return victim

    def finish_scrub(self, node: Node, entry: ConfigTaskEntry, scrub_task: Task) -> int:
        """Scrubbing done: evict the corrupted configuration, free the region.

        The repair is a reconfiguration of the region to blank (the corrupted
        bitstream does not survive); a later placement reloads whatever the
        region hosts next through the normal charged phases.  Returns the
        area reclaimed.
        """
        self._track(node, lambda: node.remove_task(scrub_task))
        self._busy[entry.config.config_no].remove(entry)
        self.counters.charge_housekeeping()
        reclaimed = self._track(node, lambda: node.make_partially_blank([entry]))
        if node.is_blank and node not in self._blank:
            self._blank_append(node)
            self.counters.charge_housekeeping()
        if self.trace is not None:
            self.trace.emit(
                CONFIG_EVICTED_SHAPE, node.node_no, [entry.config.config_no], reclaimed
            )
        return reclaimed

    # -- quarantine ----------------------------------------------------------------------

    def has_quarantined(self) -> bool:
        """O(1) guard for the scheduler's last-resort hook."""
        return bool(self._quarantined)

    def is_quarantined(self, node: Node) -> bool:
        """Is this node currently held in the quarantine table?"""
        return node.node_no in self._quarantined

    def quarantine_node(self, node: Node, now: int, until: int, score_milli: int) -> None:
        """Hold an (already failed) flaky node out of service until ``until``.

        The node stays exactly where :meth:`fail_node` left it — out of every
        chain — so the four-phase placement skips it at zero extra cost; only
        :meth:`release_quarantined` returns it to service.
        """
        if node.in_service:
            raise ConfigurationError(f"node {node.node_no} must be failed to quarantine")
        self._quarantined[node.node_no] = (node, until)
        if self.trace is not None:
            self.trace.emit(NODE_QUARANTINED_SHAPE, node.node_no, until, score_milli)

    def release_quarantined(self, node: Node, reason: str = "probation") -> None:
        """End a node's quarantine (probation elapsed, or requisitioned)."""
        if node.node_no not in self._quarantined:
            raise ConfigurationError(f"node {node.node_no} is not quarantined")
        del self._quarantined[node.node_no]
        if self.trace is not None:
            self.trace.emit(NODE_PROBATION_SHAPE, node.node_no, reason)
        self.repair_node(node)
        if self.on_quarantine_release is not None:
            self.on_quarantine_release(node, reason)

    def find_quarantined_host(self, config: Configuration) -> Optional[Node]:
        """Last-resort scan: first quarantined node able to host ``config``.

        Charged one scheduling step per quarantined node examined, in
        quarantine order.
        """
        for node, _until in self._quarantined.values():
            self.counters.charge_scheduling()
            if node.total_area >= config.req_area and config.compatible_with_node_family(
                node.family
            ):
                return node
        return None

    # -- statistics -------------------------------------------------------------------

    def total_wasted_area(self, charge: bool = False) -> int:
        """Eq. 6: Σ AvailableArea over nodes holding ≥ 1 configuration.

        ``charge=True`` bills the walk to housekeeping (when the simulated
        monitoring module itself performs it); metric sampling by the
        harness passes ``False`` so measurement does not distort Table I's
        workload counters.
        """
        if not charge:
            return self._wasted_total
        total = 0
        for node in self.nodes:
            self.counters.charge_housekeeping()
            if not node.is_blank:
                total += node.available_area
        return total

    def configured_in_service(self) -> Sequence[Node]:
        """In-service nodes holding ≥ 1 configuration, in table order (the
        SEU target set); uncharged.  Here a walk of the node table."""
        return [n for n in self.nodes if n.in_service and n.entries]

    # -- snapshot support ---------------------------------------------------------------

    def export_state(self) -> dict:
        """Backend-neutral dynamic state for checkpointing.

        Everything the constructor cannot regenerate from the static system:
        per-node entries (with bound task numbers), chain membership in chain
        order with the original append sequence numbers, the sequence
        counter, and the failure/quarantine bookkeeping.  The format is
        shared with :class:`repro.resources.arraycore.ArrayRIM` — the chain
        orders and sequence allocation points are identical across backends,
        which is what makes cross-backend restore digest-preserving.
        """
        nodes_out, epos = export_node_records(self.nodes)
        blank_out = [[self._node_pos[n], getattr(n, "_blank_seq")] for n in self._blank]
        idle_out = []
        busy_out = []
        for c in self.configs:
            idle_chain = self._idle[c.config_no]
            if len(idle_chain):
                idle_out.append(
                    [
                        c.config_no,
                        [
                            [*epos[id(e)], getattr(e, "_idle_seq")]
                            for e in idle_chain
                        ],
                    ]
                )
            busy_chain = self._busy[c.config_no]
            if len(busy_chain):
                busy_out.append(
                    [c.config_no, [list(epos[id(e)]) for e in busy_chain]]
                )
        return {
            "chain_seq": self._chain_seq,
            "blank": blank_out,
            "idle": idle_out,
            "busy": busy_out,
            "nodes": nodes_out,
            "used_nodes": sorted(self._used_nodes),
            "reconfig_counts": [
                [c.config_no, self.reconfig_count_by_config[c.config_no]]
                for c in self.configs
            ],
            "quarantined": [
                [node_no, until]
                for node_no, (_n, until) in self._quarantined.items()
            ],
        }

    def restore_state(self, state: dict, task_of: Callable[[int], Task]) -> None:
        """Rebuild the dynamic state captured by :meth:`export_state`.

        Must be called on a *freshly constructed* manager over the same
        static system (all nodes blank and in service); ``task_of`` maps a
        task number back to its restored :class:`Task` (identity matters:
        a running task's ``assigned_config`` must be the manager's own
        configuration object).  Nothing here charges the step counters —
        counter values travel in the snapshot, not in the rebuild.
        """
        restore_node_records(self.nodes, state["nodes"], self._config_by_no, task_of)
        # Replace the construction-time blank chain with the exported chains,
        # which carry their own sequence numbers.
        for node in list(self._blank):
            self._blank.remove(node)
        for ni, seq in state["blank"]:
            node = chain_record_node(self.nodes, ni)
            self._blank.append(node)
            setattr(node, "_blank_seq", seq)
        for cno, recs in state["idle"]:
            chain = chain_record_chain(self._idle, cno)
            for ni, ei, seq in recs:
                entry = chain_record_entry(self.nodes, ni, ei)
                chain.append(entry)
                setattr(entry, "_idle_seq", seq)
        for cno, recs in state["busy"]:
            chain = chain_record_chain(self._busy, cno)
            for ni, ei in recs:
                chain.append(chain_record_entry(self.nodes, ni, ei))
        self._chain_seq = state["chain_seq"]
        self._derive_aggregates()
        self._used_nodes = set(state["used_nodes"])
        self.reconfig_count_by_config = {
            cno: count for cno, count in state["reconfig_counts"]
        }
        self._quarantined = quarantine_records(self.nodes, state["quarantined"])

    # -- internal ----------------------------------------------------------------------

    def _node_of(self, entry: ConfigTaskEntry) -> Node:
        node = getattr(entry, "_node", None)
        if node is None:
            # Fall back to a table scan (only for entries created outside
            # configure_node, e.g. hand-built test fixtures).
            for n in self.nodes:
                if entry in n.entries:
                    setattr(entry, "_node", n)
                    return n
            raise ConfigurationError(f"entry {entry!r} belongs to no known node")
        return node


# -- the node-record snapshot codec, shared by both backends ---------------------------


def export_node_records(
    nodes: Sequence[Node],
) -> tuple[list[dict], dict[int, tuple[int, int]]]:
    """The per-node half of a manager snapshot.

    Returns one record per node — its entries as ``[config_no, task_no,
    loaded_at]`` plus the service, reconfiguration and health fields — and the
    ``(node, entry)`` table position of every entry, keyed by ``id(entry)``,
    from which the chain records are written.
    """
    epos: dict[int, tuple[int, int]] = {}
    records = []
    for ni, node in enumerate(nodes):
        entries = []
        for ei, entry in enumerate(node.entries):
            epos[id(entry)] = (ni, ei)
            entries.append(
                [
                    entry.config.config_no,
                    entry.task.task_no if entry.task is not None else None,
                    entry.loaded_at,
                ]
            )
        records.append(
            {
                "entries": entries,
                "in_service": node.in_service,
                "reconfig_count": node.reconfig_count,
                "health_milli": node.health_milli,
                "health_updated": node.health_updated,
            }
        )
    return records, epos


def restore_node_records(
    nodes: Sequence[Node],
    records: list[dict],
    config_by_no: dict[int, tuple[int, Configuration]],
    task_of: Callable[[int], Task],
) -> None:
    """Replay :func:`export_node_records` output onto a fresh manager's nodes.

    The manager must be freshly constructed over the same static system:
    as many nodes as records, all blank and in service.  Entries are
    rebuilt through the public :class:`Node` mutators and get their
    ``_node`` back-reference.  Raises :class:`ConfigurationError` when the
    preconditions fail or a record names an unknown configuration.
    """
    if len(records) != len(nodes):
        raise ConfigurationError(
            f"snapshot has {len(records)} nodes, manager has {len(nodes)}"
        )
    if any(n.entries or not n.in_service for n in nodes):
        raise ConfigurationError(
            "restore_state requires a freshly constructed manager "
            "(all nodes blank and in service)"
        )
    for node, rec in zip(nodes, records):
        for cno, task_no, loaded_at in rec["entries"]:
            hit = config_by_no.get(cno)
            if hit is None:
                raise ConfigurationError(
                    f"snapshot loads unknown config {cno} on node {node.node_no}"
                )
            entry = node.send_bitstream(hit[1], now=loaded_at)
            setattr(entry, "_node", node)
            if task_no is not None:
                node.add_task(task_of(task_no), entry)
        node.in_service = rec["in_service"]
        node.reconfig_count = rec["reconfig_count"]
        node.health_milli = rec["health_milli"]
        node.health_updated = rec["health_updated"]


_Chain = TypeVar("_Chain")


def chain_record_chain(chains: dict[int, _Chain], cno: int) -> _Chain:
    """The idle or busy chain a snapshot chain record names by config number."""
    chain = chains.get(cno)
    if chain is None:
        raise ConfigurationError(f"snapshot chain record names unknown config {cno}")
    return chain


def chain_record_node(nodes: Sequence[Node], ni: int) -> Node:
    """The node a snapshot chain record names by table position."""
    if not 0 <= ni < len(nodes):
        raise ConfigurationError(
            f"snapshot chain record names node position {ni} of {len(nodes)}"
        )
    return nodes[ni]


def chain_record_entry(nodes: Sequence[Node], ni: int, ei: int) -> ConfigTaskEntry:
    """The entry a snapshot chain record names by ``(node, entry)`` position."""
    entries = chain_record_node(nodes, ni).entries
    if not 0 <= ei < len(entries):
        raise ConfigurationError(
            f"snapshot chain record names entry {ei} of node position {ni}, "
            f"which holds {len(entries)}"
        )
    return entries[ei]


def quarantine_records(
    nodes: Sequence[Node], records: list[list[int]]
) -> dict[int, tuple[Node, int]]:
    """The quarantine table a snapshot's ``[node_no, until]`` records describe."""
    by_no = {n.node_no: n for n in nodes}
    table: dict[int, tuple[Node, int]] = {}
    for node_no, until in records:
        node = by_no.get(node_no)
        if node is None:
            raise ConfigurationError(f"snapshot quarantines unknown node {node_no}")
        table[node_no] = (node, until)
    return table


__all__ = ["ResourceInformationManager"]
