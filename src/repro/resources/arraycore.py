"""The array-backed resource manager — the tables of the ``backend="array"`` hot loop.

:class:`ArrayRIM` keeps the state of the scan manager with its *entire*
query state in flat integer tables, which the hot loop
(:mod:`repro.framework.hotloop`) answers the placement queries from:

* **node table** — parallel ``list[int]`` columns (``total``, ``avail``,
  ``busy_area``, ``busy_cnt``, ``n_entries``, ``live``) indexed by the
  node's position, so the Alg. 1 scans touch nothing but C-level list
  reads;
* **config table** — one sorted list of ``req_area << POS | position``
  ints replacing the closest-match index;
* **sorted query arrays** — one plain sorted ``list[int]`` per best-fit
  query, with the key packed into the high bits and the tie-break (table
  position or an append sequence number) in the low bits, maintained with
  ``bisect``/``insort``:

  =============  ======================================  ======================
  array          packing                                 members
  =============  ======================================  ======================
  ``_sp``        ``avail  << 20 | pos``                  configured, in service
  ``_sr``        ``reclaim << 20 | pos``                 configured, in service
  ``_sa``        ``total  << 20 | pos``                  configured, all idle
  ``_sb``        ``total  << 20 | pos``                  configured, ≥ 1 busy
  ``_sq``        ``total  << 44 | seq``                  the blank chain
  ``_ie[cno]``   ``avail  << 44 | seq``                  idle chain of ``cno``
  =============  ======================================  ======================

* **load aggregates** — the exact big-int sums ``Σ busy·w`` and
  ``Σ (busy·w)²`` (weights from :func:`~repro.model.node.load_weights`).

The suspension queue is not part of this module: both backends share
:class:`repro.resources.susqueue.SuspensionQueue`.

Node/entry objects remain the authoritative per-region state (they are
mutated through the same :class:`~repro.model.node.Node` methods), so the
report generator, the failure injector and the shared invariant checks read
them unchanged — but no query or charge-accounting path ever walks them.

**Exactness contract**: every query the hot loop answers from these tables
bills exactly the simulated scheduling steps the reference scan would
explore, every mutation charges the same housekeeping steps *in the same
order relative to trace emissions* (the bus stamps cumulative counters into
each event), and chain sequence numbers are allocated at exactly the same
points — so trace digests are byte-for-byte identical to the ``scan``
manager's, clean and under fault campaigns
(``tests/test_array_differential.py``).

The array backend requires the paper's homogeneous single-family system
(the packed keys cannot encode per-pair compatibility) and a run inside the
hot loop's envelope; anything else runs on the scan manager.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from typing import Callable, Iterable, Optional, Sequence

from repro.model.config import Configuration
from repro.model.errors import ConfigurationError
from repro.model.node import ConfigTaskEntry, Node, load_weights
from repro.model.task import Task
from repro.resources.counters import SearchCounters
from repro.resources.manager import (
    CONFIG_EVICTED_SHAPE,
    CONFIG_FAULT_SHAPE,
    CONFIG_LOADED_SHAPE,
    NODE_FAILED_SHAPE,
    NODE_PROBATION_SHAPE,
    NODE_QUARANTINED_SHAPE,
    NODE_REPAIRED_SHAPE,
    chain_record_chain,
    chain_record_entry,
    chain_record_node,
    export_node_records,
    quarantine_records,
    restore_node_records,
)
from repro.trace.bus import TraceBus

# Key packings: area << bits | tie-break.  Positions are table indexes
# (< 2^20 nodes); sequence numbers are monotone append stamps (< 2^44 over
# any realistic run — 100k-task campaigns allocate ~10^5 of them).
_POS_BITS = 20
_POS_MASK = (1 << _POS_BITS) - 1
_SEQ_BITS = 44
_SEQ_MASK = (1 << _SEQ_BITS) - 1


class ArrayRIM:
    """Flat-table resource information manager (``backend="array"``).

    Same state transitions, charges and trace events as the scan
    :class:`~repro.resources.manager.ResourceInformationManager`; see the
    module docstring for the layout and the hot loop for the queries.
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
        if any(c.family is not None for c in self.configs) or any(
            n.family is not None for n in self.nodes
        ):
            raise ConfigurationError(
                "the array backend requires a homogeneous (family-free) system; "
                "use create_manager() for the automatic object-manager fallback"
            )
        if len(self.nodes) > _POS_MASK:
            raise ValueError(f"array backend supports at most {_POS_MASK} nodes")

        # -- config table -------------------------------------------------
        self._config_by_no: dict[int, tuple[int, Configuration]] = {
            c.config_no: (i, c) for i, c in enumerate(self.configs)
        }
        self._cfg_keys: list[int] = sorted(
            c.req_area << _POS_BITS | i for i, c in enumerate(self.configs)
        )

        # -- chains as insertion-ordered dicts ----------------------------
        # dicts preserve append order, give O(1) remove-by-identity, and
        # iterate/len at C speed — the Fig. 3 chains without link objects.
        self._idle_m: dict[int, dict[ConfigTaskEntry, None]] = {
            c.config_no: {} for c in self.configs
        }
        self._busy_m: dict[int, dict[ConfigTaskEntry, None]] = {
            c.config_no: {} for c in self.configs
        }
        self._blank_m: dict[Node, None] = {}
        self._used_nodes: set[int] = set()
        self.reconfig_count_by_config: dict[int, int] = {c.config_no: 0 for c in self.configs}

        # -- chain keys: ``_sq`` (blank chain) and ``_ie`` (idle chains) ---
        self._sq: list[int] = []
        self._blank_key: dict[Node, int] = {}
        self._node_by_bseq: dict[int, Node] = {}
        self._ie: dict[int, list[int]] = {c.config_no: [] for c in self.configs}
        self._entry_by_seq: dict[int, ConfigTaskEntry] = {}
        self._chain_seq = 0
        self._quarantined: dict[int, tuple[Node, int]] = {}
        self.on_quarantine_release: Optional[Callable[[Node, str], None]] = None

        # -- flat node table, query arrays and aggregates ------------------
        self._pos: dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self._load_w = load_weights(self.nodes)
        self._derive_tables()

        # Populate chains in the scan manager's exact construction order
        # (sequence numbers must match for tie-breaks).
        for i, node in enumerate(self.nodes):
            if node.is_blank:
                if node.in_service:
                    self._blank_append(node)
                continue
            self._used_nodes.add(node.node_no)
            for entry in node.entries:
                entry._node = node  # type: ignore[attr-defined]
                entry._akey = None  # type: ignore[attr-defined]
                table = self._idle_m if entry.is_idle else self._busy_m
                chain = table.get(entry.config.config_no)
                if chain is None:
                    raise ConfigurationError(
                        f"config {entry.config.config_no} is not in the configurations list"
                    )
                chain[entry] = None
                if entry.is_idle and node.in_service:
                    self._idle_append(entry, i)

    def _derive_tables(self) -> None:
        """(Re)build the node table, query arrays and aggregates from the nodes.

        Everything set here is a function of the node/entry ground truth
        alone; the chains and their keys are the caller's.  Construction and
        :meth:`restore_state` build from it, and :meth:`validate_structures`
        checks the incrementally kept tables against a fresh run of it.
        """
        nodes = self.nodes
        self.t_total: list[int] = [n.total_area for n in nodes]
        self.t_avail: list[int] = [n.available_area for n in nodes]
        self.t_busy_area: list[int] = [n.busy_area for n in nodes]
        self.t_busy_cnt: list[int] = [n.busy_count for n in nodes]
        self.t_nent: list[int] = [len(n.entries) for n in nodes]
        self.t_live: list[int] = [1 if n.in_service else 0 for n in nodes]
        self._failed_count = self.t_live.count(0)
        self._sp: list[int] = []
        self._sr: list[int] = []
        self._sa: list[int] = []
        self._sb: list[int] = []
        self._busy_pos: list[int] = []  # table positions of live busy nodes
        self._live_cfg: list[Node] = []  # live configured nodes, in table order
        self._entries_total = 0
        self._idle_node_entries = 0
        self.state_counts: dict[str, int] = {"blank": 0, "idle": 0, "busy": 0}
        self._wasted_total = 0
        self.running_tasks_count = 0
        self._load_sum_i = 0
        self._load_sumsq_i = 0
        for pos, node in enumerate(nodes):
            total = self.t_total[pos]
            avail = self.t_avail[pos]
            ba = self.t_busy_area[pos]
            bc = self.t_busy_cnt[pos]
            nent = self.t_nent[pos]
            b = ba * self._load_w[pos]
            self._load_sum_i += b
            self._load_sumsq_i += b * b
            self.running_tasks_count += bc
            if not nent:
                self.state_counts["blank"] += 1
                continue
            self.state_counts["busy" if bc else "idle"] += 1
            self._wasted_total += avail
            if not self.t_live[pos]:
                continue
            self._live_cfg.append(node)
            self._sp.append(avail << _POS_BITS | pos)
            self._sr.append((total - ba) << _POS_BITS | pos)
            if bc:
                self._sb.append(total << _POS_BITS | pos)
                self._busy_pos.append(pos)
            else:
                self._sa.append(total << _POS_BITS | pos)
                self._idle_node_entries += nent
            self._entries_total += nent
        for lst in (self._sp, self._sr, self._sa, self._sb):
            lst.sort()

    # -- structure maintenance ----------------------------------------------

    def _next_seq(self) -> int:
        self._chain_seq += 1
        return self._chain_seq

    def _blank_append(self, node: Node, seq: Optional[int] = None) -> None:
        """Append to the blank chain and key it (a fresh sequence number
        unless a restored one is given)."""
        if seq is None:
            seq = self._next_seq()
        key = node.total_area << _SEQ_BITS | seq
        self._blank_m[node] = None
        self._blank_key[node] = key
        self._node_by_bseq[seq] = node
        insort(self._sq, key)

    def _blank_remove(self, node: Node) -> None:
        del self._blank_m[node]
        key = self._blank_key.pop(node)
        del self._node_by_bseq[key & _SEQ_MASK]
        self._sorted_remove(self._sq, key)

    def _idle_append(self, entry: ConfigTaskEntry, pos: int, seq: Optional[int] = None) -> None:
        """Key an entry just appended to its idle chain (a fresh sequence
        number unless a restored one is given)."""
        if seq is None:
            seq = self._next_seq()
        key = self.t_avail[pos] << _SEQ_BITS | seq
        entry._akey = key  # type: ignore[attr-defined]
        self._entry_by_seq[seq] = entry
        insort(self._ie[entry.config.config_no], key)

    def _idle_remove(self, entry: ConfigTaskEntry) -> None:
        """Unlink an entry from its idle chain and drop its key."""
        del self._idle_m[entry.config.config_no][entry]
        key = entry._akey  # type: ignore[attr-defined]
        if key is not None:
            self._sorted_remove(self._ie[entry.config.config_no], key)
            del self._entry_by_seq[key & _SEQ_MASK]
            entry._akey = None  # type: ignore[attr-defined]

    def _rekey_idle(self, pos: int, node: Node) -> None:
        """Refresh idle-entry keys after the node's available area changed."""
        avail = self.t_avail[pos]
        for entry in node.entries:
            key = entry._akey  # type: ignore[attr-defined]
            if key is not None and key >> _SEQ_BITS != avail:
                lst = self._ie[entry.config.config_no]
                del lst[bisect_left(lst, key)]
                new_key = avail << _SEQ_BITS | (key & _SEQ_MASK)
                entry._akey = new_key  # type: ignore[attr-defined]
                insort(lst, new_key)

    def _sorted_replace(self, lst: list[int], old: int, new: int) -> None:
        del lst[bisect_left(lst, old)]
        insort(lst, new)

    def _sorted_remove(self, lst: list[int], key: int) -> None:
        del lst[bisect_left(lst, key)]

    # -- node-table transitions -------------------------------------------------
    # Every mutator changes the node table through these two helpers only;
    # the hot loop keeps its own inlined copy of _busy_shift, for speed.

    def _busy_shift(self, pos: int, area: int, count: int) -> None:
        """Node ``pos`` gains ``count`` busy regions covering ``area``.

        Both deltas are negative when regions go idle.  Moves the
        reclaimable-area key, the running count and the load aggregates, and
        on an idle↔busy flip the state counts and the node's place in the
        all-idle/busy arrays.  The node's regions themselves stay loaded.
        A zero-count shift changes nothing (a blank node has no keys to move).
        """
        if not count:
            return
        ba0 = self.t_busy_area[pos]
        ba1 = ba0 + area
        bc0 = self.t_busy_cnt[pos]
        bc1 = bc0 + count
        self.t_busy_area[pos] = ba1
        self.t_busy_cnt[pos] = bc1
        self.running_tasks_count += count
        flip = (bc0 == 0) != (bc1 == 0)
        if flip:
            self.state_counts["idle" if bc1 else "busy"] -= 1
            self.state_counts["busy" if bc1 else "idle"] += 1
        if self.t_live[pos]:
            total = self.t_total[pos]
            self._sorted_replace(
                self._sr,
                (total - ba0) << _POS_BITS | pos,
                (total - ba1) << _POS_BITS | pos,
            )
            if flip:
                tkey = total << _POS_BITS | pos
                if bc1:
                    self._sorted_remove(self._sa, tkey)
                    insort(self._sb, tkey)
                    insort(self._busy_pos, pos)
                    self._idle_node_entries -= self.t_nent[pos]
                else:
                    self._sorted_remove(self._sb, tkey)
                    self._sorted_remove(self._busy_pos, pos)
                    insort(self._sa, tkey)
                    self._idle_node_entries += self.t_nent[pos]
        self._apply_load_delta(pos, ba0, ba1)

    def _apply_load_delta(self, pos: int, ba0: int, ba1: int) -> None:
        """Exact-integer load-sum update."""
        w = self._load_w[pos]
        d = (ba1 - ba0) * w
        self._load_sum_i += d
        self._load_sumsq_i += d * ((ba1 + ba0) * w)

    def _regions_shift(self, pos: int, node: Node) -> None:
        """Node ``pos`` had regions loaded or freed; move its row to match ``node``.

        Moves the free-area key, the Eq. 6 waste total, the entry tallies
        and the idle-entry keys.  On a blank↔configured flip it also moves
        the state counts, the node's place in the query arrays and its place
        on the blank chain (one housekeeping step; a node out of service
        stays off the chain).  The busy regions stay as they are, so a node
        flipping either way runs nothing.
        """
        avail0 = self.t_avail[pos]
        nent0 = self.t_nent[pos]
        avail1 = node.available_area
        nent1 = len(node.entries)
        self.t_avail[pos] = avail1
        self.t_nent[pos] = nent1
        self._wasted_total += (avail1 if nent1 else 0) - (avail0 if nent0 else 0)
        live = self.t_live[pos]
        if nent0 and nent1:
            if live:
                self._sorted_replace(
                    self._sp, avail0 << _POS_BITS | pos, avail1 << _POS_BITS | pos
                )
                self._entries_total += nent1 - nent0
                if not self.t_busy_cnt[pos]:
                    self._idle_node_entries += nent1 - nent0
            self._rekey_idle(pos, node)
            return
        if not (nent0 or nent1):
            return
        self.state_counts["blank" if nent1 else "idle"] -= 1
        self.state_counts["idle" if nent1 else "blank"] += 1
        if live:
            # Nothing runs, so the reclaimable key is the total-area key.
            tkey = self.t_total[pos] << _POS_BITS | pos
            pos_of = self._pos.__getitem__
            if nent1:
                insort(self._sp, avail1 << _POS_BITS | pos)
                insort(self._sr, tkey)
                insort(self._sa, tkey)
                insort(self._live_cfg, node, key=pos_of)
            else:
                self._sorted_remove(self._sp, avail0 << _POS_BITS | pos)
                self._sorted_remove(self._sr, tkey)
                self._sorted_remove(self._sa, tkey)
                del self._live_cfg[bisect_left(self._live_cfg, pos, key=pos_of)]
            self._entries_total += nent1 - nent0
            self._idle_node_entries += nent1 - nent0
        if nent1:
            if node in self._blank_m:
                self._blank_remove(node)
                self.counters.housekeeping_steps += 1
        elif node.in_service and node not in self._blank_m:
            self._blank_append(node)
            self.counters.housekeeping_steps += 1

    # -- chain views ---------------------------------------------------------

    def idle_chain(self, config: Configuration) -> Iterable[ConfigTaskEntry]:
        """The Idle_start chain (Fig. 3) for one configuration (sized view)."""
        return self._idle_m[config.config_no].keys()

    def busy_chain(self, config: Configuration) -> Iterable[ConfigTaskEntry]:
        """The Busy_start chain (Fig. 3) for one configuration (sized view)."""
        return self._busy_m[config.config_no].keys()

    @property
    def blank_chain(self) -> Iterable[Node]:
        return self._blank_m.keys()

    @property
    def total_used_nodes(self) -> int:
        """Table I: nodes that received at least one configuration."""
        return len(self._used_nodes)

    # -- configuration lookup ------------------------------------------------

    def peek_preferred_config(self, pref: Configuration) -> Optional[Configuration]:
        """Uncharged exact-match lookup (O(1) dict hit)."""
        hit = self._config_by_no.get(pref.config_no)
        return hit[1] if hit is not None else None

    def peek_closest_config(self, pref: Configuration) -> Optional[Configuration]:
        """Uncharged closest-match lookup (O(log m) bisect on packed keys)."""
        keys = self._cfg_keys
        i = bisect_left(keys, pref.req_area << _POS_BITS)
        return self.configs[keys[i] & _POS_MASK] if i < len(keys) else None

    # -- Alg. 1 (FindAnyIdleNode): the hot loop's phase 4 ----------------------

    def _failed_scan_steps(self, require_all_idle: bool) -> int:
        """Steps the Alg. 1 scan explores when no candidate exists."""
        if require_all_idle:
            return (
                self._failed_count
                + self.state_counts["busy"]
                + len(self._blank_m)
                + self._idle_node_entries
            )
        return self._failed_count + len(self._blank_m) + self._entries_total

    def _scan_any_idle_node(
        self, config: Configuration, require_all_idle: bool
    ) -> tuple[Optional[Node], list[ConfigTaskEntry]]:
        req = config.req_area
        t_live = self.t_live
        t_busy_cnt = self.t_busy_cnt
        t_nent = self.t_nent
        t_avail = self.t_avail
        t_busy_area = self.t_busy_area
        t_total = self.t_total
        steps = 0
        hit = -1
        for pos in range(len(self.nodes)):
            if not t_live[pos]:
                steps += 1
                continue
            if require_all_idle and t_busy_cnt[pos]:
                steps += 1
                continue
            nent = t_nent[pos]
            if t_avail[pos] >= req and nent and not require_all_idle:
                # Free region alone suffices; nothing to evict.
                steps += 1
                self.counters.scheduling_steps += steps
                return self.nodes[pos], []
            if not nent:
                steps += 1
                continue
            if t_total[pos] - t_busy_area[pos] < req:
                # Candidate examined end to end without accumulating enough.
                steps += nent
                continue
            hit = pos
            break
        if hit < 0:
            self.counters.scheduling_steps += steps
            return None, []
        # Reclaimable area suffices: the entry walk is guaranteed to reach
        # ``req``; replicate it on the hit node only, for the eviction set
        # and the exact per-entry charge.
        node = self.nodes[hit]
        accum = t_avail[hit]
        collected: list[ConfigTaskEntry] = []
        for entry in node.entries:
            steps += 1
            if entry.task is None:
                accum += entry.config.req_area
                collected.append(entry)
                if accum >= req:
                    self.counters.scheduling_steps += steps
                    if require_all_idle:
                        return node, list(node.entries)
                    return node, collected
        raise AssertionError("reclaimable-area prefilter admitted an infeasible node")

    # -- mutations (housekeeping) ---------------------------------------------

    def configure_node(self, node: Node, config: Configuration, now: int = 0) -> ConfigTaskEntry:
        """Send a bitstream: load ``config`` onto ``node`` as an idle entry."""
        pos = self._pos[node]
        entry = node.send_bitstream(config, now=now)
        entry._node = node  # type: ignore[attr-defined]
        entry._akey = None  # type: ignore[attr-defined]
        self._regions_shift(pos, node)
        self._idle_m[config.config_no][entry] = None
        self._idle_append(entry, pos)
        self.counters.housekeeping_steps += 1
        self._used_nodes.add(node.node_no)
        self.reconfig_count_by_config[config.config_no] += 1
        if self.trace is not None:
            self.trace.emit(
                CONFIG_LOADED_SHAPE, node.node_no, config.config_no, config.config_time
            )
        return entry

    def assign_task(self, task: Task, node: Node, entry: ConfigTaskEntry) -> None:
        """Bind a task to an idle entry and move it idle→busy chain."""
        counters = self.counters
        self._idle_remove(entry)
        counters.housekeeping_steps += 1
        node.add_task(task, entry)
        self._busy_shift(self._pos[node], entry.config.req_area, 1)
        self._busy_m[entry.config.config_no][entry] = None
        counters.housekeeping_steps += 1
        self._used_nodes.add(node.node_no)

    def complete_task(self, task: Task, node: Node) -> ConfigTaskEntry:
        """Release a finished task's entry and move it busy→idle chain."""
        entry = node.remove_task(task)
        cno = entry.config.config_no
        pos = self._pos[node]
        self._busy_shift(pos, -entry.config.req_area, -1)
        counters = self.counters
        del self._busy_m[cno][entry]
        counters.housekeeping_steps += 1
        self._idle_m[cno][entry] = None
        self._idle_append(entry, pos)
        counters.housekeeping_steps += 1
        return entry

    def evict_entries(self, node: Node, entries: Iterable[ConfigTaskEntry]) -> int:
        """Remove idle entries (partial re-configuration); returns area freed."""
        entries = list(entries)
        for entry in entries:
            self._idle_remove(entry)
            self.counters.housekeeping_steps += 1
        reclaimed = node.make_partially_blank(entries)
        self._regions_shift(self._pos[node], node)
        if entries and self.trace is not None:
            self.trace.emit(
                CONFIG_EVICTED_SHAPE,
                node.node_no,
                [e.config.config_no for e in entries],
                reclaimed,
            )
        return reclaimed

    # -- failure injection ----------------------------------------------------

    def fail_node(self, node: Node, cls: str = "crash") -> list[Task]:
        """Take a node out of service; see the scan manager for semantics."""
        if not node.in_service:
            raise ConfigurationError(f"node {node.node_no} is already failed")
        lost = len(node.entries)
        counters = self.counters
        for entry in list(node.entries):
            if entry.is_busy:
                del self._busy_m[entry.config.config_no][entry]
            else:
                self._idle_remove(entry)
            counters.housekeeping_steps += 1
        interrupted = node.interrupt_all()
        node.make_blank()
        # Out of service before the regions shift, so it stays off the blank chain.
        node.in_service = False
        pos = self._pos[node]
        self._busy_shift(pos, -self.t_busy_area[pos], -self.t_busy_cnt[pos])
        self._regions_shift(pos, node)
        self.t_live[pos] = 0
        self._failed_count += 1
        if node in self._blank_m:
            self._blank_remove(node)
            counters.housekeeping_steps += 1
        if self.trace is not None:
            self.trace.emit(NODE_FAILED_SHAPE, node.node_no, len(interrupted), lost, cls)
        return interrupted

    def repair_node(self, node: Node) -> None:
        """Return a repaired node to service, blank."""
        if node.in_service:
            raise ConfigurationError(f"node {node.node_no} is not failed")
        node.in_service = True
        self.t_live[self._pos[node]] = 1
        self._failed_count -= 1
        self._blank_append(node)
        self.counters.housekeeping_steps += 1
        if self.trace is not None:
            self.trace.emit(NODE_REPAIRED_SHAPE, node.node_no)

    # -- transient configuration faults (SEU scrubbing) -------------------------

    def seu_corrupt(self, node: Node, entry: ConfigTaskEntry, scrub_task: Task) -> Optional[Task]:
        """A single-event upset corrupted ``entry``; bind the scrub task."""
        if not node.in_service:
            raise ConfigurationError(f"node {node.node_no} is not in service")
        victim = entry.task
        if victim is None:
            # Idle region: the scrub task is placed like any other task.
            self.assign_task(scrub_task, node, entry)
        else:
            # Busy region: swap the victim for the scrub task in place; the
            # node's busy area/count and every query array are unchanged.
            node.remove_task(victim)
            node.add_task(scrub_task, entry)
            self.counters.housekeeping_steps += 1
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
        """Scrubbing done: evict the corrupted configuration, free the region."""
        node.remove_task(scrub_task)
        pos = self._pos[node]
        self._busy_shift(pos, -entry.config.req_area, -1)
        del self._busy_m[entry.config.config_no][entry]
        self.counters.housekeeping_steps += 1
        reclaimed = node.make_partially_blank([entry])
        self._regions_shift(pos, node)
        if self.trace is not None:
            self.trace.emit(
                CONFIG_EVICTED_SHAPE, node.node_no, [entry.config.config_no], reclaimed
            )
        return reclaimed

    # -- quarantine ---------------------------------------------------------------

    def is_quarantined(self, node: Node) -> bool:
        """Is this node currently held in the quarantine table?"""
        return node.node_no in self._quarantined

    def quarantine_node(self, node: Node, now: int, until: int, score_milli: int) -> None:
        """Hold an (already failed) flaky node out of service until ``until``."""
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
        """Last-resort scan: first quarantined node able to host ``config``."""
        req = config.req_area
        counters = self.counters
        for node, _until in self._quarantined.values():
            counters.scheduling_steps += 1
            if node.total_area >= req:
                return node
        return None

    # -- statistics -------------------------------------------------------------

    def total_wasted_area(self, charge: bool = False) -> int:
        """Eq. 6: Σ AvailableArea over nodes holding ≥ 1 configuration."""
        if not charge:
            return self._wasted_total
        total = 0
        t_nent = self.t_nent
        t_avail = self.t_avail
        counters = self.counters
        for pos in range(len(self.nodes)):
            counters.housekeeping_steps += 1
            if t_nent[pos]:
                total += t_avail[pos]
        return total

    def configured_in_service(self) -> Sequence[Node]:
        """In-service nodes holding ≥ 1 configuration, in table order (the
        SEU target set); uncharged.  Kept by :meth:`_regions_shift`; the
        caller must not mutate it."""
        return self._live_cfg

    # -- snapshot support --------------------------------------------------------

    def export_state(self) -> dict:
        """Backend-neutral dynamic state for checkpointing.

        Identical format to
        :meth:`repro.resources.manager.ResourceInformationManager.export_state`
        — chain orders and sequence numbers match across backends by the
        exactness contract, so a snapshot cut under one backend restores
        under any other with an unchanged trace digest.
        """
        nodes_out, epos = export_node_records(self.nodes)
        blank_out = [
            [self._pos[n], self._blank_key[n] & _SEQ_MASK] for n in self._blank_m
        ]
        idle_out = []
        busy_out = []
        for c in self.configs:
            idle_chain = self._idle_m[c.config_no]
            if idle_chain:
                idle_out.append(
                    [
                        c.config_no,
                        [
                            [*epos[id(e)], e._akey & _SEQ_MASK]  # type: ignore[attr-defined]
                            for e in idle_chain
                        ],
                    ]
                )
            busy_chain = self._busy_m[c.config_no]
            if busy_chain:
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

        Same preconditions and errors as the scan manager's
        ``restore_state``: a freshly constructed manager over the same
        static system.  No step charging — counter values travel in the
        snapshot.
        """
        restore_node_records(self.nodes, state["nodes"], self._config_by_no, task_of)
        self._derive_tables()
        # Replace the construction-time blank chain with the exported chains,
        # which carry their own sequence numbers.
        self._blank_m.clear()
        self._blank_key.clear()
        self._node_by_bseq.clear()
        self._sq.clear()
        for ni, seq in state["blank"]:
            self._blank_append(chain_record_node(self.nodes, ni), seq)
        for cno, recs in state["idle"]:
            chain = chain_record_chain(self._idle_m, cno)
            for ni, ei, seq in recs:
                entry = chain_record_entry(self.nodes, ni, ei)
                chain[entry] = None
                self._idle_append(entry, ni, seq)
        for cno, recs in state["busy"]:
            chain = chain_record_chain(self._busy_m, cno)
            for ni, ei in recs:
                entry = chain_record_entry(self.nodes, ni, ei)
                entry._akey = None  # type: ignore[attr-defined]
                chain[entry] = None
        self._chain_seq = state["chain_seq"]
        self._used_nodes = set(state["used_nodes"])
        self.reconfig_count_by_config = {
            cno: count for cno, count in state["reconfig_counts"]
        }
        self._quarantined = quarantine_records(self.nodes, state["quarantined"])

    # -- structure validation (invariant checker capability hook) ----------------

    def validate_structures(self) -> None:
        """Cross-check every flat table against the node/entry ground truth.

        The backend-specific half of :func:`repro.resources.invariants.
        check_invariants`: the shared object-level invariants (I1, I6–I9,
        I11) run unchanged; this verifies the mirror columns, the packed
        sorted arrays and the load sums against a fresh
        :meth:`_derive_tables` on a shallow copy, then the chain dicts and
        their keys — the structures the scan manager covers with I2–I5.
        """
        from repro.resources.invariants import InvariantViolation

        fresh = copy.copy(self)
        fresh._derive_tables()
        for name, want in vars(fresh).items():
            have = getattr(self, name)
            if have is not want and have != want:
                raise InvariantViolation(
                    f"array table {name} out of sync with the nodes: "
                    f"{have!r} != {want!r}"
                )
        # Blank chain/keys.
        for node in self._blank_m:
            if node.entries:
                raise InvariantViolation(
                    f"non-blank node {node.node_no} on the blank chain"
                )
            key = self._blank_key.get(node)
            if key is None or self._node_by_bseq.get(key & _SEQ_MASK) is not node:
                raise InvariantViolation(
                    f"blank key mapping broken for node {node.node_no}"
                )
        if self._sq != sorted(self._blank_key.values()) or len(self._sq) != len(
            self._blank_m
        ):
            raise InvariantViolation("_sq out of sync with the blank chain")
        # Idle/busy chain dicts and per-config idle keys.
        keyed = 0
        for cno, chain in self._idle_m.items():
            for entry in chain:
                if not entry.is_idle:
                    raise InvariantViolation(f"busy entry {entry!r} on idle[{cno}]")
                if entry.config.config_no != cno:
                    raise InvariantViolation(f"entry {entry!r} filed under C{cno}")
                key = entry._akey  # type: ignore[attr-defined]
                if key is not None:
                    keyed += 1
                    node = entry._node  # type: ignore[attr-defined]
                    if key >> _SEQ_BITS != node.available_area:
                        raise InvariantViolation(
                            f"stale idle key for {entry!r}: "
                            f"{key >> _SEQ_BITS} != {node.available_area}"
                        )
                    if self._entry_by_seq.get(key & _SEQ_MASK) is not entry:
                        raise InvariantViolation(f"idle seq mapping broken for {entry!r}")
                elif entry._node.in_service:  # type: ignore[attr-defined]
                    raise InvariantViolation(f"unkeyed live idle entry {entry!r}")
            lst = self._ie[cno]
            expected_keys = sorted(
                entry._akey  # type: ignore[attr-defined]
                for entry in chain
                if entry._akey is not None  # type: ignore[attr-defined]
            )
            if lst != expected_keys:
                raise InvariantViolation(f"_ie[{cno}] out of sync with idle chain")
        if keyed != len(self._entry_by_seq):
            raise InvariantViolation("idle-entry seq map holds stale records")
        for cno, chain in self._busy_m.items():
            for entry in chain:
                if not entry.is_busy:
                    raise InvariantViolation(f"idle entry {entry!r} on busy[{cno}]")
                if entry.config.config_no != cno:
                    raise InvariantViolation(f"entry {entry!r} filed under C{cno}")


__all__ = ["ArrayRIM"]
