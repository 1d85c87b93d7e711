"""The flat-table hot loop: the run driver of every ``backend="array"`` run.

The generic :class:`~repro.framework.simulator.DReAMSim` run loop routes
every arrival and completion through the event kernel, the four-phase
scheduler, the monitor, and the load balancer as separate objects — clean
layering, but at paper scale (200 nodes / 100k tasks) the per-event call
overhead dominates the wall clock.  This module collapses that stack into
one loop over the :class:`~repro.resources.arraycore.ArrayRIM` flat tables:
the event heap, phase-0..4 placement, suspension-queue maintenance,
monitor/load sampling and the metric accumulators all run as straight-line
code over the packed integer arrays.  Fault campaigns run here too: the
failure injector's kernel events fire in place (see *Kernel events* below).
So do service windows: the loop is resumable at a window bound (see
*Windows* below), and a batch run and every ``DReAMSim.advance`` window
drive the same loop.

**The hot loop is an implementation of the same semantics, not a variant.**
Every simulated quantity — scheduling/housekeeping step charges, task
timestamps and statuses, monitor and load series, waste accumulators,
scheduler statistics, event ordering (``(time, insertion sequence)`` heap
ties) — is produced exactly as the generic path over the scan manager
produces it, so a hot run and a scan run of the same inputs are
bit-identical (``tests/test_array_differential.py`` asserts this).
``DReAMSim`` gives an ``array`` request the scan manager unless the loop
replicates it completely (:func:`in_hot_envelope`), so every ``ArrayRIM``
run is a hot-loop run:

* array backend, homogeneous;
* the paper's MIN_AREA placement policy;
* no trace bus attached, or a plain :class:`~repro.trace.bus.TraceBus`:
  every sink takes pre-encoded canonical lines (``write_lines``), so the
  loop formats each line through the table's positional encoders
  (``repro.trace.events.line_encoder``) with the exact stamps the generic
  path's ``TraceBus.emit`` would produce and hands them to the bus in
  batches — the digest, the JSONL file and a ``MemorySink``'s lines stay
  byte-identical to the generic path's;
* no GPP pool and no debug invariant checking.

The run's state is not part of the envelope: a fresh run, an armed fault
campaign and a run restored from a snapshot all qualify.

**Kernel events.**  The loop's heap *is* ``env._queue`` and its sequence
counter continues ``env._seq``, so its own ``(time, seq, task, node, entry)``
records and the kernel's ``(time, seq, Event)`` records sort by one unique
``(time, seq)`` key; a 3-tuple is a kernel event.  Each one fires behind a
barrier: ``sync_out`` writes the hoisted locals back to the shared objects
(counters, state counts, scheduler tallies, load aggregates, monitor clock,
``env._now``/``_seq``), flushes the buffered trace lines and re-attaches
``rim.trace``; the callback then runs the manager's own fault transitions;
``sync_in`` reloads the locals and detaches ``rim.trace`` again.  While the
loop runs, the injector's ``sim._submit`` (retries, instant resubmits,
``_kick``) and ``sim._redispatch_from`` (scrub finish) reach the loop's own
``submit`` and ``redispatch`` through the same barrier in reverse, so no
second copy of the scheduler exists.  Placement stores a token in
``sim._placements`` — the completion record's ``seq`` with the placement's
kind, evicted area and closest-match flag; the injector pops it on
interrupt, so a completion whose token no longer matches is *stale* and is
skipped before the per-tick housekeeping charge, exactly as the generic
``_on_complete`` skips it.  Kernel events charge no per-tick housekeeping.
A batch run that starts with no kernel event queued can never see one, so
it skips the kernel-record test and the tokens.

**Windows.**  :func:`hot_loop` is a generator; :func:`run_hot` builds it on
a run's first drive, keeps it on the simulator, and resumes it with each
bound (``None`` for a batch run or ``run_to_end``).  A window fires every
record at or before its bound and leaves the clock at the last one fired,
then publishes the whole state — ``sync_out`` plus the pending arrival,
the arrival counts and the accumulators — and yields; the next window
reloads it through ``sync_in``.  The hoisted tables are bound once, and
the heap is never converted between windows: while the loop is paused the
simulator reads like a generic run between events, except that its heap
holds loop records.  Three seams know that:

* on its first drive the loop adopts what the simulator queued before
  it (:func:`_adopt`: ``start()``'s arrival event, a restored snapshot's
  arrival and completion events), once;
* ``DReAMSim.ingest`` re-primes a dry arrival chain with a loop record
  (:func:`queue_arrival`), taking the sequence number ``call_at`` would;
* ``DReAMSim.export_state`` reads the heap and the placement tokens
  through :func:`export_pending`, so a checkpoint cut from a paused loop
  is byte-identical to the scan manager's at the same moment (the
  ``backend`` provenance field aside).

The loop takes arrivals as ``DReAMSim._feed_next_arrival`` does: the
constructor stream first, then the ingest buffer, and the feed is done
only once ingest is closed.

This module intentionally reaches into manager/susqueue internals — it *is*
the manager's hot path, hoisted out of per-call method dispatch; dreamlint's
DL005 manager-state rule exempts it alongside the managers themselves.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.base import PlacementKind
from repro.core.policies import PlacementPolicy, SelectionCriterion
from repro.framework.loadbalance import load_imbalance
from repro.model.task import Task, TaskStatus
from repro.resources.arraycore import (
    _POS_BITS,
    _POS_MASK,
    _SEQ_BITS,
    _SEQ_MASK,
    ArrayRIM,
)
from repro.resources.susqueue import NO_KEY
from repro.sim.core import SimulationError
from repro.sim.environment import EXPORT_PRIORITY
from repro.trace import events as ev
from repro.trace.bus import TraceBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.simulator import DReAMSim
    from repro.model.gpp import GppPool
    from repro.model.node import Node
    from repro.sim.environment import Environment

#: The bound of an unbounded send: later than any simulated tick.
_NO_BOUND = 1 << 62


def in_hot_envelope(
    policy: Optional[PlacementPolicy],
    gpp: Optional["GppPool"],
    debug_every: Optional[int],
    trace: Optional[TraceBus],
) -> bool:
    """True when the hot loop replicates a run built with these options.

    Every condition guards a semantic the loop does not reimplement: policy
    ablations, GPP offload, debug invariant checking and a bus subclass (an
    ``emit`` of its own).  ``DReAMSim`` asks when it is built.
    """
    paper = policy is None or (
        type(policy) is PlacementPolicy
        and policy.idle is policy.blank is policy.partially_blank is SelectionCriterion.MIN_AREA
    )
    plain_bus = trace is None or type(trace) is TraceBus
    return paper and plain_bus and gpp is None and debug_every is None


def hot_eligible(sim: "DReAMSim") -> bool:
    """True when ``sim`` runs on the hot loop: it has the array manager,
    which it only gets inside :func:`in_hot_envelope`."""
    return type(sim.rim) is ArrayRIM


def _adopt(sim: "DReAMSim") -> bool:
    """Rewrite the simulator's pending events as loop records, once.

    The pending arrival event becomes an arrival record and each completion
    event (a restored snapshot's: all live, its stale ones restore as
    no-ops) a completion record, with its placement kept in
    ``sim._placements`` as the loop's ``(seq, kind, evicted, closest)``
    token.  Every other event (the injector's, a restored no-op) stays a
    kernel record.  Records keep their ``(time, seq)`` keys, so replacing
    them in place keeps the heap ordered.  Returns whether any kernel record
    remains.
    """
    heap = sim.env._queue
    placements = sim._placements
    kernel = False
    for i, (when, seq, event) in enumerate(heap):
        tag = event.tag
        kind = tag[0] if tag else None
        if kind == "arrival":
            pending = sim._pending_arrival
            assert pending is not None
            heap[i] = (when, seq, pending.task, None, None)
        elif kind == "complete":
            p = placements[tag[1]]
            heap[i] = (when, seq, p.entry.task, p.node, p.entry)
            placements[tag[1]] = (seq, p.kind.value, p.evicted_area, p.used_closest_match)
        else:
            kernel = True
    sim._completion_events.clear()
    return kernel


def queue_arrival(env: "Environment", at: int, task: Task) -> None:
    """Queue the next arrival of a run the loop drives (``ingest``'s re-prime).

    The loop's form of ``env.call_at(at, ..., tag=("arrival",))``: the same
    sequence number, an arrival record in place of the event.
    """
    env._seq += 1
    heappush(env._queue, (at, env._seq, task, None, None))


#: A placement token's kind (a :class:`PlacementKind` value) -> the name a
#: checkpoint's placement row carries.
_KIND_NAME = {kind.value: kind.name for kind in PlacementKind}


def export_pending(sim: "DReAMSim") -> tuple[list, list]:
    """A paused loop's heap and placements, as a checkpoint writes them.

    Each loop record gets the tag its generic event would carry —
    ``("arrival",)``, ``("complete", task_no)`` while its placement token
    matches, else ``("noop", task_no)`` — in
    :meth:`Environment.export_pending` form.  Each live placement's row is
    encoded by ``DReAMSim._export_placement`` straight from its token and
    completion record, in task order, so a checkpoint cut from a paused
    loop is byte-identical to one cut from the scan manager at the same
    moment.
    """
    placements = sim._placements
    out = []
    live: dict[int, tuple] = {}
    for rec in sorted(sim.env._queue):
        when, seq = rec[0], rec[1]
        if len(rec) == 3:
            tag = rec[2].tag
            if tag is None:
                raise SimulationError(
                    "cannot snapshot: pending event without a tag "
                    f"(scheduled for t={when})"
                )
        elif rec[3] is None:
            tag = ("arrival",)
        else:
            task_no = rec[2].task_no
            tok = placements.get(task_no)
            if tok is None or tok[0] != seq:
                tag = ("noop", task_no)
            else:
                tag = ("complete", task_no)
                live[task_no] = rec
        out.append((when, EXPORT_PRIORITY, seq, tag))
    rows = []
    for task_no in sorted(placements):
        _seq, kind, evicted, closest = placements[task_no]
        _when, _seq, task, node, entry = live[task_no]
        rows.append([task_no, sim._export_placement(
            _KIND_NAME[kind], node, entry, task.assigned_config,
            task.config_time_paid, task.comm_time, evicted, closest,
        )])
    return out, rows


def run_hot(sim: "DReAMSim", until: Optional[int] = None) -> None:
    """Fire every record at or before ``until`` on ``sim``'s flat-table loop.

    ``until=None`` runs until the heap drains (a batch run, ``run_to_end``);
    an int is one window (``DReAMSim.advance``): the clock stays at the last
    fired record, as ``Environment.run(until, idle_advance=False)`` leaves
    it.  The first call builds the loop (:func:`hot_loop`), which adopts
    whatever the simulator queued before it; every later call resumes it, so
    a batch run and every window of a service session drive the same loop.
    """
    loop = sim._hot
    if loop is None:
        loop = sim._hot = hot_loop(sim, windowed=until is not None)
        next(loop)
    loop.send(until)


def hot_loop(sim: "DReAMSim", windowed: bool) -> Generator[None, Optional[int], None]:  # noqa: C901 - deliberately monolithic
    """The loop itself: a generator resumed with each window's bound.

    Mutates ``sim`` exactly as the generic path's events would over the
    scan manager, inside :func:`in_hot_envelope`.  Each ``send(until)`` fires every
    record at or before ``until`` (``None``: all of them), then publishes
    the hoisted state through the ``sync_out`` barrier (plus the
    accumulators only a window bound needs) and yields; the next send
    reloads it through ``sync_in`` — the hoisted tables and locals are built
    once, not per window.  While paused, ``sim`` reads like a generic run
    between events (reports, ``ingest``, ``export_state``), except that its
    heap holds loop records (see :func:`queue_arrival` and
    :func:`export_pending`).  ``windowed`` (the first send has a bound)
    keeps the placement tokens a checkpoint needs even on a clean run.

    The bodies of ``ArrayRIM.assign_task`` / ``complete_task`` (including
    ``Node.add_task`` / ``remove_task`` and the ``_busy_shift`` node-table
    transition) are inlined below rather than called — the only inlined
    copies of a manager transition in the tree: every placement the loop
    makes is legal by construction, and the completion event carries its
    busy entry (so no per-node task scan).  Both only ever touch a node in
    service — the query arrays exclude failed nodes, and a completion on a
    node that failed is stale — so the ``t_live`` branches drop out.  The
    inlined code performs the identical table updates in the identical
    order.  Fault transitions (crash, repair, SEU, scrub, quarantine) are
    never inlined: kernel events run the manager's own methods behind the
    ``sync_out``/``sync_in`` barrier described in the module docstring.
    """
    # Hot-path aliases: module globals and builtins rebound as locals so
    # the loop body uses LOAD_FAST instead of LOAD_GLOBAL everywhere.
    bl = bisect_left
    ins = insort
    hpush = heappush
    hpop = heappop
    pos_bits = _POS_BITS
    pos_mask = _POS_MASK
    seq_bits = _SEQ_BITS
    seq_mask = _SEQ_MASK
    no_key = NO_KEY
    rim = sim.rim
    susq = sim.susqueue
    sched = sim.scheduler
    counters = sim.counters
    stats = sched.stats
    by_kind = stats.by_kind
    partial = sim.partial
    monitor = sim.monitor
    load = sim.load

    # -- manager tables (list/dict objects are mutated in place, never
    #    rebound, so one binding stays valid for the whole run) -----------
    nodes_list = rim.nodes
    n_nodes = len(nodes_list)
    configs_list = rim.configs
    ncfg = len(configs_list)
    config_by_no = rim._config_by_no
    cfg_keys = rim._cfg_keys
    idle_m = rim._idle_m
    busy_m = rim._busy_m
    blank_m = rim._blank_m
    ie = rim._ie
    entry_by_seq = rim._entry_by_seq
    node_by_bseq = rim._node_by_bseq
    sp = rim._sp
    sr = rim._sr
    sa = rim._sa
    sb = rim._sb
    bq = rim._sq
    busy_pos = rim._busy_pos
    t_total = rim.t_total
    t_avail = rim.t_avail
    t_nent = rim.t_nent
    t_busy_area = rim.t_busy_area
    t_busy_cnt = rim.t_busy_cnt
    pos_of = rim._pos
    state_counts = rim.state_counts
    load_w = rim._load_w
    used_nodes = rim._used_nodes
    configure_node = rim.configure_node
    evict_entries = rim.evict_entries
    scan_any_idle = rim._scan_any_idle_node

    # Step counters and scheduler tallies, hoisted to locals.  The rare
    # external calls (configure_node / evict_entries / scan_any_idle)
    # charge ``counters`` themselves, so the locals are synced to the
    # shared object around those calls; kernel events sync everything
    # through sync_out/sync_in, as does every window bound.
    sched_steps = counters.scheduling_steps
    hk_steps = counters.housekeeping_steps
    st_scheduled = stats.scheduled
    st_suspended = stats.suspended
    st_discarded = stats.discarded
    st_closest = stats.closest_match_used
    st_cfg_paid = stats.total_config_time_paid
    st_evicted = stats.total_evicted_area

    # Hot aggregates of the inlined assign/complete code (configure/evict
    # never touch them; fault transitions do, behind the barrier), hoisted
    # to locals and written back at every barrier and window bound.
    running_count = rim.running_tasks_count
    load_sum_i = rim._load_sum_i
    load_sumsq_i = rim._load_sumsq_i
    # Read-only mirror of an aggregate that only the manager's own methods
    # mutate; re-synced after the (rare) configure_node call in submit and
    # after every barrier.
    wasted_total = rim._wasted_total
    # Node-state tallies, hoisted like the step counters: the inlined
    # assign/complete code flips them; scan_any_idle reads the shared
    # dict and configure/evict mutate it, so the locals are written into
    # ``state_counts`` before those rare calls and re-read after.
    sc_busy = state_counts["busy"]
    sc_idle = state_counts["idle"]
    sc_blank = state_counts["blank"]

    # -- suspension-queue columns ----------------------------------------
    sq_order = susq._order
    by_key = susq._by_key
    sq_task = susq._task
    sq_seq_c = susq._seq_c
    sq_key_c = susq._key_c
    sq_rank_c = susq._rank_c
    sq_free = susq._free
    rank_fn = susq._rank_fn
    fifo = susq.order == "fifo"
    max_len = susq.max_length
    max_retries = susq.max_retries
    susq_expired = susq.expired

    memo = sched._match_memo
    min_cfg_area = sched._min_config_area
    # config_no -> req_area for the redispatch key filter (static).
    req_of = {no: hit[1].req_area for no, hit in config_by_no.items()}

    # -- monitor / load columns (the same appends Monitor.sample and
    #    LoadBalancer.observe make; their series are views over these) ----
    ml = monitor.min_interval
    mon_last = monitor._last_time
    m_time = monitor.times.append
    m_busy = monitor.busy_col.append
    m_running = monitor.running_col.append
    m_queued = monitor.queued_col.append
    m_waste = monitor.waste_col.append
    l_time = load.times.append
    l_cv = load.cv_col.append
    l_jain = load.jain_col.append

    # RunningStats (Welford) locals for placement waste (``pw_*``) and the
    # simulator's accumulators (``last_hk``, ``sys_waste``, ``waste_samples``,
    # ``placed``) are loaded when each window starts and written back at
    # its bound; the identical op order keeps the floats bit-identical.
    pw = sim.placement_waste
    sample_system = sim._sample_system
    tasks_append = sim.tasks.append
    per_tick = sim._per_tick_hk

    # -- inline trace emission ------------------------------------------
    # Each event type's positional line function is looked up once, by its
    # field names, and called with the ``ss``/``hk`` stamps the bus would
    # read from the counters at that point; the lines are batched in
    # ``tr_buf`` and handed, encoded once, to the bus's ``write_lines``.
    # ``rim.trace`` is detached while the loop runs (sync_in) so
    # configure_node/evict_entries do not also emit through the bus;
    # sync_out re-attaches it for kernel events and at every window bound.
    tb = sim.trace
    trace_on = tb is not None
    tr_buf: list = []
    tr_app = tr_buf.append
    tr_seq = tb.events_emitted if tb is not None else 0
    line_of = ev.line_encoder
    arrived_line = line_of(ev.TASK_ARRIVED, "task", "pref", "req")
    placed_line = line_of(ev.PLACED, "task", "kind", "node", "cfg", "ctime", "avail", "sw", "closest")
    suspended_line = line_of(ev.SUSPENDED, "task", "qlen")
    resumed_line = line_of(ev.RESUMED, "task", "retry")
    discarded_line = line_of(ev.DISCARDED, "task", "reason")
    completed_line = line_of(ev.COMPLETED, "task", "node", "wait", "run", "closest")
    loaded_line = line_of(ev.CONFIG_LOADED, "node", "cfg", "ctime")
    evicted_line = line_of(ev.CONFIG_EVICTED, "node", "cfgs", "area")
    sampled_line = line_of(ev.MONITOR_SAMPLED, "busy", "queued", "waste", "running")

    running_s = TaskStatus.RUNNING
    suspended_s = TaskStatus.SUSPENDED
    completed_s = TaskStatus.COMPLETED
    discarded_s = TaskStatus.DISCARDED

    # Event records: ``(time, seq, task, node, entry)`` — ``node`` is None
    # for an arrival, the hosting node (and its busy entry) for a
    # completion — share the kernel's heap with its ``(time, seq, Event)``
    # records.  Heap order is ``(time, insertion seq)``, the kernel's own
    # order; allocating ``seq`` from the kernel's counter at the same call
    # sites as the generic path's ``Environment.call_at`` reproduces its
    # tie-breaks exactly.  ``placements`` maps a placed task to its
    # ``(seq, kind, evicted, closest)`` token: the completion record's seq
    # (the stale-completion test) and what a checkpoint's placement row
    # needs beyond the record.
    env = sim.env
    heap = env._queue
    seq = env._seq
    events = 0
    now = env._now
    placements = sim._placements
    # Only a caller (an armed injector, a restore) queues kernel events
    # before the loop starts, and only their callbacks queue more: a run
    # that starts without any has no kernel records to test for and no
    # stale completions to detect.  Placement tokens are kept whenever a
    # fault, a window bound or a restored placement can read them.
    faults = _adopt(sim)
    track = faults or windowed or bool(placements)

    def matched_cno(task: Task) -> Optional[int]:
        # DreamScheduler.matched_config: memoised exact-then-closest match.
        tno = task.task_no
        if tno in memo:
            cfg = memo[tno]
        else:
            pref = task.pref_config
            hit = config_by_no.get(pref.config_no)
            if hit is not None:
                cfg = hit[1]
            else:
                i = bl(cfg_keys, pref.req_area << pos_bits)
                cfg = configs_list[cfg_keys[i] & pos_mask] if i < len(cfg_keys) else None
            memo[tno] = cfg
        return cfg.config_no if cfg is not None else None

    def sample(now: int) -> None:
        # Monitor.sample for the placement and completion sites.
        nonlocal mon_last, tr_seq
        qlen = len(sq_order)
        m_time(now)
        m_busy(sc_busy)
        m_running(running_count)
        m_queued(qlen)
        m_waste(wasted_total)
        mon_last = now
        if trace_on:
            tr_app(sampled_line(tr_seq, now, sched_steps, hk_steps, sc_busy, qlen, wasted_total, running_count))
            tr_seq += 1

    def flush() -> None:
        # Hand the buffered lines, encoded once, to the bus's sinks.
        if tr_buf:
            tb.write_lines(("\n".join(tr_buf) + "\n").encode("utf-8"), len(tr_buf))
            tr_buf.clear()

    def sync_out(now: int) -> None:
        """Barrier, outward: publish the hoisted state before code that
        reads it from the shared objects (a kernel event, a manager call)."""
        counters.scheduling_steps = sched_steps
        counters.housekeeping_steps = hk_steps
        state_counts["busy"] = sc_busy
        state_counts["idle"] = sc_idle
        state_counts["blank"] = sc_blank
        stats.scheduled = st_scheduled
        stats.suspended = st_suspended
        stats.discarded = st_discarded
        stats.closest_match_used = st_closest
        stats.total_config_time_paid = st_cfg_paid
        stats.total_evicted_area = st_evicted
        rim.running_tasks_count = running_count  # dreamlint: disable=DL005 (barrier write-back of the hoisted aggregate)
        rim._load_sum_i = load_sum_i  # dreamlint: disable=DL005 (barrier write-back of the hoisted aggregate)
        rim._load_sumsq_i = load_sumsq_i  # dreamlint: disable=DL005 (barrier write-back of the hoisted aggregate)
        monitor._last_time = mon_last
        sim._arrivals_done = arrivals_done
        env._now = now
        env._seq = seq
        if trace_on:
            flush()
            tb.resume_at(tr_seq)
            rim.trace = tb

    def sync_in() -> None:
        """Barrier, inward: reload everything :func:`sync_out` publishes,
        plus the aggregates only the manager's own transitions move."""
        nonlocal sched_steps, hk_steps, sc_busy, sc_idle, sc_blank
        nonlocal st_scheduled, st_suspended, st_discarded
        nonlocal st_closest, st_cfg_paid, st_evicted
        nonlocal running_count, load_sum_i, load_sumsq_i, wasted_total
        nonlocal mon_last, arrivals_done, seq, tr_seq
        sched_steps = counters.scheduling_steps
        hk_steps = counters.housekeeping_steps
        sc_busy = state_counts["busy"]
        sc_idle = state_counts["idle"]
        sc_blank = state_counts["blank"]
        st_scheduled = stats.scheduled
        st_suspended = stats.suspended
        st_discarded = stats.discarded
        st_closest = stats.closest_match_used
        st_cfg_paid = stats.total_config_time_paid
        st_evicted = stats.total_evicted_area
        running_count = rim.running_tasks_count
        load_sum_i = rim._load_sum_i
        load_sumsq_i = rim._load_sumsq_i
        wasted_total = rim._wasted_total
        mon_last = monitor._last_time
        arrivals_done = sim._arrivals_done
        seq = env._seq
        if trace_on:
            tr_seq = tb.events_emitted
            rim.trace = None

    def submit(task: Task, now: int) -> int:
        """One ``DreamScheduler.schedule`` + framework follow-up, inlined.

        Returns 0 scheduled / 1 suspended / 2 discarded (the framework only
        branches on "scheduled or not").  Step charges accumulate in the
        local ``ss`` and are flushed to the shared counters once per exit
        path (and before ``scan_any_idle``, which charges internally).
        """
        nonlocal seq, sys_waste, waste_samples, placed
        nonlocal running_count, load_sum_i, load_sumsq_i
        nonlocal pw_n, pw_total, pw_mean, pw_m2, pw_min, pw_max
        nonlocal wasted_total
        nonlocal sched_steps, hk_steps
        nonlocal st_scheduled, st_suspended, st_discarded
        nonlocal st_closest, st_cfg_paid, st_evicted
        nonlocal sc_busy, sc_idle, sc_blank
        nonlocal tr_seq
        steps0 = sched_steps

        # Phase 0: exact configuration match, else closest (both charged as
        # the reference linear scans).
        pref = task.pref_config
        hit = config_by_no.get(pref.config_no)
        if hit is not None:
            ss = hit[0] + 1
            config = hit[1]
            used_closest = False
        else:
            ss = 2 * ncfg
            i = bl(cfg_keys, pref.req_area << pos_bits)
            if i == len(cfg_keys):
                task.status = discarded_s
                task.completion_time = now
                sched_steps = steps0 + ss
                task.scheduling_steps += ss
                st_discarded += 1
                if trace_on:
                    tr_app(discarded_line(tr_seq, now, sched_steps, hk_steps, task.task_no, "no_config"))
                    tr_seq += 1
                return 2
            config = configs_list[cfg_keys[i] & pos_mask]
            used_closest = True
        cno = config.config_no
        req = config.req_area
        config_time = 0
        evicted = 0

        # Phase 1: best idle entry holding the matched configuration.
        ss += len(idle_m[cno])
        lst = ie[cno]
        if lst:
            entry = entry_by_seq[lst[0] & seq_mask]
            node = entry._node  # type: ignore[attr-defined]
            kind = "allocation"
        else:
            node = None
            kind = ""
            # Phase 2: best blank node.
            ss += len(blank_m)
            j = bl(bq, req << seq_bits)
            if j < len(bq):
                node = node_by_bseq[bq[j] & seq_mask]
                kind = "configuration"
            elif partial:
                # Phase 3: best partially blank node.
                ss += n_nodes - sc_blank
                k = bl(sp, req << pos_bits)
                if k < len(sp):
                    node = nodes_list[sp[k] & pos_mask]
                    kind = "partial_configuration"
            if node is None:
                # Phase 4: FindAnyIdleNode (Alg. 1); full mode requires an
                # all-idle node (whole-node reconfiguration).  A miss bills
                # ``_failed_scan_steps``: the scan visits failed nodes too.
                lst4 = sr if partial else sa
                if not lst4 or lst4[-1] < req << pos_bits:
                    if partial:
                        ss += rim._failed_count + len(blank_m) + rim._entries_total
                    else:
                        ss += rim._failed_count + sc_busy + len(blank_m) + rim._idle_node_entries
                else:
                    counters.scheduling_steps = steps0 + ss
                    counters.housekeeping_steps = hk_steps
                    state_counts["busy"] = sc_busy
                    state_counts["idle"] = sc_idle
                    state_counts["blank"] = sc_blank
                    node, evict = scan_any_idle(config, not partial)
                    ss = counters.scheduling_steps - steps0
                    hk_steps = counters.housekeeping_steps
                    if node is not None:
                        evicted = evict_entries(node, evict) if evict else 0
                        hk_steps = counters.housekeeping_steps
                        sc_busy = state_counts["busy"]
                        sc_idle = state_counts["idle"]
                        sc_blank = state_counts["blank"]
                        kind = "partial_reconfiguration"
                        if trace_on and evict:
                            cfgs = [e.config.config_no for e in evict]
                            tr_app(evicted_line(tr_seq, now, steps0 + ss, hk_steps, node.node_no, cfgs, evicted))
                            tr_seq += 1
            if node is None:
                # Last resort: suspend if any busy node could ever host it.
                if not sb or sb[-1] < req << pos_bits:
                    ss += n_nodes
                    exists = False
                else:
                    exists = False
                    for p in busy_pos:
                        if t_total[p] >= req:
                            ss += p + 1
                            exists = True
                            break
                if exists:
                    if max_len is None or len(sq_order) < max_len:
                        # SuspensionQueue.add, inlined.
                        task.status = suspended_s
                        susq._seq += 1
                        s = susq._seq
                        # matched_cno with the memo hit unwrapped inline.
                        tno = task.task_no
                        if tno in memo:
                            cfgm = memo[tno]
                            key = cfgm.config_no if cfgm is not None else no_key
                        else:
                            key = matched_cno(task)
                            if key is None:
                                key = no_key
                        rank = 0.0 if fifo else rank_fn(task)
                        if sq_free:
                            slot = sq_free.pop()
                            sq_task[slot] = task
                            sq_seq_c[slot] = s
                            sq_key_c[slot] = key
                            sq_rank_c[slot] = rank
                        else:
                            slot = len(sq_task)
                            sq_task.append(task)
                            sq_seq_c.append(s)
                            sq_key_c.append(key)
                            sq_rank_c.append(rank)
                        triple = (rank, s, slot)
                        # FIFO rank is constant 0.0 and the seq strictly
                        # grows, so the new triple always sorts last and
                        # insort degenerates to append.
                        if fifo:
                            sq_order.append(triple)
                        else:
                            ins(sq_order, triple)
                        bucket = by_key.get(key)
                        if bucket is None:
                            by_key[key] = [triple]
                        elif fifo:
                            bucket.append(triple)
                        else:
                            ins(bucket, triple)
                        hk_steps += 1
                        susq.total_suspended += 1
                        sched_steps = steps0 + ss
                        task.scheduling_steps += ss
                        st_suspended += 1
                        if trace_on:
                            tr_app(suspended_line(tr_seq, now, sched_steps, hk_steps, task.task_no, len(sq_order)))
                            tr_seq += 1
                        return 1
                if rim._quarantined:
                    # DreamScheduler._rescue_or_discard: requisition a
                    # quarantined node through the manager (which emits and
                    # calls the injector back) behind the barrier.
                    sched_steps = steps0 + ss
                    sync_out(now)
                    node = rim.find_quarantined_host(config)
                    if node is not None:
                        rim.release_quarantined(node, reason="requisition")
                        entry = configure_node(node, config, now=now)
                    sync_in()
                    ss = sched_steps - steps0
                if node is None:
                    # Queue full or nothing can ever host it: discard.
                    task.status = discarded_s
                    task.completion_time = now
                    sched_steps = steps0 + ss
                    task.scheduling_steps += ss
                    st_discarded += 1
                    if trace_on:
                        reason = "queue_full" if exists else "no_placement"
                        tr_app(discarded_line(tr_seq, now, sched_steps, hk_steps, task.task_no, reason))
                        tr_seq += 1
                    return 2
                kind = "configuration"
            else:
                counters.housekeeping_steps = hk_steps
                state_counts["busy"] = sc_busy
                state_counts["idle"] = sc_idle
                state_counts["blank"] = sc_blank
                entry = configure_node(node, config, now=now)
                hk_steps = counters.housekeeping_steps
                sc_busy = state_counts["busy"]
                sc_idle = state_counts["idle"]
                sc_blank = state_counts["blank"]
                # Re-mirror the aggregate configure/evict just changed.
                wasted_total = rim._wasted_total
                if trace_on:
                    tr_app(loaded_line(tr_seq, now, steps0 + ss, hk_steps, node.node_no, cno, config.config_time))
                    tr_seq += 1
            config_time = config.config_time

        # DreamScheduler._start + DReAMSim._submit/_record_placement.
        comm = node.network_delay
        task.status = running_s
        task.start_time = now
        task.assigned_config = config
        task.comm_time = comm
        task.config_time_paid = config_time
        # ArrayRIM.assign_task (incl. Node.add_task), inlined: the entry is
        # idle on ``node`` by construction, so the validation scans and the
        # (always-true) liveness branch drop out.
        ecfg = entry.config
        req2 = ecfg.req_area
        cno2 = ecfg.config_no
        del idle_m[cno2][entry]
        akey = entry._akey  # type: ignore[attr-defined]
        if akey is not None:
            lst2 = ie[cno2]
            del lst2[bl(lst2, akey)]
            del entry_by_seq[akey & seq_mask]
            entry._akey = None  # type: ignore[attr-defined]
        hk_steps += 1
        entry.task = task
        node._busy_count += 1
        node._busy_area += req2
        pos = pos_of[node]
        ba0 = t_busy_area[pos]
        ba1 = ba0 + req2
        bc0 = t_busy_cnt[pos]
        t_busy_area[pos] = ba1
        t_busy_cnt[pos] = bc0 + 1
        running_count += 1
        total = t_total[pos]
        if bc0 == 0:
            sc_idle -= 1
            sc_busy += 1
        okey = (total - ba0) << pos_bits | pos
        del sr[bl(sr, okey)]
        ins(sr, (total - ba1) << pos_bits | pos)
        if bc0 == 0:
            tkey = total << pos_bits | pos
            del sa[bl(sa, tkey)]
            ins(sb, tkey)
            ins(busy_pos, pos)
            rim._idle_node_entries -= t_nent[pos]  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
        # _apply_load_delta, inlined.
        w = load_w[pos]
        d = (ba1 - ba0) * w
        load_sum_i += d
        load_sumsq_i += d * ((ba1 + ba0) * w)
        busy_m[cno2][entry] = None
        hk_steps += 1
        used_nodes.add(node.node_no)

        sched_steps = steps0 + ss
        task.scheduling_steps += ss
        if trace_on:
            tr_app(placed_line(tr_seq, now, sched_steps, hk_steps, task.task_no, kind, node.node_no,
                               cno, config_time, node._available_area, wasted_total, used_closest))
            tr_seq += 1
        st_scheduled += 1
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if used_closest:
            st_closest += 1
        st_cfg_paid += config_time
        st_evicted += evicted
        # RunningStats.add, inlined.
        x = float(node._available_area)
        pw_n += 1
        pw_total += x
        delta = x - pw_mean
        pw_mean += delta / pw_n
        pw_m2 += delta * (x - pw_mean)
        if x < pw_min:
            pw_min = x
        if x > pw_max:
            pw_max = x
        if sample_system:
            sys_waste += wasted_total
            waste_samples += 1
        if mon_last is None or now - mon_last >= ml:
            sample(now)
        placed += 1
        seq += 1
        if track:
            placements[task.task_no] = (seq, kind, evicted, used_closest)
        hpush(
            heap, (now + config_time + comm + task.required_time, seq, task, node, entry)
        )
        return 0

    def redispatch(node: "Node", now: int) -> None:
        """``DReAMSim._redispatch_from`` (the ``next_redispatch`` loop plus
        the retry-bound sweep), for a completion or a finished scrub."""
        nonlocal sched_steps, hk_steps, st_discarded, tr_seq
        pos = pos_of[node]
        while sq_order:
            reclaimable = t_total[pos] - t_busy_area[pos]
            if reclaimable <= 0:
                break
            sched_steps += len(sq_order)
            best = None
            for e in node.entries:
                if e.task is None:
                    bucket = by_key.get(e.config.config_no)
                    if bucket is not None:
                        head = bucket[0]
                        if best is None or head < best:
                            best = head
            if best is not None:
                rec = best[2]
            else:
                if reclaimable < min_cfg_area:
                    break
                # first_matching_key(req_of, reclaimable), inlined.
                for key, bucket in by_key.items():
                    ra = req_of.get(key)
                    if ra is None or ra > reclaimable:
                        continue
                    head = bucket[0]
                    if best is None or head < best:
                        best = head
                if best is None:
                    hk_steps += len(sq_order)
                    break
                hk_steps += bl(sq_order, best) + 1
                rec = best[2]
            # SuspensionQueue.remove, inlined.
            rtask = sq_task[rec]
            triple = (sq_rank_c[rec], sq_seq_c[rec], rec)
            del sq_order[bl(sq_order, triple)]
            key = sq_key_c[rec]
            bucket = by_key[key]
            del bucket[bl(bucket, triple)]
            if not bucket:
                del by_key[key]
            sq_task[rec] = None
            sq_key_c[rec] = None
            sq_free.append(rec)
            hk_steps += 1
            rtask.sus_retry += 1
            if trace_on:
                tr_app(resumed_line(tr_seq, now, sched_steps, hk_steps, rtask.task_no, rtask.sus_retry))
                tr_seq += 1
            if submit(rtask, now) != 0:
                break
        if max_retries is not None:
            for ex in susq_expired():
                ex.status = discarded_s
                ex.completion_time = now
                st_discarded += 1
                if trace_on:
                    tr_app(discarded_line(tr_seq, now, sched_steps, hk_steps, ex.task_no, "retries"))
                    tr_seq += 1

    # The injector's re-entry points (retries, resubmits, _kick, scrub
    # finish), shadowed on the instance while a window runs: the barrier in
    # reverse around the loop's own submit/redispatch.
    def reenter_submit(task: Task, now: int) -> None:
        sync_in()
        submit(task, now)
        sync_out(now)

    def reenter_redispatch(node: "Node", now: int) -> None:
        sync_in()
        redispatch(node, now)
        sync_out(now)

    # -- the arrival chain (DReAMSim._feed_next_arrival): the constructor
    #    stream first, then the ingest buffer.  ``arrival`` is the pending
    #    arrival record's TaskArrival, None while the chain is dry; a dry
    #    chain is re-primed by ``ingest`` between windows (queue_arrival).
    arr_iter = sim._arrivals
    ingest_buf = sim._ingest_buffer
    arrivals_done = sim._arrivals_done

    until = yield
    while True:
        # -- resume: reload everything a window bound publishes (ingest may
        #    have queued an arrival and moved the sequence counter) -------
        sync_in()
        now = env._now
        arrival = sim._pending_arrival
        consumed = sim._arrivals_consumed
        last_hk = sim._last_hk_time
        sys_waste = sim.system_waste_total
        waste_samples = sim._system_waste_samples
        placed = sim._placed_count
        pw_n, pw_total, pw_mean, pw_m2 = pw.n, pw.total, pw._mean, pw._m2
        pw_min, pw_max = pw.min, pw.max
        bound = _NO_BOUND if until is None else until
        sim._submit = reenter_submit  # type: ignore[method-assign]
        sim._redispatch_from = reenter_redispatch  # type: ignore[method-assign]
        try:
            while heap and heap[0][0] <= bound:
                if trace_on and len(tr_buf) >= 1024:
                    flush()
                rec = hpop(heap)
                events += 1
                if faults and len(rec) == 3:
                    # -- kernel event (an injector callback, a no-op), in place --
                    now = rec[0]
                    sync_out(now)
                    rec[2].fn()
                    sync_in()
                    continue
                now, rseq, task, cnode, centry = rec
                if track and cnode is not None:
                    tno = task.task_no
                    tok = placements.get(tno)
                    if tok is None or tok[0] != rseq:
                        continue  # stale completion: a fault interrupted the task
                    del placements[tno]
                if now > last_hk:
                    if per_tick:
                        hk_steps += (now - last_hk) * per_tick
                    last_hk = now
                if cnode is None:
                    # -- arrival (DReAMSim._on_arrival) -------------------
                    task.create_time = now
                    tasks_append(task)
                    if trace_on:
                        tr_app(arrived_line(tr_seq, now, sched_steps, hk_steps, task.task_no,
                                            task.pref_config.config_no, task.required_time))
                        tr_seq += 1
                    submit(task, now)
                    arrival = next(arr_iter, None)
                    if arrival is not None:
                        consumed += 1
                    elif ingest_buf:
                        arrival = ingest_buf.popleft()
                    if arrival is None:
                        if not sim._ingest_open:
                            arrivals_done = True
                    else:
                        seq += 1
                        at = arrival.at
                        hpush(heap, (at if at > now else now, seq, arrival.task, None, None))
                    continue
                # -- completion (DReAMSim._on_complete) -------------------
                task.status = completed_s
                task.completion_time = now
                if trace_on:
                    tr_app(completed_line(tr_seq, now, sched_steps, hk_steps, task.task_no, cnode.node_no,
                                          task.waiting_time, task.running_time, task.used_closest_match))
                    tr_seq += 1
                # ArrayRIM.complete_task (incl. Node.remove_task), inlined:
                # the event carries the busy entry, so no per-node scan;
                # liveness branch drops out as in assign.
                centry.task = None
                ecfg = centry.config
                req = ecfg.req_area
                cno = ecfg.config_no
                cnode._busy_count -= 1
                cnode._busy_area -= req
                pos = pos_of[cnode]
                ba0 = t_busy_area[pos]
                ba1 = ba0 - req
                bc1 = t_busy_cnt[pos] - 1
                t_busy_area[pos] = ba1
                t_busy_cnt[pos] = bc1
                running_count -= 1
                total = t_total[pos]
                if bc1 == 0:
                    sc_busy -= 1
                    sc_idle += 1
                okey = (total - ba0) << pos_bits | pos
                del sr[bl(sr, okey)]
                ins(sr, (total - ba1) << pos_bits | pos)
                if bc1 == 0:
                    tkey = total << pos_bits | pos
                    del sb[bl(sb, tkey)]
                    del busy_pos[bl(busy_pos, pos)]
                    ins(sa, tkey)
                    rim._idle_node_entries += t_nent[pos]  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
                # _apply_load_delta, inlined.
                w = load_w[pos]
                d = (ba1 - ba0) * w
                load_sum_i += d
                load_sumsq_i += d * ((ba1 + ba0) * w)
                del busy_m[cno][centry]
                hk_steps += 1
                idle_m[cno][centry] = None
                # _idle_append, inlined (allocates a chain sequence number).
                rim._chain_seq = cseq = rim._chain_seq + 1  # dreamlint: disable=DL005 (inlined copy of the array manager's own update)
                akey = t_avail[pos] << seq_bits | cseq
                centry._akey = akey  # type: ignore[attr-defined]
                entry_by_seq[cseq] = centry
                ins(ie[cno], akey)
                hk_steps += 1

                if mon_last is None or now - mon_last >= ml:
                    sample(now)
                # LoadBalancer.observe from the hoisted exact sums.
                cv, jain = load_imbalance(n_nodes, load_sum_i, load_sumsq_i)
                l_time(now)
                l_cv(cv)
                l_jain(jain)
                redispatch(cnode, now)
        finally:
            del sim._submit
            del sim._redispatch_from
            if trace_on:
                rim.trace = tb

        # -- window bound: publish the state the generic path keeps on the
        #    objects, then wait for the next bound ------------------------
        sync_out(now)
        sim._pending_arrival = arrival
        sim._arrivals_consumed = consumed
        sim._last_hk_time = last_hk
        sim.system_waste_total = sys_waste
        sim._system_waste_samples = waste_samples
        sim._placed_count = placed
        pw.n = pw_n
        pw.total = pw_total
        pw._mean = pw_mean
        pw._m2 = pw_m2
        pw.min = pw_min
        pw.max = pw_max
        env._event_count += events
        events = 0
        until = yield


__all__ = [
    "export_pending",
    "hot_eligible",
    "hot_loop",
    "in_hot_envelope",
    "queue_arrival",
    "run_hot",
]
