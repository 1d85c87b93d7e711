"""Backend differential: the array hot loop vs the reference scan manager.

Every ``backend="array"`` run is a hot-loop run (``DReAMSim`` routes an
array request outside the loop's envelope to the scan manager when it is
built), and it must be observationally identical to the reference
linear-scan manager (``backend="scan"``, the executable spec, driven by the
generic scheduler and event loop) in everything *simulated*: per-task
placements and status, per-task ``SL``, Table I counters, the report, the
monitor series, resilience metrics under fault campaigns, and the
byte-exact structured trace stream.  Only wall-clock time may differ.

Four layers of evidence:

1. **Campaign differential** — {clean, SEU, quarantine, crash, burst} ×
   {partial, full} campaigns run once per execution path (the array hot
   loop and the scan manager); reports, resilience reports and BLAKE2b
   trace digests must match byte for byte.  Array requests outside the
   envelope build the scan manager and keep their pinned outputs, and the
   array manager's tables pass the invariant checker at every window bound
   of a fault campaign.
2. **Hot-vs-generic differential** — the hot loop
   (:func:`repro.framework.hotloop.run_hot`) against the generic event
   loop over the scan manager, field by field and by trace digest.
3. **Property-based free-list interleavings** — random add/remove/expired
   scripts against :class:`~repro.resources.susqueue.SuspensionQueue`,
   twinned with a linear-list model of the paper's ``SusList`` and
   cross-checked by ``validate_index()`` after every operation.
4. **Operation-level round trips** — scripted manager histories (fail /
   repair, eviction, blanking, SEU upsets and scrubs) and the Alg. 1
   ``FindAnyIdleNode`` charging branches, replayed on both managers with
   the invariant checker after each step.

The whole-run observables differential (per-task ``SL``, monitor and load
series at 100–200 nodes, with and without failures) is
``tests/test_indexed_differential.py``.
"""

import hashlib
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from tests.snapshot_harness import SEU

from repro import RNG, ConfigSpec, DReAMSim, NodeSpec, TaskSpec
from repro.core.policies import PlacementPolicy
from repro.framework.campaign import FaultCampaignSpec, build_campaign, run_campaign
from repro.framework.failures import FailureInjector
from repro.framework.hotloop import hot_eligible
from repro.framework.loadbalance import LeastLoadedPolicy
from repro.model import Configuration, Node, Task
from repro.model.gpp import GppPool
from repro.model.task import TaskStatus
from repro.resources import (
    BACKENDS,
    ArrayRIM,
    ResourceInformationManager,
    check_invariants,
    create_manager,
)
from repro.resources.arraycore import _POS_BITS
from repro.resources.counters import SearchCounters
from repro.resources.susqueue import SuspensionQueue
from repro.rng.distributions import Constant, UniformInt
from repro.sim import SimulationError
from repro.trace import DigestSink, MemorySink, TraceBus
from repro.trace import events as ev
from repro.workload.generator import (
    TaskArrival,
    generate_configs,
    generate_nodes,
    generate_task_stream,
)

#: The two implementations of one semantics: the flat-table hot loop (fault
#: campaigns included) and the reference scan manager.
PATHS = {
    "array": {"backend": "array"},
    "scan": {"backend": "scan"},
}


# -- 1. campaign differential --------------------------------------------------


CAMPAIGNS = {
    # No fault knob set: exactly the quick_simulation workload.
    "clean": {},
    # Transient configuration faults with a retry budget: exercises
    # seu_corrupt / finish_scrub / TASK_RETRY / retry discards.
    "seu": {"seu_rate": 1500, "retry_budget": 2, "backoff_base": 20},
    # Crash/repair churn with health-aware quarantine: exercises
    # fail_node / repair_node / quarantine_node / release_quarantined.
    "quarantine": {
        "mtbf": 2500,
        "mttr": 600,
        "quarantine_threshold": 2,
        "probation": 2000,
        "health_half_life": 1000,
    },
    # Crash-only churn with the classic instant resubmit (backoff_base=0):
    # interrupted tasks re-enter through _resubmit_now, and every crash and
    # repair calls _kick.
    "crash": {"mtbf": 1500, "mttr": 400, "backoff_base": 0, "max_failures": 120},
    # Correlated bursts with exponential-backoff retries (_retry).
    "burst": {
        "burst_rate": 2000,
        "burst_size": 3,
        "burst_group": 4,
        "mttr": 500,
        "retry_budget": 3,
        "backoff_base": 10,
        "backoff_cap": 200,
    },
}


def run_backend(path, partial, knobs):
    digest = DigestSink()
    spec = FaultCampaignSpec(
        nodes=30, configs=15, tasks=400, partial=partial, seed=11, **knobs
    )
    result, injector = run_campaign(spec, trace=TraceBus(digest), **PATHS[path])
    resilience = injector.resilience(result) if injector is not None else None
    return result, injector, resilience, digest.hexdigest()


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
@pytest.mark.parametrize("partial", [True, False], ids=["partial", "full"])
def test_three_backends_identical(campaign, partial):
    """The hot loop and scan agree byte for byte (an array request outside
    the envelope, the third way in, is scan: see the routing test below)."""
    knobs = CAMPAIGNS[campaign]
    runs = {path: run_backend(path, partial, knobs) for path in PATHS}
    ref_result, ref_injector, ref_resilience, ref_digest = runs["scan"]
    if campaign != "clean":
        # The regime must actually exercise the fault machinery (crashes
        # count as failures; SEU strikes show up as config faults).
        assert ref_injector is not None and ref_resilience is not None
        assert ref_resilience.failures_total + ref_resilience.config_faults > 0
    for backend in PATHS:
        result, _, resilience, digest = runs[backend]
        # Table I counters and everything derived from them.
        assert result.report.as_dict() == ref_result.report.as_dict(), backend
        assert result.final_time == ref_result.final_time, backend
        # Fault-campaign metrics (availability, MTTF/MTTR, retries, ...).
        if ref_resilience is None:
            assert resilience is None, backend
        else:
            assert resilience.as_dict() == ref_resilience.as_dict(), backend
        # The full structured event stream, byte for byte.
        assert digest == ref_digest, backend


@pytest.mark.parametrize("campaign", sorted(set(CAMPAIGNS) - {"clean"}))
def test_fault_campaigns_run_on_the_hot_loop(campaign):
    """An armed injector is inside the hot-loop envelope: the "array" path
    above is the hot loop for every fault campaign, not only clean runs."""
    spec = FaultCampaignSpec(nodes=30, configs=15, tasks=400, seed=11, **CAMPAIGNS[campaign])
    sim, injector = build_campaign(spec, trace=TraceBus(DigestSink()), **PATHS["array"])
    assert injector is not None and sim.env.pending_count > 0
    assert type(sim.rim) is ArrayRIM and hot_eligible(sim)


class CountingBus(TraceBus):
    """A bus subclass with an ``emit`` of its own: outside the envelope."""

    def __init__(self, *sinks):
        super().__init__(*sinks)
        self.calls = 0

    def emit(self, *args, **kwargs):
        self.calls += 1
        return super().emit(*args, **kwargs)


#: Array requests outside the hot loop's envelope, with the trace digest and
#: a hash of Table I plus the resilience report that the SEU campaign below
#: printed on the generic array path before every such request was routed to
#: the scan manager.
ROUTED = {
    "debug": (
        lambda: {"debug_invariants_every": 50},
        "16d4f9dada9c2c3bd598a7d92d42875b", "ee53598cece7c9f3",
    ),
    "gpp": (
        lambda: {"gpp": GppPool(count=2)},
        "5ae37f1157f6e70b8261e3036c300603", "6b7075b3f281386f",
    ),
    "first-fit": (
        lambda: {"policy": PlacementPolicy.first_fit()},
        "f80c468de6dbc34c4c43aa7f1c8bd02c", "d4a0764f58962e15",
    ),
    "worst-fit": (
        lambda: {"policy": PlacementPolicy.worst_fit()},
        "28e2dfd9e8b553b56c7bfaec50751b38", "c8821bb094d383fe",
    ),
    "least-loaded": (
        lambda: {"policy": LeastLoadedPolicy()},
        "5041fcbeecc0801681460ad5ee4bef16", "3dbb605dc621b963",
    ),
    "bus-subclass": (
        lambda: {},
        "16d4f9dada9c2c3bd598a7d92d42875b", "ee53598cece7c9f3",
    ),
}


@pytest.mark.parametrize("extra", sorted(ROUTED))
def test_hot_envelope_excludes_generic_only_semantics(extra):
    """Invariant checking, GPP offload, policy ablations and a bus subclass
    are outside the hot loop's envelope: an array request carrying one
    builds the scan manager, and prints the same trace, Table I and
    resilience report as it did on the generic array path."""
    options, want_digest, want_outputs = ROUTED[extra]
    digest = DigestSink()
    bus = CountingBus(digest) if extra == "bus-subclass" else TraceBus(digest)
    spec = FaultCampaignSpec(nodes=30, configs=15, tasks=400, seed=11, **CAMPAIGNS["seu"])
    sim, injector = build_campaign(spec, backend="array", trace=bus, **options())
    assert injector is not None
    assert type(sim.rim) is ResourceInformationManager and not hot_eligible(sim)
    assert sim.backend == "array"
    result = sim.run()
    outputs = json.dumps(
        {
            "report": result.report.as_dict(),
            "resilience": injector.resilience(result).as_dict(),
        },
        sort_keys=True,
    )
    assert digest.hexdigest() == want_digest
    assert hashlib.blake2b(outputs.encode(), digest_size=8).hexdigest() == want_outputs
    if extra == "bus-subclass":
        assert bus.calls == digest.count


def test_invariants_hold_at_every_hot_window_bound():
    """The array manager's tables and the queue index pass the full checker
    at every window bound of an SEU + crash campaign on the hot loop, and
    the windowed run seals with the batch digest."""
    batch = DigestSink()
    run_campaign(SEU, backend="array", trace=TraceBus(batch))
    digest = DigestSink()
    sim, injector = build_campaign(SEU, backend="array", trace=TraceBus(digest))
    assert injector is not None and hot_eligible(sim)
    sim.start()
    bounds = 0
    t = 0
    while not sim.workload_finished:
        t += 1_000
        sim.advance(t)
        check_invariants(sim.rim)
        sim.susqueue.validate_index()
        assert type(sim.env.now) is int
        bounds += 1
    sim.run_to_end()
    check_invariants(sim.rim)
    assert bounds > 100
    assert digest.hexdigest() == batch.hexdigest()


def test_hand_stepped_array_run_names_advance():
    """An array-backed run is driven by the hot loop: stepping its kernel by
    hand is refused with a typed error naming ``DReAMSim.advance``, before
    the arrival changes any state; a scan run steps event by event."""
    for backend in ("array", "scan"):
        sim, _ = build_campaign(SEU, backend=backend)
        sim.start()
        if backend == "scan":
            while not sim.tasks:
                sim.env.step()
            continue
        with pytest.raises(SimulationError, match=r"DReAMSim\.advance"):
            while sim.env.pending_count:
                sim.env.step()
        assert not sim.tasks


def test_quarantine_campaign_quarantines_nodes():
    """Sanity: the quarantine regime above really triggers quarantines."""
    _, _, resilience, _ = run_backend("array", True, CAMPAIGNS["quarantine"])
    assert resilience is not None and resilience.quarantines_total > 0


def test_seu_campaign_injects_config_faults():
    """Sanity: the SEU regime above really strikes configurations."""
    _, _, resilience, _ = run_backend("array", True, CAMPAIGNS["seu"])
    assert resilience is not None and resilience.config_faults > 0


def kick_system(path):
    """Two nodes; only node 0 can host ``big``.  The crash at t=100 takes
    node 0 (fault seed 1): task 0 has nowhere to go and is discarded, and
    task 2 stays queued behind the lost node.  Task 1 then completes on
    node 1, which is too small for task 2, so only the repair's ``_kick`` at
    t=4100 can restart the queue."""
    big = Configuration(config_no=0, req_area=2000, config_time=10)
    small = Configuration(config_no=1, req_area=300, config_time=10)
    nodes = [Node(node_no=0, total_area=3000), Node(node_no=1, total_area=500)]
    arrivals = [
        TaskArrival(at=0, task=Task(task_no=0, required_time=1000, pref_config=big)),
        TaskArrival(at=1, task=Task(task_no=1, required_time=3000, pref_config=small)),
        TaskArrival(at=2, task=Task(task_no=2, required_time=500, pref_config=big)),
    ]
    digest, mem = DigestSink(), MemorySink()
    sim = DReAMSim(nodes, [big, small], arrivals, trace=TraceBus(digest, mem), **PATHS[path])
    FailureInjector(
        sim, mtbf=Constant(100), mttr=Constant(4000), rng=RNG(seed=1), max_failures=1
    ).arm()
    return sim, digest, mem


def test_kick_restarts_an_idled_system():
    """``_kick``'s queue drain re-enters scheduling identically on all paths."""
    runs = {}
    for path in PATHS:
        sim, digest, mem = kick_system(path)
        assert hot_eligible(sim) == (path == "array")
        runs[path] = (sim.run(), digest.hexdigest(), mem)
    result, ref_digest, mem = runs["scan"]
    assert {digest for _, digest, _ in runs.values()} == {ref_digest}
    assert [t.status for t in result.tasks] == [
        TaskStatus.DISCARDED, TaskStatus.COMPLETED, TaskStatus.COMPLETED
    ]
    for path_result, _, _ in runs.values():
        queued = path_result.tasks[2]
        # Started at the repair tick: no completion fired at 4100.
        assert (queued.create_time, queued.start_time, queued.completion_time) == (
            2, 4100, 4610
        )
    assert [
        (e.time, e.type)
        for e in mem.events
        if e.type in (ev.SUSPENDED, ev.PLACED) and e.fields["task"] == 2
    ] == [(2, ev.SUSPENDED), (4100, ev.PLACED)]


# -- 2. hot loop vs the generic event loop over the scan manager ---------------


def full_fingerprint(res):
    """Every simulated observable, per task and per sample."""
    tasks = [
        (
            t.task_no,
            t.status.value,
            t.create_time,
            t.start_time,
            t.completion_time,
            t.comm_time,
            t.config_time_paid,
            t.assigned_config.config_no if t.assigned_config else None,
            t.sus_retry,
            t.scheduling_steps,
        )
        for t in res.tasks
    ]
    mon = res.monitor
    samples = (mon.times, mon.busy_col, mon.queued_col, mon.waste_col, mon.running_col)
    load = (res.load.times, res.load.cv_col, res.load.jain_col)
    return (res.report.as_dict(), res.final_time, tasks, samples, load)


def assert_fingerprints_match(result, reference, label=""):
    """``full_fingerprint`` equality, the load series compared with ``==``."""
    assert full_fingerprint(result) == full_fingerprint(reference), label


HOT_CASES = [
    dict(nodes=30, tasks=400, seed=42, partial=True),
    dict(nodes=30, tasks=400, seed=42, partial=False),
    dict(nodes=20, tasks=350, seed=11, partial=True, max_retries=2),
    dict(nodes=20, tasks=350, seed=11, partial=True, max_queue_length=5),
    dict(nodes=15, tasks=300, seed=3, partial=True, queue_order="sjf"),
    dict(nodes=15, tasks=300, seed=3, partial=True, queue_order="area"),
    dict(nodes=25, tasks=300, seed=99, partial=True, monitor_min_interval=50),
    dict(nodes=25, tasks=300, seed=99, partial=False, per_tick_housekeeping=0),
    # Suspended tasks run out of retries: 193 Discarded(reason="retries").
    dict(nodes=10, tasks=400, seed=5, partial=False, max_retries=1),
    # Nodes smaller than most configurations, so nothing can ever host
    # those tasks: 201 Discarded(reason="no_placement").
    dict(nodes=10, tasks=300, seed=3, partial=True, node_area=(200, 800)),
]


def build_sim(nodes, tasks, seed, partial, node_area=None, **sim_kwargs):
    """``quick_simulation``'s workload as an unrun :class:`DReAMSim`, with
    the node-area range optionally narrowed to ``node_area``."""
    rng = RNG(seed=seed)
    spec = NodeSpec(count=nodes)
    if node_area is not None:
        spec = NodeSpec(count=nodes, total_area=UniformInt(*node_area))
    node_list = generate_nodes(spec, rng)
    config_list = generate_configs(ConfigSpec(count=50), rng)
    stream = generate_task_stream(TaskSpec(count=tasks), config_list, rng)
    return DReAMSim(node_list, config_list, stream, partial=partial, **sim_kwargs)


@pytest.mark.parametrize(
    "case", HOT_CASES, ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items())
)
def test_hot_loop_matches_generic_loop(case):
    """Every observable and the trace digest: the hot loop's canonical
    lines must equal the ones the generic path's bus encodes."""
    hot_digest, generic_digest = DigestSink(), DigestSink()
    hot = build_sim(backend="array", trace=TraceBus(hot_digest), **case)
    assert hot_eligible(hot)
    generic = build_sim(backend="scan", trace=TraceBus(generic_digest), **case)
    assert not hot_eligible(generic)
    assert_fingerprints_match(hot.run(), generic.run())
    assert hot_digest.hexdigest() == generic_digest.hexdigest()
    assert hot_digest.count == generic_digest.count > 0


@pytest.mark.parametrize("run", ["clean", "seu-crash"])
def test_load_series_are_bit_identical_across_paths(run):
    """The hot loop's incremental load sums and the scan path's node walk
    feed one formula, so ``cv`` and ``jain`` agree bit for bit, clean and
    under SEU + crash churn."""
    if run == "clean":
        hot, scan = (build_sim(**PATHS[path], **HOT_CASES[0]).run() for path in ("array", "scan"))
    else:
        knobs = {**CAMPAIGNS["seu"], **CAMPAIGNS["crash"], "backoff_base": 20}
        hot, scan = (run_backend(path, True, knobs)[0] for path in ("array", "scan"))
    assert type(hot.load.rim) is ArrayRIM and len(hot.load.times) > 0
    assert hot.load.times == scan.load.times
    assert hot.load.cv_col == scan.load.cv_col
    assert hot.load.jain_col == scan.load.jain_col


# -- 3. property-based free-list interleavings ---------------------------------


def make_task(no, required=50, retries=0):
    # A preferred configuration so the "area" discipline has a rank key.
    cfg = Configuration(config_no=no % 5, req_area=300 + 100 * (no % 5), config_time=10)
    t = Task(task_no=no, required_time=required, pref_config=cfg)
    t.mark_created(0)
    t.sus_retry = retries
    return t


class SusListModel:
    """The paper's ``SusList`` as a plain Python list, walked linearly.

    Records are ``[task, rank, seq, key]`` lists kept in service order;
    every pick walks the list from the front and bills one housekeeping
    step per record visited, which is the cost the indexed queue reproduces
    without walking.
    """

    RANKS = {
        "fifo": lambda t: 0,
        "sjf": lambda t: t.required_time,
        "area": lambda t: -t.needed_area,
    }

    def __init__(self, max_retries, max_length, key_fn, order):
        self.counters = SearchCounters()
        self.max_retries = max_retries
        self.max_length = max_length
        self.key_fn = key_fn
        self.rank = self.RANKS[order]
        self.items = []
        self.seq = 0
        self.total_suspended = 0

    def __len__(self):
        return len(self.items)

    def add(self, task, now):
        if len(self.items) >= self.max_length:
            return None
        task.mark_suspended(now)
        self.seq += 1
        rec = [task, self.rank(task), self.seq, self.key_fn(task)]
        i = 0
        while i < len(self.items) and self.items[i][1] <= rec[1]:
            i += 1  # equal ranks stay in arrival order
        self.items.insert(i, rec)
        self.counters.housekeeping_steps += 1
        self.total_suspended += 1
        return rec

    def remove(self, rec):
        self.items.remove(rec)
        self.counters.housekeeping_steps += 1
        rec[0].sus_retry += 1
        return rec[0]

    def search_key(self, key_pred):
        for rec in self.items:
            self.counters.housekeeping_steps += 1
            if key_pred(rec[3]):
                return rec
        return None

    def expired(self):
        gone = [r for r in self.items if r[0].sus_retry >= self.max_retries]
        for rec in gone:
            self.items.remove(rec)
        return [r[0] for r in gone]


OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "head_remove", "match", "expired", "bump"]),
        st.integers(0, 7),  # operand selector (task sizing / victim index)
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, order=st.sampled_from(["fifo", "sjf", "area"]), max_retries=st.integers(1, 3))
def test_array_susqueue_free_list_interleavings(ops, order, max_retries):
    """Random fail/repair-shaped add/remove/expired scripts leave the flat
    columns, service-order list, key index and free list consistent after
    every single operation — and the queue behaves exactly like the
    linear-list :class:`SusListModel` throughout, step charges included."""
    key_fn = lambda t: t.task_no % 3  # noqa: E731 - small keyed buckets
    queue = SuspensionQueue(
        max_retries=max_retries, max_length=12, key_fn=key_fn, order=order
    )
    model = SusListModel(max_retries, 12, key_fn, order)
    live = []  # (slot, model_record) pairs for targeted removals
    next_no = 0
    now = 0
    for op, idx in ops:
        now += 1
        if op == "add":
            tq = make_task(next_no, required=10 + 7 * idx)
            tm = make_task(next_no, required=10 + 7 * idx)
            next_no += 1
            slot = queue.add(tq, now)
            rec = model.add(tm, now)
            assert (slot is None) == (rec is None)
            if slot is not None:
                assert slot >= 1  # slot 0 reserved: handles stay truthy
                live.append((slot, rec))
        elif op == "remove" and live:
            slot, rec = live.pop(idx % len(live))
            tq = queue.remove(slot)
            tm = model.remove(rec)
            assert tq.task_no == tm.task_no and tq.sus_retry == tm.sus_retry
        elif op == "head_remove" and queue:
            slot, rec = queue.head, model.items[0]
            assert queue.task_of(slot).task_no == rec[0].task_no
            live = [(s, r) for s, r in live if s != slot]
            assert queue.remove(slot).task_no == model.remove(rec).task_no
        elif op == "match":
            # The key index and the charged reference walk against the
            # model's walk, charges included.
            wanted = {idx % 3, (idx + 1) % 3} if idx % 2 else {idx % 3}
            indexed = queue.first_with_key(wanted)
            slot = queue.search(lambda t: key_fn(t) in wanted)
            rec = model.search_key(wanted.__contains__)
            assert indexed == slot
            assert (slot is None) == (rec is None)
            if slot is not None:
                assert queue.task_of(slot).task_no == rec[0].task_no
        elif op == "bump" and live:
            # Age a queued task toward its retry budget (fail/repair churn).
            slot, rec = live[idx % len(live)]
            queue.task_of(slot).sus_retry += 1
            rec[0].sus_retry += 1
        elif op == "expired":
            gone_q = queue.expired()
            gone_m = model.expired()
            assert [t.task_no for t in gone_q] == [t.task_no for t in gone_m]
            dropped = {t.task_no for t in gone_q}
            live = [(s, r) for s, r in live if r[0].task_no not in dropped]
        queue.validate_index()
        # Observable state tracks the model exactly.
        assert len(queue) == len(model)
        assert [queue.task_of(s).task_no for s in queue] == [
            r[0].task_no for r in model.items
        ]
        assert queue.counters.snapshot() == model.counters.snapshot()
        assert queue.total_suspended == model.total_suspended
    leftover_q = [queue.remove(queue.head).task_no for _ in range(len(queue))]
    leftover_m = [model.remove(model.items[0]).task_no for _ in range(len(model))]
    assert leftover_q == leftover_m
    queue.validate_index()
    assert len(queue) == 0
    assert sorted(queue._free) == list(range(1, len(queue._task)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    adds=st.integers(1, 20),
    removals=st.lists(st.integers(0, 19), max_size=20, unique=True),
)
def test_array_susqueue_slot_recycling(adds, removals):
    """Freed slots are recycled LIFO and never collide with live records."""
    q = SuspensionQueue()
    slots = [q.add(make_task(i), i) for i in range(adds)]
    for r in removals:
        if r < adds and q._task[slots[r]] is not None:
            q.remove(slots[r])
            q.validate_index()
    freed = list(q._free)
    refill = [q.add(make_task(100 + i), 100 + i) for i in range(len(freed))]
    # LIFO recycling: the most recently freed slot is handed out first.
    assert refill == list(reversed(freed))
    q.validate_index()
    assert not q._free


# -- 4. operation-level round trips --------------------------------------------


def cfg(no, area, t=10):
    return Configuration(config_no=no, req_area=area, config_time=t)


def build_rim(backend, node_areas, config_areas):
    nodes = [Node(node_no=i, total_area=a) for i, a in enumerate(node_areas)]
    configs = [cfg(i, a) for i, a in enumerate(config_areas)]
    return create_manager(nodes, configs, backend=backend)


def start_task(rim, task_no, node, entry):
    t = Task(task_no=task_no, required_time=50, pref_config=entry.config)
    t.mark_created(0)
    t.mark_started(0, entry.config)
    rim.assign_task(t, node, entry)
    return t


def drive(rim):
    """One scripted mutation history touching every query structure."""
    nodes, configs = rim.nodes, rim.configs
    e0 = rim.configure_node(nodes[0], configs[0])
    rim.configure_node(nodes[0], configs[1])
    e2 = rim.configure_node(nodes[1], configs[0])
    start_task(rim, 0, nodes[0], e0)
    running = start_task(rim, 1, nodes[1], e2)
    # The views both managers share, plus Alg. 1, recording results + charges.
    results = [
        rim.peek_preferred_config(configs[1]),
        rim.peek_closest_config(cfg(99, configs[1].req_area - 1)),
        chain_view(rim, configs),
        find_any_idle_node(rim, configs[0]),
    ]
    # Fail a busy node, then a repair round trip.
    interrupted = rim.fail_node(nodes[0])
    results.append([t.task_no for t in interrupted])
    results.append(chain_view(rim, configs))
    rim.repair_node(nodes[0])
    rim.configure_node(nodes[0], configs[0])
    results.append(chain_view(rim, configs))
    # Completion, then eviction of the node's last region.
    rim.complete_task(running, nodes[1])
    rim.evict_entries(nodes[1], [e2])
    results.append(find_any_idle_node(rim, configs[0], require_all_idle=True))
    results.append(chain_view(rim, configs))
    check_invariants(rim)
    return summarize(results), rim.counters.snapshot(), rim.export_state()


def chain_view(rim, configs):
    """The Fig. 3 chains, the node states and the SEU target set, by number."""
    return (
        [[e.config.config_no for e in rim.idle_chain(c)] for c in configs],
        [[e.task.task_no for e in rim.busy_chain(c)] for c in configs],
        [n.node_no for n in rim.blank_chain],
        dict(rim.state_counts),
        [n.node_no for n in rim.configured_in_service()],
        (rim.total_wasted_area(), rim.running_tasks_count),
    )


def find_any_idle_node(rim, config, require_all_idle=False):
    """Alg. 1 as each manager runs it: the scan manager's walk, or the two
    pieces of the hot loop's phase 4 on the array manager — the miss charge
    read off the packed arrays, else the table scan."""
    if type(rim) is not ArrayRIM:
        return rim.find_any_idle_node(config, require_all_idle)
    lst = rim._sa if require_all_idle else rim._sr
    if not lst or lst[-1] < config.req_area << _POS_BITS:
        rim.counters.scheduling_steps += rim._failed_scan_steps(require_all_idle)
        return None, []
    return rim._scan_any_idle_node(config, require_all_idle)


def summarize(results):
    """Node/entry results -> comparable identities."""
    out = []
    for r in results:
        if isinstance(r, tuple) and len(r) == 2:  # (node, evict_list)
            node, evict = r
            out.append(
                (node.node_no if node else None, [e.config.config_no for e in evict])
            )
        elif hasattr(r, "config_no"):
            out.append(("config", r.config_no))
        elif hasattr(r, "node_no"):
            out.append(("node", r.node_no))
        elif hasattr(r, "config"):
            out.append(("entry", r.config.config_no))
        else:
            out.append(r)
    return out


def test_fail_repair_round_trip_identical_and_invariant():
    runs = [drive(build_rim(b, [2000, 2000, 1500], [400, 600, 900])) for b in BACKENDS]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fail_repair_invariants_stepwise(backend):
    """check_invariants after every single mutation of a fail/repair cycle."""
    rim = build_rim(backend, [2000, 2000, 2000], [400, 600])
    nodes, configs = rim.nodes, rim.configs
    check_invariants(rim)
    e0 = rim.configure_node(nodes[0], configs[0])
    check_invariants(rim)
    start_task(rim, 0, nodes[0], e0)
    check_invariants(rim)
    rim.fail_node(nodes[0])
    check_invariants(rim)
    assert nodes[0].is_blank and not nodes[0].in_service
    assert nodes[0].busy_area == 0
    rim.repair_node(nodes[0])
    check_invariants(rim)
    assert nodes[0].in_service
    # The repaired node is back on the blank chain the placement queries read.
    assert nodes[0] in list(rim.blank_chain)


def scrub_task(task_no, entry):
    """A scrub placeholder bound to ``entry``'s configuration, as the
    failure injector builds one."""
    t = Task(task_no=task_no, required_time=20, pref_config=entry.config, data="scrub")
    t.mark_created(0)
    t.mark_started(0, entry.config)
    return t


def drive_scrubs(rim):
    """SEU upsets and scrubs one manager call at a time, checking every
    invariant after each call; returns the per-call observables."""
    nodes, configs = rim.nodes, rim.configs
    trail = []

    def observe(result):
        check_invariants(rim)
        trail.append((summarize([result]), rim.counters.snapshot()))

    idle = rim.configure_node(nodes[0], configs[0])
    observe(idle)
    busy = rim.configure_node(nodes[0], configs[1])
    observe(busy)
    victim = start_task(rim, 0, nodes[0], busy)
    observe(victim.task_no)
    # Idle-region upset: the region turns busy under its scrub task.
    scrub_idle = scrub_task(1000, idle)
    observe(rim.seu_corrupt(nodes[0], idle, scrub_idle))
    # Busy-region upset: the victim is detached, the scrub takes its place.
    scrub_busy = scrub_task(1001, busy)
    assert rim.seu_corrupt(nodes[0], busy, scrub_busy) is victim
    observe(victim.task_no)
    observe(rim.finish_scrub(nodes[0], idle, scrub_idle))
    assert nodes[0] not in list(rim.blank_chain)
    # Scrubbing the node's last region puts it back on the blank chain.
    observe(rim.finish_scrub(nodes[0], busy, scrub_busy))
    assert nodes[0].is_blank and nodes[0] in list(rim.blank_chain)
    # A crash with a scrub pending interrupts the scrub placeholder and
    # keeps the failed node off the blank chain.
    entry = rim.configure_node(nodes[1], configs[0])
    observe(entry)
    pending = scrub_task(1002, entry)
    observe(rim.seu_corrupt(nodes[1], entry, pending))
    assert rim.fail_node(nodes[1]) == [pending]
    observe(None)
    assert nodes[1] not in list(rim.blank_chain)
    return trail, rim.export_state()


def test_seu_scrub_stepwise_identical_and_invariant():
    runs = [drive_scrubs(build_rim(b, [2000, 2000, 1500], [400, 600])) for b in BACKENDS]
    assert runs[0] == runs[1]


class TestFindAnyIdleNodeCharging:
    """Each node visited by the scan costs exactly one step, every branch
    (on the array manager: the hot loop's phase-4 pieces, as
    :func:`find_any_idle_node` above calls them)."""

    def _rim(self, backend, node_areas, configure=()):
        rim = build_rim(backend, node_areas, [400, 1800])
        for node_idx, config_idx in configure:
            rim.configure_node(rim.nodes[node_idx], rim.configs[config_idx])
        return rim

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_early_return_branch_charges_one(self, backend):
        # Node 0 is configured with free area left: the scan succeeds on the
        # first node and must charge 1 step (the regression was charging 0).
        rim = self._rim(backend, [2000], configure=[(0, 0)])
        before = rim.counters.scheduling_steps
        node, evict = find_any_idle_node(rim, rim.configs[0])
        assert node is rim.nodes[0] and evict == []
        assert rim.counters.scheduling_steps - before == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blank_node_branch_charges_one(self, backend):
        # Node 0 blank (skipped, but visited: 1 step); node 1 hosts the hit.
        rim = self._rim(backend, [2000, 2000], configure=[(1, 0)])
        before = rim.counters.scheduling_steps
        node, _ = find_any_idle_node(rim, rim.configs[0])
        assert node is rim.nodes[1]
        assert rim.counters.scheduling_steps - before == 2

    @pytest.mark.parametrize("require_all_idle", [False, True])
    def test_failed_scan_charges_match_reference(self, require_all_idle):
        # Infeasible request: the array prefilter must bill exactly what
        # the reference walk bills when it comes up empty.
        def charge(backend):
            # Config 1 needs 1800 > every node's total area: no node can ever
            # host it, so the scan fails after visiting the whole table.
            rim = self._rim(backend, [1500, 1400, 1000], configure=[(0, 0), (1, 0)])
            before = rim.counters.scheduling_steps
            node, evict = find_any_idle_node(
                rim, rim.configs[1], require_all_idle=require_all_idle
            )
            assert (node, evict) == (None, [])
            return rim.counters.scheduling_steps - before

        assert charge("array") == charge("scan")

    def test_infeasible_everywhere_charges_whole_walk(self):
        # No node can ever host config 1 (req 1800 > any reclaimable area
        # once config 0 is pinned busy) — the scan visits everything.
        charged = []
        for backend in BACKENDS:
            rim = self._rim(backend, [1500, 1000], configure=[(0, 0)])
            start_task(rim, 0, rim.nodes[0], rim.nodes[0].entries[0])
            before = rim.counters.scheduling_steps
            assert find_any_idle_node(rim, rim.configs[1]) == (None, [])
            charged.append(rim.counters.scheduling_steps - before)
        assert charged[0] == charged[1] >= 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_interrupt_all_returns_tasks_in_entry_order_and_zeroes_busy(backend):
    """Node.interrupt_all owns the busy-count bookkeeping."""
    rim = build_rim(backend, [3000], [400, 600, 500])
    node = rim.nodes[0]
    tasks = [
        start_task(rim, i, node, rim.configure_node(node, c))
        for i, c in enumerate(rim.configs)
    ]
    rim.complete_task(tasks[1], node)  # leave a hole: idle entry in the middle
    interrupted = node.interrupt_all()
    assert interrupted == [tasks[0], tasks[2]]  # entry order, busy only
    assert node._busy_count == 0
    assert node.busy_area == 0
    assert all(e.is_idle for e in node.entries)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("with_entries", [True, False], ids=["idle-entries", "blank"])
def test_fail_node_with_zero_running_tasks_leaves_busy_bookkeeping_alone(
    backend, with_entries
):
    """Regression: failing a node that runs nothing (blank, or idle entries
    only) must interrupt nothing and leave every busy aggregate — the running
    task count, per-state node counts, busy areas — untouched and summing."""
    rim = build_rim(backend, [3000, 3000, 3000], [400, 600])
    nodes, configs = rim.nodes, rim.configs
    # Node 1 runs a task; the victim (node 0) holds only idle entries.
    if with_entries:
        rim.configure_node(nodes[0], configs[0])
        rim.configure_node(nodes[0], configs[1])
    start_task(rim, 0, nodes[1], rim.configure_node(nodes[1], configs[0]))

    running_before = rim.running_tasks_count
    busy_nodes_before = rim.state_counts["busy"]
    busy_area_before = sum(n.busy_area for n in rim.nodes)

    interrupted = rim.fail_node(nodes[0])

    assert interrupted == []
    assert nodes[0]._busy_count == 0
    assert rim.running_tasks_count == running_before == 1
    assert rim.state_counts["busy"] == busy_nodes_before == 1
    assert sum(n.busy_area for n in rim.nodes) == busy_area_before
    # blank + idle + busy partitions the fleet, failed node included.
    assert sum(rim.state_counts.values()) == len(rim.nodes)
    check_invariants(rim)
    # Repair restores the node without disturbing the running task either.
    rim.repair_node(nodes[0])
    assert rim.running_tasks_count == 1
    assert sum(rim.state_counts.values()) == len(rim.nodes)
    check_invariants(rim)
