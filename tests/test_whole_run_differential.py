"""Generated whole-run differential: one drawn run, every execution path.

Hypothesis draws a whole simulation — system size, reconfiguration mode,
suspension-queue discipline and bounds, monitor interval, node-area range,
per-node communication delay (Eq. 8's ``t_comm``) and an optional fault
campaign (SEU, crash, burst, retry/backoff including the instant
``backoff_base=0`` resubmit, health-aware quarantine) — and two properties
must hold for every draw:

1. **Paths agree.**  The array backend on the flat-table hot loop and the
   reference scan manager on the generic event loop produce the same trace
   digest, Table I, resilience report and per-task, monitor and load
   fingerprint (the load series from the same exact sums on both paths, so
   compared with ``==``), and every completed task paid its own node's
   delay as ``t_comm``.
2. **Service equals batch.**  The same arrivals driven through
   :class:`~repro.service.ServiceSimulator` windows, with two
   checkpoint/resume cuts (each onto either backend, so the second
   re-exports a restored task fold), seal with the batch run's digest,
   Table I and resilience report.  Every window of an array-backed
   session, fresh or resumed, runs on the hot loop.

Pinned cases add that a run whose queue no arrival, retry, scrub or
completion would redispatch still finishes, that a checkpoint cut between
hot-loop windows has the scan manager's bytes, that an arrival chain left
dry between windows is re-primed exactly once, and that a session windowed
until :attr:`~repro.service.ServiceSimulator.ready_to_drain` and then
drained seals with the batch digest in no more windows than the workload
needs.

Tier-1 runs a small derandomised profile; the ``chaos`` marker selects a
deeper one (``pytest -m chaos tests/test_whole_run_differential.py``).
"""

import io
import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from tests.snapshot_harness import SEU
from tests.test_array_differential import PATHS, assert_fingerprints_match

from repro import RNG, ConfigSpec, NodeSpec, TaskSpec
from repro.framework.campaign import FaultCampaignSpec, build_campaign, run_campaign
from repro.framework.hotloop import hot_eligible
from repro.model.task import TaskStatus
from repro.rng.distributions import UniformInt
from repro.service import ReplaySource, ServiceSimulator, Snapshot
from repro.service.snapshot import snapshot_of
from repro.trace import DigestSink, JsonlSink, MemorySink, TraceBus
from repro.workload.generator import generate_configs, generate_nodes, generate_task_stream

TIER1 = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
CHAOS = settings(TIER1, max_examples=400)


@st.composite
def fault_knobs(draw):
    """Optional fault processes; every process that never stops on its own
    is bounded (``max_failures``, or a retry budget under SEUs)."""
    knobs = {}
    if draw(st.booleans()):
        knobs["seu_rate"] = draw(st.integers(1_000, 20_000))
        knobs["scrub_factor"] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        knobs["mtbf"] = draw(st.integers(1_000, 20_000))
    if draw(st.booleans()):
        knobs["burst_rate"] = draw(st.integers(2_000, 20_000))
        knobs["burst_size"] = draw(st.integers(1, 4))
        knobs["burst_group"] = draw(st.integers(1, 8))
    node_loss = "mtbf" in knobs or "burst_rate" in knobs
    if node_loss:
        knobs["mttr"] = draw(st.integers(50, 3_000))
        knobs["max_failures"] = draw(st.integers(1, 25))
        if draw(st.booleans()):
            knobs["quarantine_threshold"] = draw(st.integers(500, 2_500))
            knobs["probation"] = draw(st.integers(100, 5_000))
            knobs["health_half_life"] = draw(st.integers(100, 5_000))
    if knobs:
        # SEUs strike until the workload drains; a budget keeps every task
        # (and so the run) finite.
        budget = st.integers(0, 4)
        knobs["retry_budget"] = draw(budget if "seu_rate" in knobs else st.none() | budget)
        knobs["backoff_base"] = draw(st.sampled_from([0, 0, 1, 8, 40]))
        knobs["backoff_cap"] = draw(st.none() | st.integers(1, 500))
    return knobs


@st.composite
def whole_runs(draw):
    """``(workload, sim_kwargs, fault_knobs)`` for one drawn run."""
    workload = {
        "nodes": draw(st.integers(5, 40)),
        "tasks": draw(st.integers(50, 400)),
        "seed": draw(st.integers(0, 2**16)),
        "node_area": draw(
            st.none()
            | st.tuples(st.integers(200, 2_000), st.integers(0, 3_000)).map(
                lambda lo_span: (lo_span[0], lo_span[0] + lo_span[1])
            )
        ),
        "network_delay": draw(st.none() | st.integers(1, 80)),
    }
    sim_kwargs = {
        "partial": draw(st.booleans()),
        "queue_order": draw(st.sampled_from(["fifo", "sjf", "area"])),
        "max_queue_length": draw(st.none() | st.integers(0, 20)),
        "max_retries": draw(st.none() | st.integers(1, 4)),
        "monitor_min_interval": draw(st.sampled_from([0, 0, 30, 200])),
    }
    return workload, sim_kwargs, draw(fault_knobs())


def build(workload, sim_kwargs, knobs, path):
    """One drawn run on one execution path, with a bus attached: a digest
    and the JSONL lines (read back for the placements)."""
    rng = RNG(seed=workload["seed"])
    node_kwargs = {}
    if workload["node_area"] is not None:
        node_kwargs["total_area"] = UniformInt(*workload["node_area"])
    if workload["network_delay"] is not None:
        node_kwargs["network_delay"] = UniformInt(0, workload["network_delay"])
    nodes = generate_nodes(NodeSpec(count=workload["nodes"], **node_kwargs), rng)
    configs = generate_configs(ConfigSpec(count=20), rng)
    stream = list(generate_task_stream(TaskSpec(count=workload["tasks"]), configs, rng))
    spec = FaultCampaignSpec(
        nodes=workload["nodes"],
        configs=20,
        tasks=workload["tasks"],
        partial=sim_kwargs["partial"],
        seed=workload["seed"],
        **knobs,
    )
    kwargs = {k: v for k, v in sim_kwargs.items() if k != "partial"}
    digest = DigestSink()
    lines = io.StringIO()
    sim, injector = build_campaign(
        spec,
        trace=TraceBus(digest, JsonlSink(lines)),
        workload=(nodes, configs, stream),
        **kwargs,
        **PATHS[path],
    )
    return sim, injector, digest, lines


def assert_comm_is_the_node_delay(result, nodes, lines):
    """Every completed task's ``t_comm`` is the delay of the node its last
    placement (the one that ran to completion) chose."""
    delay_of = {n.node_no: n.network_delay for n in nodes}
    node_of = {}
    for line in lines.getvalue().splitlines():
        event = json.loads(line)
        if event["ev"] == "Placed":
            node_of[event["task"]] = event["node"]
    completed = [t for t in result.tasks if t.status is TaskStatus.COMPLETED]
    for task in completed:
        assert task.comm_time == delay_of[node_of[task.task_no]], task.task_no


def observe(workload, sim_kwargs, knobs, path):
    sim, injector, digest, lines = build(workload, sim_kwargs, knobs, path)
    hot = hot_eligible(sim)
    result = sim.run()
    assert_comm_is_the_node_delay(result, sim.rim.nodes, lines)
    resilience = injector.resilience(result).as_dict() if injector is not None else None
    return hot, digest.hexdigest(), result, resilience


def check_paths_agree(run):
    workload, sim_kwargs, knobs = run
    runs = {path: observe(workload, sim_kwargs, knobs, path) for path in PATHS}
    assert runs["array"][0], "an array run left the hot loop"
    assert not runs["scan"][0]
    _, ref_digest, ref_result, ref_resilience = runs["scan"]
    _, digest, result, resilience = runs["array"]
    assert digest == ref_digest
    assert result.report.as_dict() == ref_result.report.as_dict()
    assert resilience == ref_resilience
    assert_fingerprints_match(result, ref_result)


# Table II's fixed per-node delays, clean and under SEU + crash + retries.
# The digests are pinned: a change to either changes how Eq. 8's t_comm or
# t_config is charged.
FIXED_DELAY_WORKLOAD = {
    "nodes": 20, "tasks": 400, "seed": 3, "node_area": None, "network_delay": 60,
}
FIXED_DELAY_CASES = {
    "clean": ({}, "6b0003da3f4c15dfd721453fe88eb949"),
    "seu-crash-retry": (
        {"seu_rate": 2_000, "scrub_factor": 2, "mtbf": 4_000, "mttr": 500,
         "max_failures": 10, "retry_budget": 3, "backoff_base": 8},
        "5b2b0fcf08274c5c4f17b7ab5cb82c48",
    ),
}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("case", list(FIXED_DELAY_CASES))
def test_fixed_node_delays_are_paid_as_comm_time(case, path):
    knobs, expected = FIXED_DELAY_CASES[case]
    sim, _, digest, lines = build(FIXED_DELAY_WORKLOAD, {"partial": True}, knobs, path)
    result = sim.run()
    assert digest.hexdigest() == expected
    assert_comm_is_the_node_delay(result, sim.rim.nodes, lines)
    completed = [t for t in result.tasks if t.status is TaskStatus.COMPLETED]
    assert any(t.comm_time for t in completed)
    # Bitstreams ship for free: a placement pays the device's own
    # configuration time or nothing.
    assert all(
        t.config_time_paid in (0, t.assigned_config.config_time) for t in completed
    )


# A drawn run whose last suspended task no event would ever redispatch:
# nothing is placed, no retry or scrub is pending, every node is in service
# and only the SEU process keeps firing.
STALLED_DRAW = (
    {"nodes": 33, "tasks": 154, "seed": 250, "node_area": (474, 1855), "network_delay": None},
    {"partial": False, "queue_order": "area", "max_queue_length": 2, "max_retries": 3,
     "monitor_min_interval": 0},
    {"seu_rate": 15545, "scrub_factor": 2, "mtbf": 17504, "mttr": 561, "max_failures": 7,
     "retry_budget": 1, "backoff_base": 40, "backoff_cap": 176},
)


@pytest.mark.parametrize("path", list(PATHS))
def test_a_queue_no_event_would_redispatch_is_restarted(path):
    """A fault process restarts a queue that only it could still reach, as a
    crash does, so the workload finishes.  The run advances in bounded
    windows, so a stalled run fails here instead of running forever."""
    sim, _, _, _ = build(*STALLED_DRAW, path)
    sim.start()
    bound = 0
    while not sim.workload_finished and bound < 1_000_000:
        bound += 20_000
        sim.advance(bound)
    assert sim.workload_finished, f"stalled with {len(sim.susqueue)} queued at {sim.env.now}"
    result = sim.run_to_end()
    assert all(t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED) for t in result.tasks)
    assert len(result.tasks) == STALLED_DRAW[0]["tasks"]


@TIER1
@given(run=whole_runs())
def test_hot_generic_and_scan_paths_agree(run):
    check_paths_agree(run)


@pytest.mark.chaos
@CHAOS
@given(run=whole_runs())
def test_hot_generic_and_scan_paths_agree_deep(run):
    check_paths_agree(run)


# -- service windows with two checkpoint/resume cuts ---------------------------


@st.composite
def service_runs(draw):
    """A spec-level campaign, a window width, two cut windows (the second
    after the first) and the two resume backends."""
    spec = FaultCampaignSpec(
        nodes=draw(st.integers(5, 40)),
        configs=20,
        tasks=draw(st.integers(50, 400)),
        partial=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
        **draw(fault_knobs()),
    )
    window = draw(st.integers(200, 20_000))
    cut = draw(st.integers(0, 6))
    second = cut + draw(st.integers(1, 6))
    backends = st.sampled_from(["array", "scan"])
    return spec, window, (cut, second), (draw(backends), draw(backends))


def _generic_window(*args, **kwargs):
    raise AssertionError("a window of an array-backed session left the hot loop")


def on_the_loop(svc, backend):
    """Make every generic window of an array-backed session fail: its
    windows and its drain must all run on the hot loop."""
    if backend == "array":
        svc.sim.env.run = _generic_window
    return svc


def check_service_equals_batch(run):
    """Windows with two checkpoint/resume cuts: the second exports a
    restored fold again (advanced past the first cut's live tasks).  An
    array-backed session, fresh or resumed, runs every window on the loop."""
    spec, window, cuts, resume_backends = run
    digest = DigestSink()
    result, injector = run_campaign(spec, backend="array", trace=TraceBus(digest))

    svc = on_the_loop(ServiceSimulator(spec, backend="array"), "array")
    prefix = MemorySink()
    svc.bus.attach(prefix)
    events = []
    t = -window  # window 0 only starts the run
    for cut, backend in zip(cuts, resume_backends):
        while t < cut * window:
            t += window
            svc.advance_to(t)
        snap = Snapshot.from_json(svc.checkpoint().to_json())
        events += prefix
        svc = ServiceSimulator.resume(
            snap, spec, backend=backend, prefix_events=list(events)
        )
        on_the_loop(svc, backend)
        prefix = MemorySink()
        svc.bus.attach(prefix)
    while not svc.sim.workload_finished and t < 40 * window:
        t += window
        svc.advance_to(t)
    final = svc.drain()

    assert svc.hexdigest() == digest.hexdigest()
    assert final.report == result.report
    view = svc.report_view()
    assert view.report == result.report
    if injector is not None:
        assert svc.injector is not None
        expected = injector.resilience(result).as_dict()
        assert view.resilience.as_dict() == expected
        assert svc.injector.resilience(final).as_dict() == expected


@TIER1
@given(run=service_runs())
def test_service_windows_with_a_resume_cut_equal_batch(run):
    check_service_equals_batch(run)


@pytest.mark.chaos
@CHAOS
@given(run=service_runs())
def test_service_windows_with_a_resume_cut_equal_batch_deep(run):
    check_service_equals_batch(run)


# -- checkpoints cut from a paused hot loop --------------------------------------

CHECKPOINT_CAMPAIGNS = {
    "clean": FaultCampaignSpec(nodes=20, configs=10, tasks=200, seed=42),
    "seu-crash-retry": FaultCampaignSpec(
        nodes=20, configs=10, tasks=200, seed=42, mtbf=3000, seu_rate=2000,
        retry_budget=4, backoff_base=8,
    ),
}


def arrivals_of(spec):
    """The arrivals ``build_campaign`` draws for ``spec``, as fresh tasks."""
    rng = RNG(seed=spec.seed)
    generate_nodes(NodeSpec(count=spec.nodes), rng)
    configs = generate_configs(ConfigSpec(count=spec.configs), rng)
    return list(generate_task_stream(TaskSpec(count=spec.tasks), configs, rng))


def windowed(spec, fed, backend):
    """A started session: the spec's own task stream, or (``fed``) the same
    arrivals pushed through ``ingest`` each window."""
    bus, digest = TraceBus(), DigestSink()
    bus.attach(digest)
    source = ReplaySource(arrivals_of(spec)) if fed else None
    if fed:
        spec = replace(spec, tasks=0)
    sim, injector = build_campaign(spec, backend=backend, trace=bus)
    if fed:
        sim.open_ingest()
    sim.start()
    return sim, injector, digest, source


def window(sim, source, t):
    if source is not None and sim.ingest_open:
        sim.ingest(source.take_until(t))
        if source.exhausted:
            sim.close_ingest()
    sim.advance(t)


def without_provenance(snap):
    """The snapshot's bytes with the ``backend`` it was cut on masked."""
    return replace(snap, backend=None, sim={**snap.sim, "backend": None}).to_json()


@pytest.mark.parametrize("fed", [False, True], ids=["stream", "ingest"])
@pytest.mark.parametrize("name", sorted(CHECKPOINT_CAMPAIGNS))
def test_checkpoint_after_hot_windows_equals_the_generic_paths(name, fed):
    """A checkpoint cut after hot windows — placement rows (kind, evicted
    area), ``("noop", …)`` stale completions, the pending arrival, the
    sequence counter (ingest's re-primes included) — has the same bytes as
    one cut at the same window on the scan manager, the ``backend``
    provenance field aside."""
    spec = CHECKPOINT_CAMPAIGNS[name]
    hot, hot_injector, hot_digest, hot_source = windowed(spec, fed, "array")
    generic, generic_injector, generic_digest, generic_source = windowed(spec, fed, "scan")
    assert hot_eligible(hot) and not hot_eligible(generic)
    t = 0
    while not hot.workload_finished:
        t += 3_000
        window(hot, hot_source, t)
        window(generic, generic_source, t)
        cut = snapshot_of(hot, hot_injector, digest=hot_digest.hexdigest())
        oracle = snapshot_of(generic, generic_injector, digest=generic_digest.hexdigest())
        assert cut.backend == "array" and oracle.backend == "scan"
        assert without_provenance(cut) == without_provenance(oracle), t
    assert t > 30_000
    assert hot.run_to_end().report == generic.run_to_end().report
    assert hot_digest.hexdigest() == generic_digest.hexdigest()


def test_a_dry_arrival_chain_is_re_primed_once():
    """A source with no arrival due for whole windows leaves the loop's
    arrival chain dry; the next ``ingest`` re-primes it.  The session seals
    with the batch digest, and every task arrives exactly once."""
    spec = FaultCampaignSpec(nodes=20, configs=10, tasks=120, seed=7)
    digest = DigestSink()
    result, _ = run_campaign(spec, backend="array", trace=TraceBus(digest))
    arrivals = arrivals_of(spec)

    svc = ServiceSimulator(replace(spec, tasks=0), backend="array")
    svc.source = ReplaySource(arrivals)
    on_the_loop(svc, "array")
    width = 5
    dry = 0
    t = 0
    while not svc.source.exhausted:
        t += width
        dry += svc.advance_to(t) == 0
    final = svc.drain()

    assert dry > 10
    assert svc.hexdigest() == digest.hexdigest()
    assert final.report == result.report
    numbers = [task.task_no for task in svc.sim.tasks]
    assert sorted(numbers) == [a.task.task_no for a in arrivals]


def test_windows_until_ready_to_drain_then_drain_equal_batch():
    """The documented library loop: window until ``ready_to_drain``, then
    ``drain()``.  The harness SEU + crash campaign seals with the batch
    digest, Table I and resilience report, and stops windowing at the
    window that finishes the workload, not after its fault tail."""
    digest = DigestSink()
    result, injector = run_campaign(SEU, backend="array", trace=TraceBus(digest))
    assert injector is not None and result.final_time > 100_000

    svc = on_the_loop(ServiceSimulator(SEU, backend="array"), "array")
    width = 500
    windows = 0
    assert not svc.ready_to_drain  # not started yet
    while not svc.ready_to_drain:
        windows += 1
        svc.advance_to(windows * width)
    assert svc.sim.env.pending_count > 0  # the fault tail is left to drain
    final = svc.drain()

    assert windows == -(-result.final_time // width)
    assert svc.hexdigest() == digest.hexdigest()
    assert final.report == result.report
    assert svc.injector.resilience(final).as_dict() == injector.resilience(result).as_dict()
