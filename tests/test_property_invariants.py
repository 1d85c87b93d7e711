"""Property-based tests: random operation sequences must preserve every
invariant of the resource data structures and the area model (Eq. 4)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DreamScheduler, ScheduleResult
from repro.model import Configuration, Node, Task
from repro.resources import ResourceInformationManager, check_invariants


def build_system(node_areas, config_areas):
    nodes = [Node(node_no=i, total_area=a) for i, a in enumerate(node_areas)]
    configs = [
        Configuration(config_no=i, req_area=a, config_time=10)
        for i, a in enumerate(config_areas)
    ]
    rim = ResourceInformationManager(nodes, configs)
    return rim, DreamScheduler(rim)


node_areas_st = st.lists(st.integers(500, 4000), min_size=1, max_size=8)
config_areas_st = st.lists(st.integers(200, 2000), min_size=1, max_size=6)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    node_areas=node_areas_st,
    config_areas=config_areas_st,
    script=st.lists(
        st.tuples(
            st.sampled_from(["arrive", "complete", "fail", "repair"]),
            st.integers(0, 5),
        ),
        max_size=40,
    ),
)
def test_random_schedules_preserve_invariants(node_areas, config_areas, script):
    """Drive the scheduler with arbitrary arrive/complete/fail/repair
    interleavings; the chains, blank list, Eq. 4 accounting, task uniqueness
    and the blank+idle+busy fleet partition must hold after every operation."""
    rim, sched = build_system(node_areas, config_areas)
    running: list[tuple[Task, Node]] = []
    now = 0
    task_no = 0
    for op, idx in script:
        now += 1
        if op == "arrive":
            pref = rim.configs[idx % len(rim.configs)]
            t = Task(task_no=task_no, required_time=50, pref_config=pref)
            task_no += 1
            t.mark_created(now)
            out = sched.schedule(t, now)
            if out.result is ScheduleResult.SCHEDULED:
                running.append((t, out.placement.node))
        elif op == "complete":
            if running:
                t, node = running.pop(idx % len(running))
                t.mark_completed(now)
                rim.complete_task(t, node)
                cand = sched.next_redispatch(node)
                if cand is not None:
                    out = sched.schedule(cand, now)
                    if out.result is ScheduleResult.SCHEDULED:
                        running.append((cand, out.placement.node))
        elif op == "fail":
            victims = [n for n in rim.nodes if n.in_service]
            if victims:
                victim = victims[idx % len(victims)]
                interrupted = rim.fail_node(victim)
                # Interrupted tasks drop out of the running set (fail-restart
                # re-entry is the injector's job; here we only check state).
                gone = {t.task_no for t in interrupted}
                assert all(n is victim for t, n in running if t.task_no in gone)
                running = [(t, n) for t, n in running if t.task_no not in gone]
        else:  # repair
            failed = [n for n in rim.nodes if not n.in_service]
            if failed:
                rim.repair_node(failed[idx % len(failed)])
        check_invariants(rim)
        sched.susqueue.validate_index()
        # The fleet partition: blank + idle + busy == node count, always
        # (failed nodes are blanked, so they land in the blank bucket).
        counts = rim.state_counts
        assert counts["blank"] + counts["idle"] + counts["busy"] == len(rim.nodes)
        assert rim.running_tasks_count == len(running)

    # Eq. 4 spot check on every node at the end.
    for node in rim.nodes:
        node.check_area_invariant()
        assert node.available_area >= 0


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(500, 5000),
    areas=st.lists(st.integers(100, 1500), max_size=8),
)
def test_node_area_accounting_eq4(total, areas):
    """Loading configurations in any order keeps Eq. 4 exact; overflow raises
    without corrupting state."""
    node = Node(node_no=0, total_area=total)
    loaded = []
    for i, a in enumerate(areas):
        cfg = Configuration(config_no=i, req_area=a, config_time=1)
        if a <= node.available_area:
            node.send_bitstream(cfg)
            loaded.append(a)
        else:
            try:
                node.send_bitstream(cfg)
                raise AssertionError("expected AreaError")
            except Exception:
                pass
        node.check_area_invariant()
        assert node.available_area == total - sum(loaded)
    # Unload everything; area must return exactly.
    node.make_blank()
    assert node.available_area == total


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.integers(0, 2**31),
    n_tasks=st.integers(5, 40),
)
def test_simulation_conservation_property(seeds, n_tasks):
    """Whole-simulation property: every generated task terminates, and the
    terminal counts partition the total."""
    from repro import quick_simulation
    from repro.model import TaskStatus

    result = quick_simulation(nodes=6, configs=4, tasks=n_tasks, seed=seeds)
    rep = result.report
    assert rep.total_completed_tasks + rep.total_discarded_tasks == n_tasks
    for t in result.tasks:
        assert t.status in (TaskStatus.COMPLETED, TaskStatus.DISCARDED)
    check_invariants(result.load.rim)
