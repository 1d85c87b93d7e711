"""Synthetic resource and task generators — §III's input subsystem.

Node and configuration generation correspond to ``InitNodes`` /
``InitConfigs``; task generation to the job submission manager ("simulates
the task arrivals corresponding to a user-defined task arrival rate and
distribution function").

Each generator consumes its own derived RNG stream (see :meth:`RNG.spawn`)
so that, e.g., changing the number of tasks does not change the generated
node table — a requirement for clean full-vs-partial A/B comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.model.config import Configuration, ProcessorParams, Ptype
from repro.model.node import Node
from repro.model.task import UNSET, Task, TaskStatus
from repro.rng import RNG
from repro.rng.distributions import Constant, UniformInt
from repro.workload.spec import ConfigSpec, NodeSpec, TaskSpec

# RNG sub-stream indices (stable across versions; part of the replay contract).
STREAM_NODES = 1
STREAM_CONFIGS = 2
STREAM_ARRIVALS = 3
STREAM_TASK_ATTRS = 4

# Words per bulk refill of the fast-path stream buffers (any value yields
# the same stream; this just amortises the per-call generator overhead).
_BLOCK = 1024


def generate_nodes(spec: NodeSpec, rng: RNG) -> list[Node]:
    """Create the node table (``InitNodes``): areas drawn from the spec."""
    stream = rng.spawn(STREAM_NODES)
    nodes = []
    for i in range(spec.count):
        nodes.append(
            Node(
                node_no=i,
                total_area=max(1, spec.total_area.sample_int(stream)),
                family=spec.family,
                caps=spec.caps,
                network_delay=spec.network_delay.sample_int(stream),
            )
        )
    return nodes


def _params_for(ptype: Ptype, stream: RNG) -> ProcessorParams:
    """Plausible architectural parameters per processor type (ρ-VEX style)."""
    if ptype is Ptype.VLIW:
        return ProcessorParams(
            issue_width=stream.choice([2, 4, 8]),
            alus=stream.randint(2, 8),
            multipliers=stream.randint(1, 4),
            cluster_cores=stream.choice([1, 2, 4]),
            memory_slots=stream.randint(1, 4),
        )
    if ptype is Ptype.MULTIPLIER:
        return ProcessorParams(alus=1, multipliers=stream.randint(1, 16))
    if ptype is Ptype.SYSTOLIC_ARRAY:
        return ProcessorParams(
            alus=stream.randint(4, 64),
            cluster_cores=stream.choice([1, 2]),
            extras=(("array_dim", float(stream.choice([4, 8, 16]))),),
        )
    return ProcessorParams(
        issue_width=stream.choice([1, 2]),
        alus=stream.randint(1, 4),
        multipliers=stream.randint(0, 2),
    )


def generate_configs(spec: ConfigSpec, rng: RNG) -> list[Configuration]:
    """Create the configurations list (``InitConfigs``)."""
    stream = rng.spawn(STREAM_CONFIGS)
    configs = []
    for i in range(spec.count):
        area = max(1, spec.req_area.sample_int(stream))
        ptype = stream.choice(list(spec.ptypes))
        configs.append(
            Configuration(
                config_no=i,
                req_area=area,
                config_time=spec.config_time.sample_int(stream),
                bsize=area * spec.bsize_per_area,
                ptype=ptype,
                params=_params_for(ptype, stream),
                family=spec.family,
            )
        )
    return configs


@dataclass(frozen=True, slots=True)
class TaskArrival:
    """One scheduled arrival: the task plus its absolute arrival timetick."""

    at: int
    task: Task


class TaskStream:
    """Lazy task arrival stream (the job submission manager's input).

    Iterating yields :class:`TaskArrival` records with non-decreasing
    ``at`` times.  The stream is deterministic for a given (rng seed, spec,
    configs) triple and is independent of how the consumer interleaves
    iteration with simulation.
    """

    def __init__(
        self,
        spec: TaskSpec,
        configs: Sequence[Configuration],
        rng: RNG,
        start_time: int = 0,
        first_task_no: int = 0,
    ) -> None:
        if not configs:
            raise ValueError("configs must be non-empty")
        self.spec = spec
        self.configs = list(configs)
        self._arrivals = rng.spawn(STREAM_ARRIVALS)
        self._attrs = rng.spawn(STREAM_TASK_ATTRS)
        self.start_time = start_time
        self.first_task_no = first_task_no
        # Unknown preferred configurations get config numbers beyond the
        # system list so they can never produce a spurious exact match.
        self._unknown_no = max(c.config_no for c in self.configs) + 1

    def __iter__(self) -> Iterator[TaskArrival]:
        spec = self.spec
        if (
            type(spec.arrival_interval) is UniformInt
            and type(spec.required_time) is UniformInt
            and type(spec.data_size) is Constant
            and type(spec.unknown_req_area) is UniformInt
            and type(spec.unknown_config_time) is UniformInt
        ):
            yield from self._iter_fast()
            return
        now = self.start_time
        for i in range(spec.count):
            now += max(1, spec.arrival_interval.sample_int(self._arrivals))
            yield TaskArrival(at=now, task=self._make_task(self.first_task_no + i))

    def _iter_fast(self) -> Iterator[TaskArrival]:
        """Specialised iteration for the default UniformInt/Constant spec.

        Draw-for-draw identical to the generic ``__iter__``/``_make_task``
        path — same rejection sampling, same stream interleaving — with the
        distribution/RNG call layers collapsed into local bindings.  This is
        the per-task hot path of every large sweep, shared by all backends.
        """
        spec = self.spec
        # Stream words are pulled in blocks of ``_BLOCK`` (identical bit
        # stream, consumed in the same order as the generic per-call path)
        # so the per-draw cost is a list index instead of a method call.
        # Every consumer of these two spawned streams is inlined below,
        # so nothing can observe the buffered read-ahead.
        a_fill = self._arrivals._bits.fill_uint32
        t_fill = self._attrs._bits.fill_uint32
        block = _BLOCK
        abuf: list[int] = []
        ai_ = block
        tbuf: list[int] = []
        ti = block
        configs = self.configs
        ncfg = len(configs)
        pct = spec.closest_match_pct
        arr = spec.arrival_interval
        a_low, a_span = arr.low, arr.high - arr.low + 1
        a_limit = 4294967296 - (4294967296 % a_span)
        rt = spec.required_time
        r_low, r_span = rt.low, rt.high - rt.low + 1
        r_limit = 4294967296 - (4294967296 % r_span)
        c_limit = 4294967296 - (4294967296 % ncfg)
        data = max(0, int(round(spec.data_size.value))) or None
        ua = spec.unknown_req_area
        u_low, u_span = ua.low, ua.high - ua.low + 1
        u_limit = 4294967296 - (4294967296 % u_span)
        uc = spec.unknown_config_time
        t_low, t_span = uc.low, uc.high - uc.low + 1
        t_limit = 4294967296 - (4294967296 % t_span)
        inv_2_53 = 1.0 / 9007199254740992.0
        now = self.start_time
        first = self.first_task_no
        # Slotted records filled field by field instead of through the
        # dataclass __init__ (its argument parsing and __post_init__ checks
        # dominate construction cost; the values below always satisfy the
        # checks).  The arrival is frozen, so its two slots are set through
        # ``object.__setattr__``.
        task_new = Task.__new__
        ta_new = TaskArrival.__new__
        set_field = object.__setattr__
        created = TaskStatus.CREATED
        for i in range(spec.count):
            # arrival interval: UniformInt via rejection (RNG.randint)
            while True:
                if ai_ == block:
                    del abuf[:]
                    a_fill(abuf, block)
                    ai_ = 0
                r = abuf[ai_]
                ai_ += 1
                if r < a_limit:
                    break
            step = a_low + r % a_span
            now += step if step > 1 else 1
            # closest-match coin: uniform double from two words
            if ti > block - 2:
                if ti < block:
                    w1 = tbuf[ti]
                    del tbuf[:]
                    t_fill(tbuf, block)
                    w2 = tbuf[0]
                    ti = 1
                else:
                    del tbuf[:]
                    t_fill(tbuf, block)
                    w1 = tbuf[0]
                    w2 = tbuf[1]
                    ti = 2
            else:
                w1 = tbuf[ti]
                w2 = tbuf[ti + 1]
                ti += 2
            if ((w1 >> 6) * 134217728.0 + (w2 >> 5)) * inv_2_53 < pct:
                # fabricate an unknown preference (two more rejections)
                while True:
                    if ti == block:
                        del tbuf[:]
                        t_fill(tbuf, block)
                        ti = 0
                    r = tbuf[ti]
                    ti += 1
                    if r < u_limit:
                        break
                area = u_low + r % u_span
                while True:
                    if ti == block:
                        del tbuf[:]
                        t_fill(tbuf, block)
                        ti = 0
                    r = tbuf[ti]
                    ti += 1
                    if r < t_limit:
                        break
                pref = Configuration(
                    config_no=self._unknown_no,
                    req_area=area if area > 1 else 1,
                    config_time=t_low + r % t_span,
                )
                self._unknown_no += 1
            else:
                # uniform choice over the system configurations
                while True:
                    if ti == block:
                        del tbuf[:]
                        t_fill(tbuf, block)
                        ti = 0
                    r = tbuf[ti]
                    ti += 1
                    if r < c_limit:
                        break
                pref = configs[r % ncfg]
            # required time
            while True:
                if ti == block:
                    del tbuf[:]
                    t_fill(tbuf, block)
                    ti = 0
                r = tbuf[ti]
                ti += 1
                if r < r_limit:
                    break
            req_time = r_low + r % r_span
            task = task_new(Task)
            task.task_no = first + i
            task.required_time = req_time if req_time > 1 else 1
            task.pref_config = pref
            task.data = data
            task.create_time = UNSET
            task.start_time = UNSET
            task.completion_time = UNSET
            task.comm_time = 0
            task.config_time_paid = 0
            task.assigned_config = None
            task.on_gpp = False
            task.status = created
            task.sus_retry = 0
            task.fault_retries = 0
            task.scheduling_steps = 0
            ta = ta_new(TaskArrival)
            set_field(ta, "at", now)
            set_field(ta, "task", task)
            yield ta

    def _make_task(self, task_no: int) -> Task:
        spec = self.spec
        if self._attrs.random() < spec.closest_match_pct:
            # Fabricate a preference absent from the system list.
            pref = Configuration(
                config_no=self._unknown_no,
                req_area=max(1, spec.unknown_req_area.sample_int(self._attrs)),
                config_time=spec.unknown_config_time.sample_int(self._attrs),
            )
            self._unknown_no += 1
        else:
            pref = self._attrs.choice(self.configs)
        return Task(
            task_no=task_no,
            required_time=max(1, spec.required_time.sample_int(self._attrs)),
            pref_config=pref,
            data=spec.data_size.sample_int(self._attrs) or None,
        )


def generate_task_stream(
    spec: TaskSpec,
    configs: Sequence[Configuration],
    rng: RNG,
    start_time: int = 0,
) -> TaskStream:
    """Convenience constructor matching the other two generators."""
    return TaskStream(spec, configs, rng, start_time=start_time)


__all__ = [
    "TaskArrival",
    "TaskStream",
    "generate_configs",
    "generate_nodes",
    "generate_task_stream",
]
