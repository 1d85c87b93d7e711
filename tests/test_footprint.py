"""Per-task records at their true size.

Every generated task is a ``Task`` plus a ``TaskArrival`` (and, for the
closest-match share, a fabricated ``Configuration``), held until the run
ends; at the paper's 100 000-task scale a per-instance ``__dict__`` on each
of them costs more than the rest of the run's state.  These records are
slotted, so they carry no ``__dict__``, and a generated task keeps about
320 bytes.
"""

import gc
import tracemalloc

import pytest

from repro.model import Configuration, Task
from repro.model.config import ProcessorParams
from repro.rng import RNG
from repro.workload import ConfigSpec, TaskSpec
from repro.workload.generator import TaskArrival, generate_configs, generate_task_stream

#: Bytes a generated task may retain (arrival, task, its ints and its share
#: of fabricated preferences); about 324 on CPython 3.11.
MAX_BYTES_PER_TASK = 400


def _generated() -> list[TaskArrival]:
    rng = RNG(seed=42)
    configs = generate_configs(ConfigSpec(), rng)
    return list(generate_task_stream(TaskSpec(count=50), configs, rng))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Task(task_no=0, required_time=1, pref_config=Configuration(0, 1, 0)),
        lambda: TaskArrival(
            at=0, task=Task(task_no=0, required_time=1, pref_config=Configuration(0, 1, 0))
        ),
        lambda: Configuration(config_no=0, req_area=1, config_time=0),
        lambda: ProcessorParams(),
        lambda: _generated()[0],
        lambda: _generated()[0].task,
    ],
    ids=["task", "arrival", "configuration", "params", "generated-arrival", "generated-task"],
)
def test_records_have_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_fabricated_preferences_share_one_parameter_set():
    system = ConfigSpec().count  # fabricated numbers start past the system list
    fabricated = [
        a.task.pref_config for a in _generated() if a.task.pref_config.config_no >= system
    ]
    assert fabricated
    assert all(c.params is fabricated[0].params for c in fabricated)


def test_generated_task_retains_at_most_its_budget():
    count = 5000
    rng = RNG(seed=42)
    configs = generate_configs(ConfigSpec(), rng)
    stream = generate_task_stream(TaskSpec(count=count), configs, rng)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arrivals = list(stream)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(arrivals) == count
    assert retained / count <= MAX_BYTES_PER_TASK, f"{retained / count:.0f} B per task"
