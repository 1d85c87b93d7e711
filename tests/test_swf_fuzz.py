"""Fuzzing the SWF reader: arbitrary text through ``read_swf`` and then
``tasks_from_swf``.

An SWF trace is input from outside the program.  The only allowed outcomes
are a ``ValueError`` or arrivals the simulator can take: an ``int`` arrival
tick, never negative and in non-decreasing order, and an ``int`` required
time of at least one tick.  An ``OverflowError``, ``TypeError`` or
``IndexError`` fails the property.

Tier-1 runs a small derandomised budget; ``-m chaos`` runs a deeper one.
"""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.model import Configuration
from repro.workload.swf import read_swf, tasks_from_swf

CONFIGS = [Configuration(config_no=i, req_area=100 * (i + 1), config_time=10) for i in range(5)]
TIER1 = settings(max_examples=100, derandomize=True, deadline=None)
CHAOS = settings(TIER1, max_examples=2000)

#: Finite SWF numbers, including the edges of ``float()``'s range and syntax.
NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-1", "0", "0.5", "1e308", "-1e308", "1e-320", "1_0"]),
)
#: A record: enough numbers to be read as a job.
RECORDS = st.lists(NUMBERS, min_size=4, max_size=18).map(" ".join)
#: Anything else: numbers mixed with non-finite values and short text, or raw text.
TOKENS = st.one_of(NUMBERS, st.sampled_from(["nan", "+inf", "0x10", ";", ""]), st.text(max_size=4))
LINES = st.one_of(
    RECORDS, st.lists(TOKENS, max_size=20).map(" ".join), st.text(max_size=40)
)
#: A trace: records only (so most draws are read), or any lines.
TRACES = st.lists(RECORDS, max_size=6) | st.lists(LINES, max_size=8)
SCALES = st.sampled_from([1.0, 0.001, 1000.0])


def check(lines: list[str], time_scale: float, skip_failed: bool) -> None:
    try:
        jobs = read_swf(io.StringIO("\n".join(lines)))
        arrivals = tasks_from_swf(jobs, CONFIGS, time_scale=time_scale, skip_failed=skip_failed)
    except ValueError:
        return
    last = 0
    for arrival in arrivals:
        assert type(arrival.at) is int and arrival.at >= last
        last = arrival.at
        required = arrival.task.required_time
        assert type(required) is int and required >= 1


# Found by this fuzzer: a run or submit time that overflows once scaled
# raised OverflowError from ``int(inf)``.
@example(lines=["0 0 0 0", "0 0 0 1e308"], time_scale=1000.0, skip_failed=False)
@example(lines=["1 1e308 0 10"], time_scale=1000.0, skip_failed=True)
@TIER1
@given(lines=TRACES, time_scale=SCALES, skip_failed=st.booleans())
def test_swf_text_is_rejected_or_read(lines, time_scale, skip_failed):
    check(lines, time_scale, skip_failed)


@pytest.mark.chaos
@CHAOS
@given(lines=TRACES, time_scale=SCALES, skip_failed=st.booleans())
def test_swf_text_is_rejected_or_read_deep(lines, time_scale, skip_failed):
    check(lines, time_scale, skip_failed)
