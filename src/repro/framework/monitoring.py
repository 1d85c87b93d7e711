"""The monitoring module — §III: "the current states of different nodes can
be checked by the monitoring module."

Samples system-level state on simulation events (placements and
completions), keeping time series the output subsystem and the figure
benches consume.  ``min_interval`` rate-limits sampling for long runs.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional

from repro.metrics.timeseries import TimeSeries
from repro.trace.events import MONITOR_SAMPLED, line_encoder

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.manager import ResourceInformationManager
    from repro.resources.susqueue import SuspensionQueue
    from repro.trace.bus import TraceBus

_MONITOR_SAMPLED = line_encoder(MONITOR_SAMPLED, "busy", "queued", "waste", "running")


class Monitor:
    """Event-driven state sampler with optional rate limiting.

    Samples are stored column-wise: ``times`` plus one column per
    ``MonitorSampled`` field, each an ``array('q')`` (every sample is an
    integer tick or count, stored unboxed).  The four published series are
    :class:`TimeSeries` views over those columns (sharing ``times``).
    """

    def __init__(self, min_interval: int = 0, trace: Optional["TraceBus"] = None) -> None:
        self.min_interval = min_interval
        self.trace = trace
        self.times: array[int] = array("q")
        self.busy_col: array[int] = array("q")
        self.running_col: array[int] = array("q")
        self.queued_col: array[int] = array("q")
        self.waste_col: array[int] = array("q")
        self.busy_nodes = TimeSeries("busy_nodes", self.times, self.busy_col)
        self.queue_length = TimeSeries("suspension_queue_length", self.times, self.queued_col)
        self.wasted_area = TimeSeries("wasted_area", self.times, self.waste_col)
        self.running_tasks = TimeSeries("running_tasks", self.times, self.running_col)
        self._last_time: Optional[int] = None

    def sample(
        self,
        now: int,
        rim: "ResourceInformationManager",
        susqueue: "SuspensionQueue",
    ) -> None:
        """Record a snapshot unless rate-limited by ``min_interval``."""
        if self._last_time is not None and now - self._last_time < self.min_interval:
            return
        # All O(1): the manager maintains these aggregates incrementally.
        busy = rim.state_counts["busy"]
        queued = len(susqueue)
        wasted = rim.total_wasted_area()
        running = rim.running_tasks_count
        self.times.append(now)
        self.busy_col.append(busy)
        self.running_col.append(running)
        self.queued_col.append(queued)
        self.waste_col.append(wasted)
        self._last_time = now
        if self.trace is not None:
            self.trace.emit(_MONITOR_SAMPLED, busy, queued, wasted, running)

    def export_state(self) -> dict:
        """Snapshot support: the rate-limit gate (series restart empty)."""
        return {"last_time": self._last_time}

    def restore_state(self, state: dict) -> None:
        """Restore the rate-limit gate so post-restore sampling (and its
        ``MonitorSampled`` emissions) continues exactly where the
        interrupted run left off."""
        self._last_time = state["last_time"]

    @property
    def peak_queue_length(self) -> int:
        return int(self.queue_length.max())

    @property
    def peak_running_tasks(self) -> int:
        return int(self.running_tasks.max())

    def __len__(self) -> int:
        return len(self.times)


__all__ = ["Monitor"]
