"""The monitoring module — §III: "the current states of different nodes can
be checked by the monitoring module."

Samples system-level state on simulation events (placements and
completions), keeping time series the output subsystem and the figure
benches consume.  ``min_interval`` rate-limits sampling for long runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.metrics.timeseries import TimeSeries
from repro.trace.events import MONITOR_SAMPLED, line_encoder

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.manager import ResourceInformationManager
    from repro.resources.susqueue import SuspensionQueue
    from repro.trace.bus import TraceBus

_MONITOR_SAMPLED = line_encoder(MONITOR_SAMPLED, "busy", "queued", "waste", "running")


@dataclass(frozen=True)
class MonitorSample:
    """One instantaneous snapshot of system state."""

    time: int
    busy_nodes: int
    idle_nodes: int
    blank_nodes: int
    running_tasks: int
    suspended_tasks: int
    configured_area: int
    wasted_area: int

    @property
    def utilization(self) -> float:
        """Busy share of non-blank nodes."""
        configured = self.busy_nodes + self.idle_nodes
        return self.busy_nodes / configured if configured else 0.0


class Monitor:
    """Event-driven state sampler with optional rate limiting.

    Samples are stored column-wise: ``times`` plus one column per
    :class:`MonitorSample` field.  The four published series are
    :class:`TimeSeries` views over those columns (sharing ``times``), and
    :attr:`samples` materialises the records on request.
    """

    def __init__(self, min_interval: int = 0, trace: Optional["TraceBus"] = None) -> None:
        self.min_interval = min_interval
        self.trace = trace
        # Columns a TimeSeries shares carry its list[float] annotation.
        self.times: list[float] = []
        self.busy_col: list[float] = []
        self.idle_col: list[int] = []
        self.blank_col: list[int] = []
        self.running_col: list[float] = []
        self.queued_col: list[float] = []
        self.configured_col: list[int] = []
        self.waste_col: list[float] = []
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
        """Record a snapshot unless rate-limited (see :attr:`samples`)."""
        if self._last_time is not None and now - self._last_time < self.min_interval:
            return
        # All O(1): the manager maintains these aggregates incrementally.
        states = rim.node_count_by_state()
        busy = states["busy"]
        queued = len(susqueue)
        wasted = rim.total_wasted_area()
        running = rim.running_tasks_count
        self.times.append(now)
        self.busy_col.append(busy)
        self.idle_col.append(states["idle"])
        self.blank_col.append(states["blank"])
        self.running_col.append(running)
        self.queued_col.append(queued)
        self.configured_col.append(rim.total_configured_area())
        self.waste_col.append(wasted)
        self._last_time = now
        if self.trace is not None:
            self.trace.emit(_MONITOR_SAMPLED, busy, queued, wasted, running)

    @property
    def samples(self) -> list[MonitorSample]:
        """Every recorded snapshot, oldest first (built from the columns)."""
        return [
            MonitorSample(*row)
            for row in zip(
                self.times,
                self.busy_col,
                self.idle_col,
                self.blank_col,
                self.running_col,
                self.queued_col,
                self.configured_col,
                self.waste_col,
            )
        ]

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


__all__ = ["Monitor", "MonitorSample"]
