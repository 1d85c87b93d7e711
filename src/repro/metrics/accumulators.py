"""Streaming statistical accumulators.

:class:`RunningStats` implements Welford's numerically stable one-pass
mean/variance — the HPC-simulation idiom for accumulating per-task metrics
without storing every observation.  :class:`WastedAreaAccumulator` implements
the Eq. 6/7 bookkeeping: Eq. 6 defines *total wasted area at any given time*
as the sum of ``AvailableArea`` over nodes holding at least one
configuration; this reproduction samples that quantity at every task
scheduling event and Eq. 7 divides the accumulated sum by the total number
of tasks (interpretation documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class RunningStats:
    """One-pass count/mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        """Fold one observation into the running aggregates."""
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n−1 denominator)."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (Chan's parallel update)."""
        out = RunningStats()
        if self.n == 0:
            out.n, out._mean, out._m2 = other.n, other._mean, other._m2
        elif other.n == 0:
            out.n, out._mean, out._m2 = self.n, self._mean, self._m2
        else:
            n = self.n + other.n
            delta = other._mean - self._mean
            out.n = n
            out._mean = self._mean + delta * other.n / n
            out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out.total = self.total + other.total
        return out

    def copy(self) -> "RunningStats":
        """An independent accumulator with identical state."""
        out = RunningStats()
        out.n, out._mean, out._m2 = self.n, self._mean, self._m2
        out.min, out.max, out.total = self.min, self.max, self.total
        return out

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view (n/mean/stddev/min/max/total)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "total": self.total,
        }

    def export_state(self) -> dict[str, object]:
        """Exact-state export: floats as hex so restore is bit-identical.

        ``min``/``max`` hold the observation itself, so integer samples
        keep their type (an int travels as a JSON int).
        """
        return {
            "n": self.n,
            "mean": self._mean.hex(),
            "m2": self._m2.hex(),
            "min": _exact(self.min),
            "max": _exact(self.max),
            "total": self.total.hex(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore the exact aggregates captured by :meth:`export_state`."""
        self.n = int(state["n"])  # type: ignore[arg-type]
        self._mean = float.fromhex(state["mean"])  # type: ignore[arg-type]
        self._m2 = float.fromhex(state["m2"])  # type: ignore[arg-type]
        self.min = _from_exact(state["min"])
        self.max = _from_exact(state["max"])
        self.total = float.fromhex(state["total"])  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunningStats(n={self.n}, mean={self.mean:.3f})"


def _exact(x: float) -> object:
    """An observation as exact JSON: an int as itself, a float as hex."""
    return x if type(x) is int else x.hex()


def _from_exact(value: object) -> float:
    """Invert :func:`_exact`."""
    return value if type(value) is int else float.fromhex(value)  # type: ignore[return-value,arg-type]


@dataclass
class WastedAreaAccumulator:
    """Eq. 6/7 bookkeeping: per-scheduling-event samples of total wasted area."""

    samples: RunningStats = field(default_factory=RunningStats)
    last_sample: int = 0

    def sample(self, total_wasted_area: int) -> None:
        """Record Eq. 6's instantaneous value at a scheduling event."""
        if total_wasted_area < 0:
            raise ValueError("wasted area cannot be negative")
        self.samples.add(float(total_wasted_area))
        self.last_sample = total_wasted_area

    def average_per_task(self, total_tasks: int) -> float:
        """Eq. 7 with the per-event sampling interpretation.

        Equal to the mean sampled wasted area when every generated task
        produced exactly one sample; robust to discarded tasks otherwise.
        """
        if total_tasks <= 0:
            return 0.0
        return self.samples.total / total_tasks

    @property
    def mean_sampled(self) -> float:
        return self.samples.mean


__all__ = ["RunningStats", "WastedAreaAccumulator"]
