"""Time-stamped metric series for monitoring and figure generation."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Protocol


class Column(Protocol):
    """One column of samples: a list, or a typed ``array`` — ``'q'`` for the
    monitor's ticks and counts, ``'d'`` for the load balancer's ratios —
    whose items are stored unboxed."""

    def __len__(self) -> int: ...

    def __getitem__(self, index: int, /) -> float: ...

    def __iter__(self) -> Iterator[float]: ...

    def append(self, value: Any, /) -> None:
        """Add one sample at the end."""


@dataclass
class TimeSeries:
    """An append-only series of (time, value) samples, non-decreasing in time."""

    name: str = ""
    times: Column = field(default_factory=list)
    values: Column = field(default_factory=list)

    def add(self, time: float, value: float) -> None:
        """Append a sample; time must not precede the previous sample."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time {time} precedes last sample {self.times[-1]} in series {self.name!r}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def at(self, time: float) -> Optional[float]:
        """Last value at or before ``time`` (step interpolation)."""
        i = bisect_right(self.times, time)
        return self.values[i - 1] if i else None

    def mean(self) -> float:
        """Unweighted mean of the sampled values."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean weighted by holding time (step function integral / span)."""
        if len(self.times) < 2:
            return self.values[0] if self.values else 0.0
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        return total / span if span > 0 else self.values[-1]

    def resample(self, n: int) -> "TimeSeries":
        """Step-resample onto ``n`` evenly spaced points over the span."""
        if n <= 0:
            raise ValueError("n must be positive")
        out = TimeSeries(name=f"{self.name}[resampled]")
        if not self.times:
            return out
        t0, t1 = self.times[0], self.times[-1]
        for k in range(n):
            t = t0 + (t1 - t0) * k / max(1, n - 1)
            v = self.at(t)
            out.add(t, v if v is not None else self.values[0])
        return out

    def max(self) -> float:
        """Largest sampled value (0 for an empty series)."""
        return max(self.values) if self.values else 0.0


__all__ = ["TimeSeries"]
