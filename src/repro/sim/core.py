"""Core types for the discrete-event kernel.

An :class:`Event` is one scheduled function call: the zero-argument callable
the kernel runs when the clock reaches the event, plus an optional
serializable tag naming what the call does.  The event object's identity is
what callers keep (the simulator's completion registry compares it) and its
tag is what snapshots export.
"""

from __future__ import annotations

from typing import Callable, Optional


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Event:
    """A function call scheduled at a point in simulated time."""

    __slots__ = ("fn", "tag")

    def __init__(self, fn: Callable[[], None], tag: Optional[tuple] = None) -> None:
        self.fn = fn
        #: Optional serializable identity (a tuple) naming what this event
        #: does, set via Environment.call_at(..., tag=...).  Snapshots export
        #: pending events by tag and re-create their callables from it; an
        #: untagged pending event makes the run unsnapshottable.
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Event tag={self.tag!r}>"
