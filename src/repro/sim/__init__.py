"""Discrete-event simulation kernel (substrate S1).

DReAMSim, as published, advances simulated time with an explicit
``IncreaseTimeTick`` loop over integer *timeticks*.  This package replaces
that loop with :class:`~repro.sim.environment.Environment`, an event kernel
that jumps directly to the next scheduled function call
(:meth:`~repro.sim.environment.Environment.call_at`) and can export and
restore its pending queue for snapshots.

Time is measured in integer timeticks (Eq. 5 of the paper: total simulation
time = total number of timeticks); the kernel rejects any other time type.
It is deterministic: events scheduled at equal times fire in insertion order.
"""

from repro.sim.core import Event, SimulationError
from repro.sim.environment import Environment

__all__ = ["Environment", "Event", "SimulationError"]
