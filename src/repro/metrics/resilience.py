"""Resilience metrics — how a run degraded under injected faults.

:class:`ResilienceReport` is the fault-campaign companion to Table I:
availability, observed MTTF/MTTR, task interrupts by fault class, retry and
backoff totals, quarantine occupancy and goodput (the completed-never-
interrupted fraction).

Bit-identical replay is achieved the same way Table I achieves it: the live
failure injector and :class:`~repro.trace.replay.TraceReplayer` both reduce
their observations to one :class:`FaultLog` of primitive integer facts, and
:func:`assemble_resilience` — the only place any float is computed — folds
that log into the report.  Identical integer aggregates therefore give
identical floats, regardless of whether the facts came from live simulator
state or from the structured event stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.model.errors import ConfigurationError


@dataclass(frozen=True)
class ResilienceReport:
    """Fault-campaign metrics for one simulation run."""

    availability: float  # node-averaged in-service fraction over the run
    mttf_observed: float  # mean gap between consecutive failures (system-wide)
    mttr_observed: float  # mean observed downtime per failure (clamped at end)
    failures_total: int
    failures_by_class: Mapping[str, int] = field(default_factory=dict)
    interrupts_total: int = 0
    interrupts_by_class: Mapping[str, int] = field(default_factory=dict)
    config_faults: int = 0  # transient SEUs injected
    retries_total: int = 0  # backoff re-entries granted
    backoff_delay_total: int = 0  # Σ granted backoff delays (ticks)
    retry_discards: int = 0  # tasks that exhausted their retry budget
    quarantines_total: int = 0
    quarantine_ticks: int = 0  # Σ quarantine span lengths (node-ticks, clamped)
    completed_first_try: int = 0  # completed without ever being interrupted
    total_tasks: int = 0
    goodput: float = 0.0  # completed_first_try / total_tasks

    def as_dict(self) -> dict[str, object]:
        """Flat dict for report writers and CLI printing."""
        out: dict[str, object] = {}
        for name in (
            "availability",
            "mttf_observed",
            "mttr_observed",
            "failures_total",
            "interrupts_total",
            "config_faults",
            "retries_total",
            "backoff_delay_total",
            "retry_discards",
            "quarantines_total",
            "quarantine_ticks",
            "completed_first_try",
            "total_tasks",
            "goodput",
        ):
            out[name] = getattr(self, name)
        out["failures_by_class"] = dict(self.failures_by_class)
        out["interrupts_by_class"] = dict(self.interrupts_by_class)
        return out


#: FaultLog's integer fields, in export order.
_LOG_COUNTS = (
    "node_count",
    "final_time",
    "config_faults",
    "retries_total",
    "backoff_delay_total",
    "retry_discards",
    "completed_first_try",
    "total_tasks",
)


@dataclass
class FaultLog:
    """Primitive integer/string fault facts, identical live and replayed.

    Interrupts and retries are tallies: ``interrupts_by_class`` counts
    interrupts per fault class in first-seen order (the report's key
    order), and a retry adds one to ``retries_total`` and its delay to
    ``backoff_delay_total``.  ``failures`` and ``quarantines`` record
    *observed* spans: the end is the tick the repair/release event actually
    fired, or ``-1`` for a span still open when the workload finished
    (clamped to ``final_time`` during assembly).  All ordering is by span
    start, which is how both producers append them.
    """

    node_count: int = 0
    final_time: int = 0
    failures: list[tuple[int, str, int]] = field(default_factory=list)  # (start, cls, end|-1)
    interrupts_by_class: dict[str, int] = field(default_factory=dict)
    config_faults: int = 0
    retries_total: int = 0
    backoff_delay_total: int = 0  # Σ granted backoff delays (ticks)
    retry_discards: int = 0
    quarantines: list[tuple[int, int]] = field(default_factory=list)  # (start, end|-1)
    completed_first_try: int = 0
    total_tasks: int = 0

    def interrupt(self, cls: str) -> None:
        """Count one task interrupt of fault class ``cls``."""
        by_class = self.interrupts_by_class
        by_class[cls] = by_class.get(cls, 0) + 1

    def retry(self, delay: int) -> None:
        """Count one granted backoff retry of ``delay`` ticks."""
        self.retries_total += 1
        self.backoff_delay_total += delay

    # -- snapshot support -------------------------------------------------------

    def export_state(self) -> dict[str, object]:
        """JSON-safe plain data; the class tally travels as ``[cls, n]``
        pairs so its first-seen order survives a sorted-key dump."""
        out: dict[str, object] = {name: getattr(self, name) for name in _LOG_COUNTS}
        out["failures"] = [list(span) for span in self.failures]
        out["interrupts_by_class"] = [[cls, n] for cls, n in self.interrupts_by_class.items()]
        out["quarantines"] = [list(span) for span in self.quarantines]
        return out

    def restore_state(self, state: object) -> None:
        """Rebuild an :meth:`export_state` record onto this fresh log.

        A missing field, a wrong type, a negative count, a malformed span
        or tally pair, or a class tallied twice raises
        :class:`ConfigurationError`.
        """
        if type(state) is not dict:
            raise ConfigurationError(f"snapshot fault log must be an object, got {state!r}")
        for name in _LOG_COUNTS:
            value = state.get(name)
            if type(value) is not int or value < 0:
                raise ConfigurationError(
                    f"snapshot fault log field {name!r} must be an integer >= 0, got {value!r}"
                )
        failures = _records(state.get("failures"), "failures", _FAILURE)
        quarantines = _records(state.get("quarantines"), "quarantines", _QUARANTINE)
        tally = _records(state.get("interrupts_by_class"), "interrupts_by_class", _TALLY)
        if len(dict(tally)) != len(tally):
            raise ConfigurationError(
                f"snapshot fault log field 'interrupts_by_class' repeats a class: {tally!r}"
            )
        self.node_count, self.final_time = state["node_count"], state["final_time"]
        self.config_faults = state["config_faults"]
        self.retries_total = state["retries_total"]
        self.backoff_delay_total = state["backoff_delay_total"]
        self.retry_discards = state["retry_discards"]
        self.completed_first_try = state["completed_first_try"]
        self.total_tasks = state["total_tasks"]
        self.failures = failures
        self.quarantines = quarantines
        self.interrupts_by_class = dict(tally)


#: Record shapes of the fault log's lists: each field's type and, for an
#: integer, its least value (a span end of -1 is a span still open).
_FAILURE = ((int, 0), (str, 0), (int, -1))  # [start, cls, end]
_QUARANTINE = ((int, 0), (int, -1))  # [start, end]
_TALLY = ((str, 0), (int, 0))  # [cls, count]


def _records(
    value: Any, name: str, shape: tuple[tuple[type[object], int], ...]
) -> list[tuple[Any, ...]]:
    """A validated list of fixed-shape records, as tuples."""
    if type(value) is not list or any(
        type(rec) is not list
        or len(rec) != len(shape)
        or any(type(x) is not t or (t is int and x < low) for x, (t, low) in zip(rec, shape))
        for rec in value
    ):
        raise ConfigurationError(
            f"snapshot fault log field {name!r} must be a list of "
            f"{'/'.join(t.__name__ for t, _low in shape)} records, got {value!r}"
        )
    return [tuple(rec) for rec in value]


def assemble_resilience(log: FaultLog) -> ResilienceReport:
    """Fold a :class:`FaultLog` into a :class:`ResilienceReport`.

    The single shared code path for live accumulation and trace replay —
    every clamp and every float division happens here and nowhere else.
    """
    span = max(1, log.final_time)
    failures_by_class: dict[str, int] = {}
    down_ticks = 0
    mttr_sum = 0
    for start, cls, end in log.failures:
        failures_by_class[cls] = failures_by_class.get(cls, 0) + 1
        s = min(start, span)
        e = span if end < 0 else min(end, span)
        down_ticks += max(0, e - s)
        mttr_sum += max(0, e - s)
    n_fail = len(log.failures)
    if log.node_count > 0:
        availability = 1.0 - down_ticks / (span * log.node_count)
    else:
        availability = 1.0
    if n_fail >= 2:
        mttf = (log.failures[-1][0] - log.failures[0][0]) / (n_fail - 1)
    else:
        mttf = 0.0
    mttr = mttr_sum / n_fail if n_fail else 0.0

    q_ticks = 0
    for start, end in log.quarantines:
        s = min(start, span)
        e = span if end < 0 else min(end, span)
        q_ticks += max(0, e - s)

    total = log.total_tasks
    return ResilienceReport(
        availability=availability,
        mttf_observed=mttf,
        mttr_observed=mttr,
        failures_total=n_fail,
        failures_by_class=failures_by_class,
        interrupts_total=sum(log.interrupts_by_class.values()),
        interrupts_by_class=dict(log.interrupts_by_class),
        config_faults=log.config_faults,
        retries_total=log.retries_total,
        backoff_delay_total=log.backoff_delay_total,
        retry_discards=log.retry_discards,
        quarantines_total=len(log.quarantines),
        quarantine_ticks=q_ticks,
        completed_first_try=log.completed_first_try,
        total_tasks=total,
        goodput=(log.completed_first_try / total) if total else 0.0,
    )


__all__ = ["ResilienceReport", "FaultLog", "assemble_resilience"]
