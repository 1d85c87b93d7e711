"""The load-balancing module.

§III lists a load-balancing module in the core subsystem and §VII defers its
full implementation to future work ("we will implement load balancing
manager to perform a better load distribution among all the nodes").  This
reproduction implements both halves:

* **Measurement** — :class:`LoadBalancer` tracks per-node load (running
  regions weighted by configured area) and summarises imbalance with the
  coefficient of variation and a Jain fairness index.
* **Policy** — :class:`LeastLoadedPolicy`, a drop-in
  :class:`~repro.core.policies.PlacementPolicy` that breaks the paper's
  min-area rule toward the least-loaded node, giving the future-work
  "better load distribution" behaviour.  The ablation bench
  ``test_bench_ablation_loadbalance`` compares it against the paper policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.policies import PlacementPolicy, SelectionCriterion
from repro.metrics.timeseries import TimeSeries
from repro.model.config import Configuration
from repro.model.node import ConfigTaskEntry, Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.manager import ResourceInformationManager


@dataclass(frozen=True)
class LoadSnapshot:
    """Imbalance summary at one instant."""

    time: int
    mean_load: float
    cv: float  # coefficient of variation (0 = perfectly balanced)
    jain: float  # Jain fairness index (1 = perfectly balanced)
    max_load: float


def node_load(node: Node) -> float:
    """Instantaneous load: busy configured area / total area.

    Served from the node's incremental busy-area accumulator — O(1), and
    bit-identical to summing the busy entries (both are exact ints).
    """
    return node.busy_area / node.total_area


class LoadBalancer:
    """Tracks load distribution across the node table over time.

    Observations are stored column-wise: ``times`` plus one column per
    :class:`LoadSnapshot` field; ``cv_series``/``jain_series`` are
    :class:`TimeSeries` views over them and :attr:`snapshots` materialises
    the records on request.
    """

    def __init__(self, rim: "ResourceInformationManager") -> None:
        self.rim = rim
        self.times: list[float] = []
        self.mean_col: list[float] = []
        self.cv_col: list[float] = []
        self.jain_col: list[float] = []
        self.max_col: list[float] = []
        self.cv_series = TimeSeries("load_cv", self.times, self.cv_col)
        self.jain_series = TimeSeries("load_jain", self.times, self.jain_col)

    def observe(self, now: int) -> None:
        """Sample the load distribution and record the imbalance summary.

        Runs once per task completion on the generic path: an O(nodes)
        walk with the two-pass variance.  The hot loop keeps the same series
        from O(1) exact-integer utilization aggregates (``Var X = E[X²] −
        (E[X])²``); both sums are exact (so an idle system reports
        ``cv == 0`` identically), but ``mean``/``cv``/``jain`` can still
        differ by a few ULPs of final-operation rounding, so the
        differential tests compare these beyond-paper series with a tight
        tolerance while everything paper-facing stays exact.
        """
        n = len(self.rim.nodes)
        loads = [node_load(x) for x in self.rim.nodes]
        mean = sum(loads) / n if n else 0.0
        max_load = max(loads) if loads else 0.0
        if n and mean > 0:
            var = sum((x - mean) ** 2 for x in loads) / n
            cv = math.sqrt(var) / mean
            sq = sum(x * x for x in loads)
            jain = (sum(loads) ** 2) / (n * sq) if sq > 0 else 1.0
        else:
            cv, jain = 0.0, 1.0
        self.times.append(now)
        self.mean_col.append(mean)
        self.cv_col.append(cv)
        self.jain_col.append(jain)
        self.max_col.append(max_load)

    @property
    def snapshots(self) -> list[LoadSnapshot]:
        """Every observation, oldest first (built from the columns)."""
        return [
            LoadSnapshot(*row)
            for row in zip(self.times, self.mean_col, self.cv_col, self.jain_col, self.max_col)
        ]

    @property
    def mean_cv(self) -> float:
        return self.cv_series.mean()

    @property
    def mean_jain(self) -> float:
        return self.jain_series.mean()


class LeastLoadedPolicy(PlacementPolicy):
    """Placement policy preferring the least-loaded feasible node.

    Keeps the paper's feasibility rules but ranks candidates by instantaneous
    node load (busy-area fraction), tie-breaking on the paper's min-area
    criterion.  Implements the future-work load-balancing behaviour.
    """

    def __init__(self) -> None:
        super().__init__(
            idle=SelectionCriterion.MIN_AREA,
            blank=SelectionCriterion.MIN_AREA,
            partially_blank=SelectionCriterion.MIN_AREA,
        )

    def select_idle_entry(
        self, rim: "ResourceInformationManager", config: Configuration
    ) -> Optional[ConfigTaskEntry]:
        best = None
        best_key = None
        for entry in rim.idle_chain(config):
            rim.counters.charge_scheduling()
            node = rim._node_of(entry)
            key = (node_load(node), node.available_area)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def select_blank_node(
        self, rim: "ResourceInformationManager", config: Configuration
    ) -> Optional[Node]:
        # Blank nodes all have zero load; fall back to the paper's rule.
        return super().select_blank_node(rim, config)

    def select_partially_blank_node(
        self, rim: "ResourceInformationManager", config: Configuration
    ) -> Optional[Node]:
        best = None
        best_key = None
        for node in rim.nodes:
            rim.counters.charge_scheduling()
            if node.is_blank or node.available_area < config.req_area:
                continue
            if not config.compatible_with_node_family(node.family):
                continue
            key = (node_load(node), node.available_area)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best


__all__ = ["LoadBalancer", "LoadSnapshot", "LeastLoadedPolicy", "node_load"]
