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
from array import array
from typing import TYPE_CHECKING, Optional

from repro.core.policies import PlacementPolicy, SelectionCriterion
from repro.metrics.timeseries import TimeSeries
from repro.model.config import Configuration
from repro.model.node import ConfigTaskEntry, Node, load_weights

if TYPE_CHECKING:  # pragma: no cover
    from repro.resources.manager import ResourceInformationManager


def load_imbalance(n: int, s1: int, s2: int) -> tuple[float, float]:
    """``(cv, jain)`` of ``n`` node loads from the exact sums ``s1 = Σ
    busy·w`` and ``s2 = Σ (busy·w)²`` (``w`` from
    :func:`~repro.model.node.load_weights`).

    The weights' common denominator cancels: ``cv² = n·s2/s1² − 1`` and
    ``jain = s1²/(n·s2)``, each an integer ratio rounded once, so every
    path that reaches the same sums reports the same bits.  An idle system
    (``s1 == 0``) is perfectly balanced: ``(0.0, 1.0)``.
    """
    if not s1:
        return 0.0, 1.0
    sq = s1 * s1
    return math.sqrt((n * s2 - sq) / sq), sq / (n * s2)


def node_load(node: Node) -> float:
    """Instantaneous load: busy configured area / total area.

    Served from the node's incremental busy-area accumulator — O(1), and
    bit-identical to summing the busy entries (both are exact ints).
    """
    return node.busy_area / node.total_area


class LoadBalancer:
    """Tracks load distribution across the node table over time.

    Observations are stored column-wise and unboxed: ``times`` an
    ``array('q')`` of ticks, ``cv_col`` and ``jain_col`` ``array('d')``
    columns, with ``cv_series``/``jain_series`` as :class:`TimeSeries` views
    over them.
    """

    def __init__(self, rim: "ResourceInformationManager") -> None:
        self.rim = rim
        self._weights = load_weights(rim.nodes)
        self.times: array[int] = array("q")
        self.cv_col: array[float] = array("d")
        self.jain_col: array[float] = array("d")
        self.cv_series = TimeSeries("load_cv", self.times, self.cv_col)
        self.jain_series = TimeSeries("load_jain", self.times, self.jain_col)

    def observe(self, now: int) -> None:
        """Record the imbalance of the load distribution at ``now``.

        Runs once per task completion on the generic path: an O(nodes)
        walk summing the exact integers :func:`load_imbalance` reads.  The
        hot loop keeps the same two sums incrementally and calls it too.
        """
        s1 = s2 = 0
        for node, w in zip(self.rim.nodes, self._weights):
            b = node.busy_area * w
            s1 += b
            s2 += b * b
        cv, jain = load_imbalance(len(self._weights), s1, s2)
        self.times.append(now)
        self.cv_col.append(cv)
        self.jain_col.append(jain)

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


__all__ = ["LoadBalancer", "LeastLoadedPolicy", "load_imbalance", "node_load"]
