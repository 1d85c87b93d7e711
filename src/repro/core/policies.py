"""Placement-selection policies — §V's best-match rule and its ablations.

The paper fixes one criterion: "the best-match can be the node which
possesses the minimum AvailableArea", so larger free regions are saved for
future reconfigurations; blank and partially blank nodes are likewise chosen
with *minimum sufficient* area.  DESIGN.md calls this choice out for
ablation, so the criterion is pluggable:

* ``MIN_AREA`` — the paper's rule (default).
* ``FIRST_FIT`` — take the first feasible candidate; cheaper searches
  (stops early) but worse packing.
* ``MAX_AREA`` — worst-fit; a classic fragmentation-friendly contrast.
* ``RANDOM`` — uniform over feasible candidates (needs an RNG).

Each selector walks the relevant chain/table and charges one scheduling step
per element examined, so the ablation benches can compare both placement
quality *and* search effort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TypeVar

from repro.model.config import Configuration
from repro.model.node import ConfigTaskEntry, Node
from repro.resources.manager import ResourceInformationManager
from repro.rng import RNG

T = TypeVar("T")


class SelectionCriterion(enum.Enum):
    """How a selector ranks feasible candidates (see module docstring)."""

    MIN_AREA = "min_area"  # the paper's best-match rule
    FIRST_FIT = "first_fit"
    MAX_AREA = "max_area"
    RANDOM = "random"


@dataclass
class PlacementPolicy:
    """Criteria for each of the three candidate searches of Fig. 5."""

    idle: SelectionCriterion = SelectionCriterion.MIN_AREA
    blank: SelectionCriterion = SelectionCriterion.MIN_AREA
    partially_blank: SelectionCriterion = SelectionCriterion.MIN_AREA
    rng: Optional[RNG] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        needs_rng = SelectionCriterion.RANDOM in (self.idle, self.blank, self.partially_blank)
        if needs_rng and self.rng is None:
            raise ValueError("RANDOM criterion requires an RNG")

    @classmethod
    def paper(cls) -> "PlacementPolicy":
        """The published policy: minimum sufficient area everywhere."""
        return cls()

    @classmethod
    def first_fit(cls) -> "PlacementPolicy":
        c = SelectionCriterion.FIRST_FIT
        return cls(idle=c, blank=c, partially_blank=c)

    @classmethod
    def worst_fit(cls) -> "PlacementPolicy":
        c = SelectionCriterion.MAX_AREA
        return cls(idle=c, blank=c, partially_blank=c)

    @classmethod
    def random(cls, rng: RNG) -> "PlacementPolicy":
        c = SelectionCriterion.RANDOM
        return cls(idle=c, blank=c, partially_blank=c, rng=rng)

    # -- selectors ------------------------------------------------------------

    def select_idle_entry(
        self, rim: ResourceInformationManager, config: Configuration
    ) -> Optional[ConfigTaskEntry]:
        """Choose a direct-allocation target among idle entries of ``config``.

        The paper's MIN_AREA rule delegates to the manager's query; the
        ablation criteria walk the chain here.
        """
        if self.idle is SelectionCriterion.MIN_AREA:
            return rim.find_best_idle_entry(config)
        return self._select(
            rim.idle_chain(config),
            rim,
            self.idle,
            feasible=lambda _e: True,
            keyfn=lambda e: rim._node_of(e).available_area,
        )

    def select_blank_node(
        self, rim: ResourceInformationManager, config: Configuration
    ) -> Optional[Node]:
        """Choose a blank node with sufficient total area."""
        if self.blank is SelectionCriterion.MIN_AREA:
            return rim.find_best_blank_node(config)
        return self._select(
            rim.blank_chain,
            rim,
            self.blank,
            feasible=lambda n: n.total_area >= config.req_area
            and config.compatible_with_node_family(n.family),
            keyfn=lambda n: n.total_area,
        )

    def select_partially_blank_node(
        self, rim: ResourceInformationManager, config: Configuration
    ) -> Optional[Node]:
        """Choose a configured node with a sufficient free region."""
        if self.partially_blank is SelectionCriterion.MIN_AREA:
            return rim.find_best_partially_blank_node(config)
        return self._select(
            (n for n in rim.nodes if not n.is_blank),
            rim,
            self.partially_blank,
            feasible=lambda n: n.available_area >= config.req_area
            and config.compatible_with_node_family(n.family),
            keyfn=lambda n: n.available_area,
        )

    # -- generic walk -------------------------------------------------------------

    def _select(
        self,
        candidates: Iterable[T],
        rim: ResourceInformationManager,
        criterion: SelectionCriterion,
        feasible: Callable[[T], bool],
        keyfn: Callable[[T], int],
    ) -> Optional[T]:
        """Walk candidates charging one scheduling step per element examined."""
        if criterion is SelectionCriterion.FIRST_FIT:
            for item in candidates:
                rim.counters.charge_scheduling()
                if feasible(item):
                    return item
            return None

        if criterion is SelectionCriterion.RANDOM:
            pool: list[T] = []
            for item in candidates:
                rim.counters.charge_scheduling()
                if feasible(item):
                    pool.append(item)
            if not pool:
                return None
            assert self.rng is not None  # enforced in __post_init__
            return self.rng.choice(pool)

        sign = 1 if criterion is SelectionCriterion.MIN_AREA else -1
        best: Optional[T] = None
        best_key: Optional[int] = None
        for item in candidates:
            rim.counters.charge_scheduling()
            if not feasible(item):
                continue
            key = sign * keyfn(item)
            if best_key is None or key < best_key:
                best, best_key = item, key
        return best


__all__ = ["PlacementPolicy", "SelectionCriterion"]
