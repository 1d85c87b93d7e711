"""Resource information manager (substrate S4).

Implements §IV-B's "dynamic data structures for resource management":

* :class:`~repro.resources.chains.IntrusiveChain` — the ``Inext``/``Bnext``
  linked-list mechanism of Fig. 3.  The published design threads *nodes* on
  one pointer pair, which only supports membership in a single
  configuration's list — sufficient for full reconfiguration, where a node
  holds one configuration.  With partial reconfiguration a node can hold idle
  *and* busy regions of several configurations at once, so this reproduction
  threads the chains through the **config–task entries** instead (one link
  per region).  This preserves the published O(1) insert/remove and the
  per-configuration search semantics while generalising them; the search-step
  accounting is identical (one step per link traversed).
* :class:`~repro.resources.manager.ResourceInformationManager` — the node
  table, per-configuration idle/busy chains, the blank-node list, all
  scheduler queries (best idle / best blank / best partially-blank /
  FindAnyIdleNode) and all housekeeping mutations, with search-step counting
  per Table I.
* :class:`~repro.resources.arraycore.ArrayRIM` — the flat-table backend
  (``backend="array"``): the same state in packed integer arrays, from
  which the hot loop answers the same queries with the same charges and
  trace events (see the module docstring for the layout).  Its mutators change the node table through two transitions only,
  ``_busy_shift`` (regions turning busy or idle) and ``_regions_shift``
  (regions loaded or freed), and ``_derive_tables`` builds the same tables
  from the nodes for construction, restore and the invariant check.  Both
  managers share one node-record snapshot codec
  (:func:`~repro.resources.manager.export_node_records` /
  :func:`~repro.resources.manager.restore_node_records`).
* :class:`~repro.resources.susqueue.SuspensionQueue` — the ``SusList`` of
  Fig. 4 (bounded-retry FIFO of suspended tasks in slot columns), the one
  queue both backends and the array hot loop use.
* :mod:`~repro.resources.invariants` — a full-state consistency checker used
  by the tests and by the simulator's optional debug mode (which runs on
  the scan manager).

The two backends are selected through :func:`create_manager`:
``"array"`` (flat tables, the default) and ``"scan"`` (object manager,
reference linear scans — the executable spec, which the generic
scheduler drives).  Both produce bit-identical placements, counters,
reports and trace digests.
"""

from typing import Optional, Sequence

from repro.model.config import Configuration
from repro.model.node import Node
from repro.resources.arraycore import ArrayRIM
from repro.resources.chains import ChainError, IntrusiveChain
from repro.resources.counters import SearchCounters
from repro.resources.invariants import InvariantViolation, check_invariants
from repro.resources.manager import ResourceInformationManager
from repro.resources.susqueue import SuspensionQueue
from repro.trace.bus import TraceBus

#: Valid ``backend=`` selectors: the production backend first, then the spec.
BACKENDS = ("array", "scan")


def resolve_backend(backend: Optional[str]) -> str:
    """Normalise a ``backend=`` argument: ``None`` means ``"array"``.

    Raises ``ValueError`` naming the valid options for anything else.
    """
    if backend is None:
        return "array"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; options: {BACKENDS}")
    return backend


def create_manager(
    nodes: Sequence[Node],
    configs: Sequence[Configuration],
    counters: Optional[SearchCounters] = None,
    backend: str = "array",
    trace: Optional[TraceBus] = None,
) -> "ArrayRIM | ResourceInformationManager":
    """Build the resource manager for ``backend`` (the manager seam).

    ``"array"`` requires the paper's homogeneous single-family system; a
    heterogeneous (device-family) setup gets the scan manager, whose walks
    apply the per-pair compatibility filters.
    """
    if resolve_backend(backend) == "array" and all(
        c.family is None for c in configs
    ) and all(n.family is None for n in nodes):
        return ArrayRIM(nodes, configs, counters=counters, trace=trace)
    return ResourceInformationManager(nodes, configs, counters=counters, trace=trace)


__all__ = [
    "ArrayRIM",
    "BACKENDS",
    "ChainError",
    "IntrusiveChain",
    "InvariantViolation",
    "ResourceInformationManager",
    "SearchCounters",
    "SuspensionQueue",
    "check_invariants",
    "create_manager",
    "resolve_backend",
]
