"""Network delay models consumed by the framework.

A :class:`NetworkModel` answers two questions per placement:

* ``comm_time(node, task)`` — Eq. 8's ``t_comm``: shipping the task (its
  input ``data``) from the RMS to the node.
* ``config_transfer_time(node, config)`` — the bitstream-shipping component
  of reconfiguration.  The device-side programming time is the
  configuration's own ``config_time``; when a network model is attached the
  effective reconfiguration delay is ``transfer + program``.

Two implementations:

* :class:`FixedDelayModel` — Table II's abstraction (node-constant comm
  delay, zero transfer); the default behaviour when no model is attached.
* :class:`TransferDelayModel` — computes both from a
  :class:`~repro.network.topology.Topology` and payload sizes, optionally
  with a per-node bitstream cache (a real partial-reconfiguration system
  keeps recent bitstreams in on-board flash, skipping the transfer on
  re-load).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.model.config import Configuration
from repro.model.node import Node
from repro.model.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.topology import Topology


class NetworkModel(abc.ABC):
    """Delay oracle for task shipping and bitstream transfer."""

    @abc.abstractmethod
    def comm_time(self, node: Node, task: Task) -> int:
        """Eq. 8 t_comm for sending ``task`` to ``node``."""

    @abc.abstractmethod
    def config_transfer_time(self, node: Node, config: Configuration) -> int:
        """Bitstream-shipping ticks before programming can start."""


class FixedDelayModel(NetworkModel):
    """Table II behaviour: per-node constant comm delay, free bitstreams."""

    def comm_time(self, node: Node, task: Task) -> int:
        return node.network_delay

    def config_transfer_time(self, node: Node, config: Configuration) -> int:
        return 0


class TransferDelayModel(NetworkModel):
    """Topology-derived delays with an optional per-node bitstream cache.

    Parameters
    ----------
    topology:
        RMS-rooted interconnect; unreachable nodes raise at query time.
    cache_size:
        Bitstreams kept per node (LRU).  ``0`` disables caching.  A cache
        hit skips the transfer entirely — only the device programming time
        (the configuration's ``config_time``) remains.
    """

    def __init__(self, topology: Topology, cache_size: int = 0) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.topology = topology
        self.cache_size = cache_size
        self._caches: dict[int, list[int]] = {}  # node_no -> LRU of config_nos
        self.cache_hits = 0
        self.cache_misses = 0

    def comm_time(self, node: Node, task: Task) -> int:
        payload = int(task.data) if isinstance(task.data, (int, float)) else 0
        return self.topology.comm_time(node.node_no, payload)

    def config_transfer_time(self, node: Node, config: Configuration) -> int:
        if self.cache_size > 0:
            cache = self._caches.setdefault(node.node_no, [])
            if config.config_no in cache:
                cache.remove(config.config_no)
                cache.append(config.config_no)  # refresh LRU position
                self.cache_hits += 1
                return 0
            self.cache_misses += 1
            cache.append(config.config_no)
            if len(cache) > self.cache_size:
                cache.pop(0)
        return self.topology.comm_time(node.node_no, config.bsize)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


__all__ = ["NetworkModel", "FixedDelayModel", "TransferDelayModel"]
