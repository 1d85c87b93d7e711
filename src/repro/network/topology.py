"""RMS-rooted network topologies over the node set.

The RMS (Fig. 1) is the root; every reconfigurable node hangs off it
through one or more links.  The default is a star (one link per node, of a
chosen class); arbitrary multi-hop layouts build on networkx with
shortest-path (by latency) routing.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.model.node import Node
from repro.network.links import Link, LinkClass, transfer_time

RMS = "RMS"  # the root vertex name


class Topology:
    """A latency-weighted interconnect graph rooted at the RMS."""

    def __init__(self) -> None:
        import networkx as nx  # optional dependency (the ``graphs`` extra)

        self._g = nx.Graph()
        self._g.add_node(RMS)
        self._path_cache: dict[int, list[Link]] = {}

    # -- construction ----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Register a node vertex (without connecting it yet)."""
        self._g.add_node(node.node_no)

    def connect(self, a: Union[int, str], b: Union[int, str], link: Link) -> None:
        """Join two vertices (node numbers or ``RMS``) with a link."""
        for v in (a, b):
            if v != RMS and v not in self._g:
                self._g.add_node(v)
        self._g.add_edge(a, b, link=link, weight=link.latency)
        self._path_cache.clear()

    @classmethod
    def star(
        cls,
        nodes: Sequence[Node],
        link_class: LinkClass = LinkClass.WIRED,
        link: Optional[Link] = None,
    ) -> "Topology":
        """One direct RMS↔node link per node (the default layout)."""
        topo = cls()
        the_link = link if link is not None else Link.preset(link_class)
        for node in nodes:
            topo.connect(RMS, node.node_no, the_link)
        return topo

    @classmethod
    def clustered(
        cls,
        nodes: Sequence[Node],
        cluster_size: int,
        backbone: Optional[Link] = None,
        leaf: Optional[Link] = None,
    ) -> "Topology":
        """Clusters of nodes behind WAN backbone switches (Fig. 1's mix):
        RMS —WAN— switch_k —wired— node."""
        if cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        topo = cls()
        bb = backbone if backbone is not None else Link.preset(LinkClass.WAN)
        lf = leaf if leaf is not None else Link.preset(LinkClass.WIRED)
        for i, node in enumerate(nodes):
            switch = f"switch{i // cluster_size}"
            if switch not in topo._g:
                topo.connect(RMS, switch, bb)
            topo.connect(switch, node.node_no, lf)
        return topo

    # -- queries --------------------------------------------------------------------

    def path_to(self, node_no: int) -> list[Link]:
        """Links along the minimum-latency RMS→node route."""
        if node_no in self._path_cache:
            return self._path_cache[node_no]
        if node_no not in self._g:
            raise KeyError(f"node {node_no} not in topology")
        import networkx as nx

        try:
            vertices = nx.shortest_path(self._g, RMS, node_no, weight="weight")
        except nx.NetworkXNoPath:
            raise KeyError(f"node {node_no} unreachable from RMS") from None
        links = [
            self._g.edges[u, v]["link"] for u, v in zip(vertices, vertices[1:])
        ]
        self._path_cache[node_no] = links
        return links

    def comm_time(self, node_no: int, nbytes: int) -> int:
        """RMS→node transfer time for a payload."""
        return transfer_time(self.path_to(node_no), nbytes)

    def hop_count(self, node_no: int) -> int:
        """Number of links on the RMS→node route."""
        return len(self.path_to(node_no))

    def reachable(self, node_no: int) -> bool:
        """Is there any RMS→node route?"""
        try:
            self.path_to(node_no)
            return True
        except KeyError:
            return False


__all__ = ["Topology", "RMS"]
