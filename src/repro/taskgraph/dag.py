"""Task graphs: DAGs of dependent tasks with communication costs.

A :class:`TaskGraph` node is a :class:`GraphTask` (execution time + preferred
configuration, like Eq. 3 tasks); an edge ``(u, v, comm)`` means ``v`` may
start only after ``u`` completes and its output (costing ``comm`` timeticks
of transfer when the two run on different nodes) has arrived.

Generators produce the standard evaluation shapes: layered random DAGs
(the classic scheduling-literature workload), linear pipelines, fork–join
and map–reduce graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.model.config import Configuration
from repro.rng import RNG


@dataclass(frozen=True, eq=False)
class GraphTask:
    """One vertex of a task graph (Eq. 3 attributes, graph-scoped id)."""

    gid: int
    required_time: int
    pref_config: Configuration
    label: str = ""

    def __post_init__(self) -> None:
        if self.required_time <= 0:
            raise ValueError("required_time must be positive")

    def __repr__(self) -> str:
        return f"GraphTask(#{self.gid}, t={self.required_time}, C{self.pref_config.config_no})"


class TaskGraph:
    """A validated DAG of :class:`GraphTask` vertices."""

    def __init__(self) -> None:
        import networkx as nx  # optional dependency (the ``graphs`` extra)

        self._g = nx.DiGraph()
        self._next_gid = 0

    # -- construction ---------------------------------------------------------

    def add_task(
        self, required_time: int, pref_config: Configuration, label: str = ""
    ) -> GraphTask:
        """Create a vertex with Eq. 3-style attributes; returns it."""
        task = GraphTask(
            gid=self._next_gid,
            required_time=required_time,
            pref_config=pref_config,
            label=label,
        )
        self._next_gid += 1
        self._g.add_node(task)
        return task

    def add_dependency(self, src: GraphTask, dst: GraphTask, comm: int = 0) -> None:
        """Declare that ``dst`` depends on ``src`` with transfer cost ``comm``."""
        if src not in self._g or dst not in self._g:
            raise ValueError("both endpoints must be tasks of this graph")
        if comm < 0:
            raise ValueError("comm must be non-negative")
        import networkx as nx

        self._g.add_edge(src, dst, comm=comm)
        if not nx.is_directed_acyclic_graph(self._g):
            self._g.remove_edge(src, dst)
            raise ValueError(f"edge {src.gid}->{dst.gid} would create a cycle")

    # -- queries -------------------------------------------------------------------

    @property
    def tasks(self) -> list[GraphTask]:
        return list(self._g.nodes)

    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def edge_count(self) -> int:
        """Number of dependencies in the graph."""
        return self._g.number_of_edges()

    def predecessors(self, task: GraphTask) -> list[GraphTask]:
        """Direct dependencies of ``task``."""
        return list(self._g.predecessors(task))

    def successors(self, task: GraphTask) -> list[GraphTask]:
        """Tasks directly depending on ``task``."""
        return list(self._g.successors(task))

    def comm(self, src: GraphTask, dst: GraphTask) -> int:
        """Transfer cost annotated on the (src, dst) edge."""
        return self._g.edges[src, dst]["comm"]

    def entry_tasks(self) -> list[GraphTask]:
        """Tasks with no dependencies (ready at time zero)."""
        return [t for t in self._g.nodes if self._g.in_degree(t) == 0]

    def exit_tasks(self) -> list[GraphTask]:
        """Tasks nothing depends on (the graph's outputs)."""
        return [t for t in self._g.nodes if self._g.out_degree(t) == 0]

    def topological_order(self) -> list[GraphTask]:
        """Any dependency-respecting linear order of the tasks."""
        import networkx as nx

        return list(nx.topological_sort(self._g))

    def critical_path_length(self) -> int:
        """Longest execution+communication chain — the makespan lower bound
        (ignoring configuration delays and resource contention)."""
        longest: dict[GraphTask, int] = {}
        for t in reversed(self.topological_order()):
            succ = [
                self.comm(t, s) + longest[s] for s in self.successors(t)
            ]
            longest[t] = t.required_time + (max(succ) if succ else 0)
        return max(longest.values(), default=0)

    def validate(self) -> None:
        """Assert acyclicity (defence-in-depth; edges are checked on add)."""
        import networkx as nx

        if not nx.is_directed_acyclic_graph(self._g):  # pragma: no cover - guarded
            raise ValueError("task graph contains a cycle")


# -- generators ---------------------------------------------------------------------


def _pick(configs: Sequence[Configuration], rng: RNG) -> Configuration:
    return rng.choice(list(configs))


def pipeline(
    stages: int,
    configs: Sequence[Configuration],
    rng: RNG,
    time_range: tuple[int, int] = (100, 1000),
    comm: int = 10,
) -> TaskGraph:
    """A linear chain of ``stages`` tasks (streaming pipeline)."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    g = TaskGraph()
    prev: Optional[GraphTask] = None
    for i in range(stages):
        t = g.add_task(rng.randint(*time_range), _pick(configs, rng), label=f"stage{i}")
        if prev is not None:
            g.add_dependency(prev, t, comm=comm)
        prev = t
    return g


def fork_join(
    width: int,
    configs: Sequence[Configuration],
    rng: RNG,
    time_range: tuple[int, int] = (100, 1000),
    comm: int = 10,
) -> TaskGraph:
    """source → ``width`` parallel tasks → sink."""
    if width < 1:
        raise ValueError("width must be >= 1")
    g = TaskGraph()
    src = g.add_task(rng.randint(*time_range), _pick(configs, rng), label="fork")
    sink = g.add_task(rng.randint(*time_range), _pick(configs, rng), label="join")
    for i in range(width):
        mid = g.add_task(rng.randint(*time_range), _pick(configs, rng), label=f"w{i}")
        g.add_dependency(src, mid, comm=comm)
        g.add_dependency(mid, sink, comm=comm)
    return g


def map_reduce(
    mappers: int,
    reducers: int,
    configs: Sequence[Configuration],
    rng: RNG,
    time_range: tuple[int, int] = (100, 1000),
    comm: int = 10,
) -> TaskGraph:
    """``mappers`` sources all feeding each of ``reducers`` sinks (shuffle)."""
    if mappers < 1 or reducers < 1:
        raise ValueError("mappers and reducers must be >= 1")
    g = TaskGraph()
    maps = [
        g.add_task(rng.randint(*time_range), _pick(configs, rng), label=f"map{i}")
        for i in range(mappers)
    ]
    reds = [
        g.add_task(rng.randint(*time_range), _pick(configs, rng), label=f"red{i}")
        for i in range(reducers)
    ]
    for m in maps:
        for r in reds:
            g.add_dependency(m, r, comm=comm)
    return g


def layered_random(
    layers: int,
    width: int,
    configs: Sequence[Configuration],
    rng: RNG,
    edge_prob: float = 0.4,
    time_range: tuple[int, int] = (100, 1000),
    comm_range: tuple[int, int] = (0, 50),
) -> TaskGraph:
    """Classic layered random DAG: edges only between consecutive layers,
    every non-entry task gets at least one predecessor."""
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    g = TaskGraph()
    grid: list[list[GraphTask]] = []
    for layer in range(layers):
        row = [
            g.add_task(
                rng.randint(*time_range), _pick(configs, rng), label=f"L{layer}.{i}"
            )
            for i in range(width)
        ]
        grid.append(row)
    for layer in range(1, layers):
        for t in grid[layer]:
            linked = False
            for up in grid[layer - 1]:
                if rng.random() < edge_prob:
                    g.add_dependency(up, t, comm=rng.randint(*comm_range))
                    linked = True
            if not linked:  # guarantee connectivity
                up = rng.choice(grid[layer - 1])
                g.add_dependency(up, t, comm=rng.randint(*comm_range))
    return g


__all__ = [
    "GraphTask",
    "TaskGraph",
    "pipeline",
    "fork_join",
    "map_reduce",
    "layered_random",
]
