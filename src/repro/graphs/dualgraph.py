"""The dual graph network structure ``(G, G')`` from Section 2.1.

A dual graph network over ``n`` nodes is a pair of directed graphs
``G = (V, E)`` and ``G' = (V, E')`` with ``E ⊆ E'``:

* ``E`` is the set of *reliable* links — a transmission always reaches all
  reliable out-neighbours of the sender.
* ``E' \\ E`` is the set of *unreliable* links — each round, a worst-case
  adversary chooses which of a sender's unreliable out-neighbours the
  transmission additionally reaches.

The model requires a distinguished source node from which every node is
reachable in ``G``.  A network is *undirected* when both edge sets are
symmetric.  The classical static radio model is the special case
``G = G'``.

Nodes are the integers ``0 .. n-1``; by convention the source is node ``0``
unless stated otherwise.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Edge = Tuple[int, int]


class DualGraphError(ValueError):
    """Raised when a dual graph violates a model invariant."""


class DualGraph:
    """An immutable dual graph network ``(G, G')``.

    Args:
        n: Number of nodes; nodes are ``0 .. n-1``.
        reliable_edges: Directed edges of ``G``.  For undirected networks
            supply each edge in one direction and pass ``undirected=True``,
            or supply both directions explicitly.
        all_edges: Directed edges of ``G'``.  Must be a superset of the
            reliable edges (this is validated).  Self-loops are rejected;
            the model's "a sender hears itself" behaviour is part of the
            collision rules, not the graph.
        source: The distinguished source node (default 0).
        undirected: If true, both edge sets are symmetrised and the network
            is flagged undirected.
        name: Optional human-readable label used in traces and reports.

    Raises:
        DualGraphError: If ``E ⊄ E'``, an endpoint is out of range, a
            self-loop is present, or some node is unreachable from the
            source in ``G``.

    A generator that already holds per-node neighbour sets builds through
    :meth:`from_out_sets` instead; both constructors share one validated
    core.
    """

    __slots__ = (
        "_n",
        "_source",
        "_name",
        "_undirected",
        "_reliable_out",
        "_all_out",
        "_unreliable_only_out",
        "_distances",
    )

    def __init__(
        self,
        n: int,
        reliable_edges: Iterable[Edge],
        all_edges: Optional[Iterable[Edge]] = None,
        source: int = 0,
        undirected: bool = False,
        name: str = "",
    ) -> None:
        reliable = self._out_sets(reliable_edges, undirected)
        union = (
            reliable
            if all_edges is None
            else self._out_sets(all_edges, undirected)
        )
        self._init(n, reliable, union, source, undirected, name)

    @classmethod
    def from_out_sets(
        cls,
        reliable_out: Sequence[AbstractSet[int]],
        all_out: Optional[Sequence[AbstractSet[int]]] = None,
        source: int = 0,
        name: str = "",
    ) -> "DualGraph":
        """A dual graph from per-node out-neighbour sets.

        ``reliable_out[v]`` holds ``v``'s out-neighbours in ``G`` and
        ``all_out[v]`` (default: ``reliable_out[v]``) its out-neighbours
        in ``G'``; ``n`` is ``len(reliable_out)``.  Runs the same checks,
        with the same :class:`DualGraphError` texts, as the edge
        constructor.  The network is undirected when the sets are
        symmetric; :attr:`is_undirected` checks that on read.
        """
        graph = cls.__new__(cls)
        reliable = dict(enumerate(reliable_out))
        union = reliable if all_out is None else dict(enumerate(all_out))
        graph._init(len(reliable_out), reliable, union, source, False, name)
        return graph

    def _init(
        self,
        n: int,
        reliable: Mapping[int, AbstractSet[int]],
        union: Mapping[int, AbstractSet[int]],
        source: int,
        undirected: bool,
        name: str,
    ) -> None:
        """The one validated core behind both constructors."""
        if n < 1:
            raise DualGraphError(f"need at least one node, got n={n}")
        if not 0 <= source < n:
            raise DualGraphError(f"source {source} out of range for n={n}")
        self._n = n
        self._source = source
        self._name = name or f"dual-graph(n={n})"
        self._undirected = undirected

        self._reliable_out = self._validated(n, reliable)
        self._all_out = (
            self._reliable_out
            if union is reliable
            else self._validated(n, union)
        )
        missing = [
            (u, v)
            for u in range(n)
            for v in sorted(self._reliable_out[u] - self._all_out[u])
        ]
        if missing:
            raise DualGraphError(
                f"reliable edges must be a subset of all edges; "
                f"missing from E': {missing[:5]}"
            )
        self._unreliable_only_out = tuple(
            a - r for a, r in zip(self._all_out, self._reliable_out)
        )

        self._distances = self._bfs_distances(self._reliable_out, source)
        unreachable = [v for v, d in enumerate(self._distances) if d is None]
        if unreachable:
            raise DualGraphError(
                f"nodes {unreachable[:5]} unreachable from source "
                f"{source} in the reliable graph G"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _out_sets(
        edges: Iterable[Edge], undirected: bool
    ) -> Dict[int, Set[int]]:
        """Out-neighbour sets keyed by tail node, unvalidated."""
        out: Dict[int, Set[int]] = defaultdict(set)
        for u, v in edges:
            out[u].add(v)
            if undirected:
                out[v].add(u)
        return out

    @staticmethod
    def _validated(
        n: int, out: Mapping[int, AbstractSet[int]]
    ) -> Tuple[FrozenSet[int], ...]:
        """Per-node frozen out-sets, rejecting the lowest out-of-range
        edge, else the lowest self-loop."""
        nodes = frozenset(range(n))
        if any(t and (u not in nodes or not t <= nodes) for u, t in out.items()):
            u, v = min(
                (u, v)
                for u, targets in out.items()
                for v in targets
                if u not in nodes or v not in nodes
            )
            raise DualGraphError(f"edge ({u}, {v}) out of range")
        loops = [u for u, targets in out.items() if u in targets]
        if loops:
            u = min(loops)
            raise DualGraphError(f"self-loop ({u}, {u}) not allowed")
        empty: FrozenSet[int] = frozenset()
        return tuple(
            frozenset(out[u]) if u in out else empty for u in range(n)
        )

    @staticmethod
    def _bfs_distances(
        out_adj: Sequence[FrozenSet[int]], start: int
    ) -> Tuple[Optional[int], ...]:
        dist: List[Optional[int]] = [None] * len(out_adj)
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in out_adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return tuple(dist)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def source(self) -> int:
        """The distinguished source node."""
        return self._source

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def nodes(self) -> range:
        """All nodes, ``0 .. n-1``."""
        return range(self._n)

    @property
    def is_undirected(self) -> bool:
        """Whether both edge sets are symmetric."""
        if self._undirected:
            return True
        return self._symmetric(self._reliable_out) and self._symmetric(
            self._all_out
        )

    @staticmethod
    def _symmetric(adj: Sequence[FrozenSet[int]]) -> bool:
        return all(u in adj[v] for u in range(len(adj)) for v in adj[u])

    @property
    def is_classical(self) -> bool:
        """Whether ``G = G'`` (the classical static radio model)."""
        return all(not extra for extra in self._unreliable_only_out)

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------
    def reliable_out(self, v: int) -> FrozenSet[int]:
        """Out-neighbours of ``v`` in the reliable graph ``G``."""
        return self._reliable_out[v]

    def all_out(self, v: int) -> FrozenSet[int]:
        """Out-neighbours of ``v`` in ``G'`` (reliable and unreliable)."""
        return self._all_out[v]

    def unreliable_only_out(self, v: int) -> FrozenSet[int]:
        """Out-neighbours of ``v`` reachable only via unreliable links."""
        return self._unreliable_only_out[v]

    def reliable_edges(self) -> FrozenSet[Edge]:
        """All directed edges of ``G``."""
        return frozenset(
            (u, v) for u in self.nodes for v in self._reliable_out[u]
        )

    def all_edges(self) -> FrozenSet[Edge]:
        """All directed edges of ``G'``."""
        return frozenset((u, v) for u in self.nodes for v in self._all_out[u])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def distance_from_source(self, v: int) -> int:
        """Hop distance from the source to ``v`` in ``G``."""
        d = self._distances[v]
        assert d is not None  # construction validated reachability
        return d

    @property
    def source_eccentricity(self) -> int:
        """Maximum ``G``-distance from the source to any node.

        A lower bound on ``k`` for ``k``-broadcastability (Section 3 notes
        that the source-to-node distance in ``G`` bounds ``k`` from below).
        """
        return max(self.distance_from_source(v) for v in self.nodes)

    # ------------------------------------------------------------------
    # Derived networks
    # ------------------------------------------------------------------
    def classical_projection(self) -> "DualGraph":
        """The classical network using only the reliable edges (``G = G'``)."""
        return DualGraph.from_out_sets(
            self._reliable_out,
            source=self._source,
            name=f"{self._name}|classical-G",
        )

    def classical_union(self) -> "DualGraph":
        """The classical network in which every ``G'`` edge is reliable."""
        return DualGraph.from_out_sets(
            self._all_out,
            source=self._source,
            name=f"{self._name}|classical-G'",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DualGraph(name={self._name!r}, n={self._n}, "
            f"|E|={len(self.reliable_edges())}, |E'|={len(self.all_edges())})"
        )
