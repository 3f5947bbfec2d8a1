"""Standard dual graph topologies.

These generators cover the workloads used throughout the paper's discussion
and our benchmarks: classical graphs (``G = G'``), their dual variants with
a complete ``G'``, and the usual structural families (lines, rings, cliques,
stars, grids).

Every generator returns a validated :class:`~repro.graphs.dualgraph.DualGraph`
with source node 0 unless documented otherwise.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List

from repro.graphs.dualgraph import DualGraph, Edge


def line(n: int, extra_edges: Iterable[Edge] = ()) -> DualGraph:
    """An undirected path ``0 - 1 - ... - n-1`` with optional ``G'`` extras.

    The line maximises diameter; in the classical model round robin needs
    ``Θ(n)`` rounds here, giving the Table-1 classical baseline row.
    """
    reliable = [(i, i + 1) for i in range(n - 1)]
    all_edges = list(reliable) + list(extra_edges)
    return DualGraph(
        n, reliable, all_edges, undirected=True, name=f"line(n={n})"
    )


def ring(n: int, extra_edges: Iterable[Edge] = ()) -> DualGraph:
    """An undirected cycle over ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    reliable = [(i, (i + 1) % n) for i in range(n)]
    all_edges = list(reliable) + list(extra_edges)
    return DualGraph(
        n, reliable, all_edges, undirected=True, name=f"ring(n={n})"
    )


def clique(n: int) -> DualGraph:
    """The undirected complete graph (diameter 1, classical)."""
    reliable = list(itertools.combinations(range(n), 2))
    return DualGraph(n, reliable, undirected=True, name=f"clique(n={n})")


def star(n: int, center: int = 0) -> DualGraph:
    """An undirected star with the given center (also the source)."""
    reliable = [(center, v) for v in range(n) if v != center]
    return DualGraph(
        n, reliable, source=center, undirected=True, name=f"star(n={n})"
    )


def grid(rows: int, cols: int) -> DualGraph:
    """An undirected ``rows × cols`` grid; source at the top-left corner."""
    n = rows * cols

    def node(r: int, c: int) -> int:
        return r * cols + c

    reliable: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                reliable.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                reliable.append((node(r, c), node(r + 1, c)))
    return DualGraph(
        n, reliable, undirected=True, name=f"grid({rows}x{cols})"
    )


def with_complete_unreliable(graph: DualGraph, name: str = "") -> DualGraph:
    """Extend a network so that ``G'`` is the complete graph.

    This is the canonical "maximally unreliable" dual of a classical graph:
    the reliable topology is preserved while the adversary gains every
    possible interference edge.  Both Theorem 2 and Theorem 12 use a
    complete ``G'``.
    """
    n = graph.n
    all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    return DualGraph(
        n,
        graph.reliable_edges(),
        all_edges,
        source=graph.source,
        name=name or f"{graph.name}+complete-G'",
    )
