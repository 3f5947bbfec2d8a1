"""Standard dual graph topologies.

These generators cover the workloads used throughout the paper's discussion
and our benchmarks: classical graphs (``G = G'``), their dual variants with
a complete ``G'``, and the usual structural families (lines, rings, cliques,
stars, grids, layered graphs).

Every generator returns a validated :class:`~repro.graphs.dualgraph.DualGraph`
with source node 0 unless documented otherwise.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

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


def layered(
    layer_sizes: Sequence[int],
    complete_within: bool = True,
    name: str = "",
) -> DualGraph:
    """An undirected layered graph with complete inter-layer bipartite links.

    Layer 0 must have size 1 (the source).  Consecutive layers are fully
    connected; within a layer, nodes form a clique when ``complete_within``.
    This is the scaffolding for the Theorem-12 construction and for the
    "layered network" intuition in Section 7's analysis.
    """
    if not layer_sizes or layer_sizes[0] != 1:
        raise ValueError("layer_sizes must start with a singleton source layer")
    boundaries = [0]
    for size in layer_sizes:
        if size < 1:
            raise ValueError("layer sizes must be positive")
        boundaries.append(boundaries[-1] + size)
    n = boundaries[-1]
    layers = [
        list(range(boundaries[i], boundaries[i + 1]))
        for i in range(len(layer_sizes))
    ]
    reliable: List[Edge] = []
    for layer in layers:
        if complete_within:
            reliable.extend(itertools.combinations(layer, 2))
    for a, b in zip(layers, layers[1:]):
        reliable.extend(itertools.product(a, b))
    return DualGraph(
        n,
        reliable,
        undirected=True,
        name=name or f"layered(sizes={list(layer_sizes)})",
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
