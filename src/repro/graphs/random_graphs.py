"""Random and geometric dual graph generators.

Two families:

* :func:`gnp_dual` — an Erdős–Rényi-style dual: a random connected reliable
  graph plus independently sampled extra unreliable edges.
* :func:`gray_zone` — a unit-disk-style geometric dual capturing the *gray
  zone* phenomenon the paper cites as motivation ([24] Lundgren et al.):
  nodes within a short radius share reliable links; nodes in an annulus
  beyond it share unreliable links that sometimes deliver and sometimes do
  not.  This is the "realistic" workload for our example applications.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Set, Tuple

from repro.graphs.dualgraph import DualGraph, DualGraphError, Edge


def gnp_dual(
    n: int,
    p_reliable: float = 0.1,
    p_unreliable: float = 0.2,
    seed: int = 0,
    source: int = 0,
) -> DualGraph:
    """A random undirected dual graph.

    The reliable graph is a random spanning tree (guaranteeing the model's
    reachability requirement) plus each remaining pair independently with
    probability ``p_reliable``.  Every non-reliable pair independently
    becomes an unreliable edge with probability ``p_unreliable``.

    Args:
        n: Number of nodes.
        p_reliable: Density of extra reliable edges.
        p_unreliable: Density of unreliable (``G' \\ G``) edges.
        seed: PRNG seed; the construction is deterministic given the seed.
        source: The source node.
    """
    if n < 2:
        raise ValueError("gnp_dual needs n >= 2")
    if not (0.0 <= p_reliable <= 1.0 and 0.0 <= p_unreliable <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    # A random recursive spanning tree rooted at 0: node v hangs off
    # parent[v] < v.
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    reliable: List[Set[int]] = [set() for _ in range(n)]
    unreliable: List[Set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        reliable[parent[v]].add(v)
        reliable[v].add(parent[v])
    draw = rng.random
    # Pairs in combinations(range(n), 2) order; a pair is visited once,
    # so only a tree edge can already be reliable.
    for u in range(n - 1):
        reliable_u = reliable[u]
        unreliable_u = unreliable[u]
        for v in range(u + 1, n):
            if parent[v] == u:
                continue
            if draw() < p_reliable:
                reliable_u.add(v)
                reliable[v].add(u)
            elif draw() < p_unreliable:
                unreliable_u.add(v)
                unreliable[v].add(u)
    # Frozen here, so DualGraph keeps these sets rather than copying them.
    reliable_out = list(map(frozenset, reliable))
    return DualGraph.from_out_sets(
        reliable_out,
        [r.union(x) for r, x in zip(reliable_out, unreliable)],
        source=source,
        name=f"gnp-dual(n={n},pr={p_reliable},pu={p_unreliable},seed={seed})",
    )


def gray_zone(
    n: int,
    reliable_radius: float = 0.35,
    gray_radius: float = 0.7,
    seed: int = 0,
    area: float = 1.0,
    max_attempts: int = 200,
) -> Tuple[DualGraph, List[Tuple[float, float]]]:
    """A geometric gray-zone dual graph with node positions.

    Nodes are placed uniformly at random in an ``area × area`` square.
    Pairs within ``reliable_radius`` get a reliable edge; pairs within
    ``gray_radius`` (but beyond the reliable radius) get an unreliable edge
    — the gray zone where packets are received only sometimes.  Placement
    is retried (rotating the seed) until the reliable graph is connected,
    mirroring the paper's standing assumption.  The default radii are
    chosen so connectivity holds with decent probability down to ``n ≈
    16``; for larger ``n`` they can be reduced toward the connectivity
    threshold ``πr²n ≈ ln n``.

    Returns:
        ``(graph, positions)`` where ``positions[v]`` is node ``v``'s
        coordinate (handy for plotting and for distance-based adversaries).

    Raises:
        DualGraphError: If no connected placement is found within
            ``max_attempts`` retries; increase the radius or density.
    """
    if reliable_radius <= 0 or gray_radius < reliable_radius:
        raise ValueError("need 0 < reliable_radius <= gray_radius")
    last_error: Optional[Exception] = None
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt * 7919)
        positions = [
            (rng.uniform(0, area), rng.uniform(0, area)) for _ in range(n)
        ]
        reliable: List[Edge] = []
        unreliable: List[Edge] = []
        for u, v in itertools.combinations(range(n), 2):
            d = math.dist(positions[u], positions[v])
            if d <= reliable_radius:
                reliable.append((u, v))
            elif d <= gray_radius:
                unreliable.append((u, v))
        try:
            graph = DualGraph(
                n,
                reliable,
                reliable + unreliable,
                undirected=True,
                name=(
                    f"gray-zone(n={n},r={reliable_radius},"
                    f"R={gray_radius},seed={seed + attempt * 7919})"
                ),
            )
            return graph, positions
        except DualGraphError as exc:
            last_error = exc
    raise DualGraphError(
        f"could not place a connected gray-zone network after "
        f"{max_attempts} attempts: {last_error}"
    )
