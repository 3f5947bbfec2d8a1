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
from typing import List, Optional, Tuple

from repro.graphs.dualgraph import DualGraph, DualGraphError, Edge


def _spanning_tree_edges(n: int, rng: random.Random) -> List[Edge]:
    """A random recursive spanning tree over ``0..n-1`` rooted at 0."""
    return [(rng.randrange(v), v) for v in range(1, n)]


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
    reliable = set()
    for u, v in _spanning_tree_edges(n, rng):
        reliable.add((min(u, v), max(u, v)))
    unreliable = set()
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) in reliable:
            continue
        if rng.random() < p_reliable:
            reliable.add((u, v))
        elif rng.random() < p_unreliable:
            unreliable.add((u, v))
    return DualGraph(
        n,
        reliable,
        itertools.chain(reliable, unreliable),
        source=source,
        undirected=True,
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
