"""Dual graph networks and topology generators."""

from repro.graphs.constructions import (
    CliqueBridgeLayout,
    LayeredPairsLayout,
    PivotLayersLayout,
    clique_bridge,
    layered_pairs,
    pivot_layers,
    pivot_layers_for_n,
)
from repro.graphs.broadcastability import (
    broadcast_number,
    greedy_broadcast_schedule,
    guaranteed_informed,
    is_k_broadcastable,
)
from repro.graphs.dualgraph import DualGraph, DualGraphError
from repro.graphs.generators import (
    clique,
    grid,
    line,
    ring,
    star,
    with_complete_unreliable,
)
from repro.graphs.random_graphs import gnp_dual, gray_zone

__all__ = [
    "CliqueBridgeLayout",
    "DualGraph",
    "DualGraphError",
    "broadcast_number",
    "greedy_broadcast_schedule",
    "guaranteed_informed",
    "is_k_broadcastable",
    "LayeredPairsLayout",
    "PivotLayersLayout",
    "clique",
    "clique_bridge",
    "gnp_dual",
    "gray_zone",
    "grid",
    "layered_pairs",
    "line",
    "pivot_layers",
    "pivot_layers_for_n",
    "ring",
    "star",
    "with_complete_unreliable",
]
