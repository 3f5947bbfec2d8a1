"""Per-graph precompilation shared by both engines.

Every engine reads its adjacency from a :class:`CompiledTopology`: the
batched sweep path and the search evaluator compile one per graph and
share it across runs, and an engine built without one compiles its own.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.graphs.dualgraph import DualGraph


class CompiledTopology:
    """Reusable per-graph precompilation shared by both engines.

    Everything an engine derives from the :class:`DualGraph` alone —
    the reference engine's flat adjacency sequences and the fast
    engine's per-node bit and reach masks — is hoisted here, so a sweep
    cell that runs many seeds on the same graph pays the derivation
    once (:func:`repro.experiments.runner.execute_batch`) instead of
    once per engine construction.

    Instances are immutable after construction and engines only read
    them, so one compiled topology is safe to share across any number
    of sequential engine instances.  The one exception is
    :attr:`unreliable_mask`, derived on first read and then cached:
    only the greedy adversary reads it, and a workload that recompiles
    per seed should not pay for it unread.  A topology is bound to the
    graph object it was compiled from; the engines reject a mismatched
    pair.

    Attributes:
        graph: The dual graph this topology was compiled from.
        reliable_out_seq: Per-node sorted tuple of reliable
            out-neighbours (indexed by node).
        unreliable_only_seq: Per-node frozenset of unreliable-only
            out-neighbours (indexed by node).
        bit: Per-node single-bit mask ``1 << v``.
        reach_mask: Per-node self-plus-reliable-out bitmask — who a
            transmission from ``v`` is guaranteed to reach.
        unreliable_mask: Per-node bitmask of unreliable-only
            out-neighbours (lazy, see above).
    """

    __slots__ = (
        "graph",
        "reliable_out_seq",
        "unreliable_only_seq",
        "bit",
        "reach_mask",
        "_unreliable_mask",
    )

    def __init__(self, graph: DualGraph) -> None:
        self.graph = graph
        self.reliable_out_seq: List[tuple] = [
            tuple(sorted(graph.reliable_out(v))) for v in graph.nodes
        ]
        self.unreliable_only_seq: List[FrozenSet[int]] = [
            graph.unreliable_only_out(v) for v in graph.nodes
        ]
        bit = [1 << v for v in graph.nodes]
        self.bit: List[int] = bit
        self.reach_mask: List[int] = [
            bit[v] | sum(bit[u] for u in self.reliable_out_seq[v])
            for v in graph.nodes
        ]
        self._unreliable_mask: Optional[List[int]] = None

    @property
    def unreliable_mask(self) -> List[int]:
        """Per-node bitmask of unreliable-only out-neighbours — who an
        adversary may additionally reach from ``v`` (built on first
        read, then cached)."""
        if self._unreliable_mask is None:
            bit = self.bit
            self._unreliable_mask = [
                sum(bit[u] for u in targets)
                for targets in self.unreliable_only_seq
            ]
        return self._unreliable_mask


def compile_topology(graph: DualGraph) -> CompiledTopology:
    """Precompile a graph's engine structures for reuse across runs."""
    return CompiledTopology(graph)
