"""Theorem 2: the ``Ω(n)`` lower bound on 2-broadcastable networks.

The network is :func:`~repro.graphs.constructions.clique_bridge`: an
``(n−1)``-clique containing the source and a *bridge* node, plus a lone
receiver attached only to the bridge; ``G'`` is complete.  The network is
2-broadcastable (source sends, then bridge sends), yet no deterministic
algorithm finishes within ``n − 3`` rounds.

The proof fixes the adversary's communication rules (restated in
:class:`Theorem2Adversary` below) and considers, for every candidate
bridge identity ``i``, the execution ``α_i`` in which the adversary
assigns identity ``i`` to the bridge node.  The candidate-set argument
(Claim 3) shows some ``i`` is not isolated for at least ``n − 3`` rounds
— operationally, the *maximum* over ``i`` of the receiver's informing
round exceeds ``n − 3``.

:func:`theorem2_lower_bound` runs that executable version of the
argument: it simulates ``α_i`` for every ``i`` and reports the worst one.
The paper's convention: identity 0 is assigned to the source and identity
``n − 1`` to the receiver (the paper uses ``1`` and ``n``; we are
0-based); the remaining identities fill the clique by a default rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from repro.adversaries.base import Adversary, AdversaryView
from repro.graphs.constructions import CliqueBridgeLayout, clique_bridge
from repro.sim.collision import CollisionRule
from repro.sim.engine import BroadcastEngine, EngineConfig, StartMode
from repro.sim.process import Process
from repro.sim.trace import ExecutionTrace

#: Factory building the n processes of the algorithm under test.
AlgorithmFactory = Callable[[int], Sequence[Process]]

#: Graph kinds that realise the clique-bridge family the theorem is
#: stated on.
THEOREM2_GRAPHS = ("clique-bridge",)

#: Registered algorithms the theorem covers: the deterministic ones
#: (the argument fixes every process's behaviour in advance).
DETERMINISTIC_ALGORITHMS = ("round_robin", "strong_select", "strong_select_ks")


class Theorem2Adversary(Adversary):
    """The proof's communication rules on the clique-bridge network.

    Per round (collisions under CR1):

    1. If two or more processes send, all messages reach all processes
       (everyone observes ``⊤``).
    2. If a single process at a node in ``C − {b}`` sends, its message
       reaches exactly the processes at clique nodes (the receiver hears
       ``⊥``).
    3. If only the bridge process or only the receiver process sends, the
       message reaches all processes.

    The adversary also fixes the ``proc`` mapping: identity 0 at the
    source, identity ``n−1`` at the receiver, the chosen ``bridge_uid``
    at the bridge, and remaining identities at clique nodes in ascending
    node order.
    """

    def __init__(self, layout: CliqueBridgeLayout, bridge_uid: int) -> None:
        n = layout.graph.n
        if not 1 <= bridge_uid <= n - 2:
            raise ValueError(
                f"bridge identity must be in [1, {n - 2}], got {bridge_uid}"
            )
        self.layout = layout
        self.bridge_uid = bridge_uid

    def assign_processes(self, network, uids: Sequence[int]) -> Dict[int, int]:
        layout = self.layout
        n = network.n
        uid_set = sorted(uids)
        if uid_set != list(range(n)):
            raise ValueError("theorem 2 driver expects identities 0..n-1")
        mapping: Dict[int, int] = {
            layout.source: 0,
            layout.receiver: n - 1,
            layout.bridge: self.bridge_uid,
        }
        remaining = [
            u for u in uid_set if u not in (0, n - 1, self.bridge_uid)
        ]
        free_nodes = [
            v
            for v in network.nodes
            if v not in (layout.source, layout.receiver, layout.bridge)
        ]
        for node, uid in zip(free_nodes, remaining):
            mapping[node] = uid
        return mapping

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        layout = self.layout
        network = view.network
        senders = sorted(view.senders)
        if len(senders) >= 2:
            # Rule 1: everything reaches everywhere.
            return {
                v: network.unreliable_only_out(v) for v in senders
            }
        if not senders:
            return {}
        (v,) = senders
        if v == layout.bridge or v == layout.receiver:
            # Rule 3: reaches all processes (reliable edges already cover
            # most of them; add the unreliable remainder).
            return {v: network.unreliable_only_out(v)}
        # Rule 2: a lone clique sender reaches exactly the clique, which
        # its reliable edges already do.  No unreliable deliveries.
        return {}


@dataclass
class Theorem2Result:
    """Outcome of the executable Theorem-2 argument.

    Attributes:
        n: Network size.
        rounds_by_bridge_uid: For each candidate bridge identity, the round
            in which the receiver was informed in ``α_i`` (``None`` when
            the execution hit the cap first).
        worst_bridge_uid: The identity maximising that round.
        worst_rounds: The maximum — the algorithm's worst-case broadcast
            time over this adversary family.
        theorem_bound: ``n − 3``; the theorem asserts
            ``worst_rounds > theorem_bound`` for every deterministic
            algorithm.
    """

    n: int
    rounds_by_bridge_uid: Dict[int, Optional[int]] = field(
        default_factory=dict
    )
    max_rounds_cap: int = 0

    @property
    def worst_bridge_uid(self) -> int:
        def key(item):
            uid, rounds = item
            return (self.max_rounds_cap + 1 if rounds is None else rounds, -uid)

        return max(self.rounds_by_bridge_uid.items(), key=key)[0]

    @property
    def worst_rounds(self) -> int:
        r = self.rounds_by_bridge_uid[self.worst_bridge_uid]
        return self.max_rounds_cap if r is None else r

    @property
    def theorem_bound(self) -> int:
        return self.n - 3

    @property
    def bound_holds(self) -> bool:
        """Whether the measured worst case exceeds ``n − 3``."""
        return self.worst_rounds > self.theorem_bound


def run_alpha_i(
    algorithm_factory: AlgorithmFactory,
    layout: CliqueBridgeLayout,
    bridge_uid: int,
    max_rounds: int,
) -> ExecutionTrace:
    """Run the execution ``α_i`` with identity ``i`` at the bridge."""
    n = layout.graph.n
    processes = algorithm_factory(n)
    adversary = Theorem2Adversary(layout, bridge_uid)
    config = EngineConfig(
        collision_rule=CollisionRule.CR1,
        start_mode=StartMode.SYNCHRONOUS,
        max_rounds=max_rounds,
        seed=0,
    )
    engine = BroadcastEngine(layout.graph, processes, adversary, config)
    return engine.run()


def theorem2_lower_bound(
    algorithm_factory: AlgorithmFactory,
    n: int,
    max_rounds: Optional[int] = None,
) -> Theorem2Result:
    """Run the Theorem-2 argument against a deterministic algorithm.

    Simulates ``α_i`` for every candidate bridge identity
    ``i ∈ {1, …, n−2}`` and reports the receiver's informing round in
    each; the maximum is the algorithm's worst case against this
    (restricted!) adversary family, and Theorem 2 promises it exceeds
    ``n − 3``.

    Args:
        algorithm_factory: Builds the ``n`` deterministic processes, uids
            ``0..n−1``.
        n: Network size (``n ≥ 3``).
        max_rounds: Per-execution cap (default ``8·n + 64``).
    """
    layout = clique_bridge(n)
    if max_rounds is None:
        max_rounds = 8 * n + 64
    result = Theorem2Result(n=n, max_rounds_cap=max_rounds)
    for bridge_uid in range(1, n - 1):
        trace = run_alpha_i(algorithm_factory, layout, bridge_uid, max_rounds)
        result.rounds_by_bridge_uid[bridge_uid] = trace.informed_round[
            layout.receiver
        ]
    return result
