"""The explicit-interference model ``(G_T, G_I)`` (Section 2.2, Appendix A).

Several prior models (e.g. Galčík et al.) describe a network with a
*transmission* graph ``G_T`` and an *interference* graph ``G_I ⊇ G_T``:
interference edges can cause collisions but can never convey a message.
Per the paper's Appendix A, the collision rules carry over with one
modification: all messages sent by ``u`` with ``{u, v} ∈ G_I`` *reach*
``v``, but if ``{u, v} ∈ G_I \\ G_T`` then ``v`` can never *receive*
``u``'s message — if the only message reaching ``v`` came over an
interference-only edge, ``v`` hears ``⊥``.

:func:`interference_outcomes` states one round of the model on its own,
independently of the dual-graph engines.  :class:`InterferenceEngine`
simulates the model directly: it is a
:class:`~repro.sim.engine.BroadcastEngine` whose round skeleton is
unchanged and whose ``_resolve`` takes every node's observation from
:func:`interference_outcomes`.  Lemma 1 shows any dual-graph algorithm
retains its round bound here; the reduction adversary lives in
:mod:`repro.interference.reduction` and is validated by comparing the
two engines observation-for-observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.adversaries.base import AdversaryView
from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule
from repro.sim.engine import BroadcastEngine, EngineConfig, StartMode
from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    SILENCE,
    carries_payload,
    received,
)
from repro.sim.process import Process


@dataclass(frozen=True)
class InterferenceNetwork:
    """An explicit-interference network ``(G_T, G_I)``.

    Reuses :class:`DualGraph` for storage: the reliable edge set plays
    ``G_T`` and the full edge set plays ``G_I``; the semantic difference
    (interference edges cannot convey messages) lives in the engine.
    """

    graph: DualGraph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def source(self) -> int:
        return self.graph.source

    def transmission_out(self, v: int):
        """``G_T`` out-neighbours."""
        return self.graph.reliable_out(v)

    def interference_out(self, v: int):
        """All ``G_I`` out-neighbours (including transmission edges)."""
        return self.graph.all_out(v)

    def as_dual_graph(self) -> DualGraph:
        """The Lemma-1 dual graph: ``G = G_T``, ``G' = G_I``."""
        return self.graph


def interference_outcomes(
    network: InterferenceNetwork,
    senders: Mapping[int, Message],
    collision_rule: CollisionRule,
    cr4_choose_first: bool,
) -> Dict[int, Reception]:
    """What each node observes in one round of the explicit-interference model.

    Semantics (Section 2.2 + Appendix A): *arrivals* at ``v`` are the
    messages of all senders with a ``G_I`` edge to ``v`` (plus ``v``'s
    own if it sends); *receivable* arrivals are those over ``G_T`` edges
    (plus its own).  A collision requires at least one receivable
    arrival; interference-only arrivals on their own are undetectable
    noise, so the node hears ``⊥``.  When a receivable arrival exists,
    interference arrivals count toward the collision threshold but can
    never be received.  Under CR4 the resolver may only pick a
    receivable arrival: ``cr4_choose_first`` picks the lowest-uid one,
    ``False`` resolves to silence.
    """
    arrivals: Dict[int, List[Message]] = {v: [] for v in range(network.n)}
    receivable: Dict[int, List[Message]] = {v: [] for v in range(network.n)}
    for s, msg in senders.items():
        arrivals[s].append(msg)
        receivable[s].append(msg)
        for t in network.interference_out(s):
            arrivals[t].append(msg)
        for t in network.transmission_out(s):
            receivable[t].append(msg)

    outcomes: Dict[int, Reception] = {}
    for v in range(network.n):
        own = senders.get(v)
        if own is not None and collision_rule.sender_hears_own_message:
            outcomes[v] = received(own)
        elif not receivable[v]:
            # No decodable signal: silence, regardless of interference.
            outcomes[v] = SILENCE
        elif own is not None:  # CR1 sender (its own message is receivable)
            outcomes[v] = COLLISION if len(arrivals[v]) >= 2 else received(own)
        elif len(arrivals[v]) == 1:
            outcomes[v] = received(receivable[v][0])  # the lone arrival
        elif collision_rule in (CollisionRule.CR1, CollisionRule.CR2):
            outcomes[v] = COLLISION
        elif collision_rule is CollisionRule.CR3:
            outcomes[v] = SILENCE
        elif cr4_choose_first:  # CR4: silence or one *receivable* message
            outcomes[v] = received(min(receivable[v], key=lambda m: m.sender))
        else:
            outcomes[v] = SILENCE
    return outcomes


class InterferenceEngine(BroadcastEngine):
    """Synchronous-round execution in the explicit-interference model.

    The round skeleton is :class:`~repro.sim.engine.BroadcastEngine`'s;
    only resolution differs: each round's observations come from
    :func:`interference_outcomes` and every node's is recorded.  The
    model is static, so the only adversarial freedom left is the CR4
    resolution; ``cr4_choose_first`` picks the lowest-uid receivable
    message, ``False`` resolves to silence.  ``processes[i]`` runs at
    node ``i``.
    """

    engine_name = "interference"
    counter_names = ()

    def __init__(
        self,
        network: InterferenceNetwork,
        processes: Sequence[Process],
        collision_rule: CollisionRule = CollisionRule.CR4,
        synchronous_start: bool = False,
        max_rounds: int = 1_000_000,
        seed: int = 0,
        cr4_choose_first: bool = False,
    ) -> None:
        super().__init__(
            network.graph,
            processes,
            config=EngineConfig(
                collision_rule=collision_rule,
                start_mode=(
                    StartMode.SYNCHRONOUS
                    if synchronous_start
                    else StartMode.ASYNCHRONOUS
                ),
                max_rounds=max_rounds,
                seed=seed,
                record_receptions=True,
            ),
        )
        self.interference_network = network
        self.cr4_choose_first = cr4_choose_first
        self.trace.network_name = f"interference({network.graph.name})"

    def _resolve(
        self,
        rnd: int,
        senders: Dict[int, Message],
        deliveries: Dict[int, FrozenSet[int]],
        view: AdversaryView,
    ) -> Tuple[Optional[Dict[int, Reception]], List[int], List[int]]:
        receptions = interference_outcomes(
            self.interference_network,
            senders,
            self.config.collision_rule,
            self.cr4_choose_first,
        )
        newly_informed: List[int] = []
        newly_active: List[int] = []
        informed_round = self.trace.informed_round
        for node, reception in receptions.items():
            if node not in self._active:
                if reception.message is None:
                    continue  # sleeping processes observe nothing
                newly_active.append(node)
                self._activate(node)
            self.process_at[node].deliver(self._contexts[node], reception)
            if informed_round[node] is None and carries_payload(reception):
                self._mark_informed(node, rnd)
                newly_informed.append(node)
        return receptions, newly_informed, newly_active
