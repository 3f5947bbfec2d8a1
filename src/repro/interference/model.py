"""The explicit-interference model ``(G_T, G_I)`` (Section 2.2, Appendix A).

Several prior models (e.g. Galčík et al.) describe a network with a
*transmission* graph ``G_T`` and an *interference* graph ``G_I ⊇ G_T``:
interference edges can cause collisions but can never convey a message.
Per the paper's Appendix A, the collision rules carry over with one
modification: all messages sent by ``u`` with ``{u, v} ∈ G_I`` *reach*
``v``, but if ``{u, v} ∈ G_I \\ G_T`` then ``v`` can never *receive*
``u``'s message — if the only message reaching ``v`` came over an
interference-only edge, ``v`` hears ``⊥``.

:class:`InterferenceEngine` simulates this model directly.  Lemma 1 shows
any dual-graph algorithm retains its round bound here; the reduction
adversary lives in :mod:`repro.interference.reduction` and is validated
by comparing the two engines observation-for-observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule
from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    SILENCE,
    carries_payload,
    received,
    source_input,
)
from repro.sim.process import Process, ProcessContext
from repro.sim.trace import ExecutionTrace, RoundRecord


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


class InterferenceEngine:
    """Synchronous-round execution in the explicit-interference model.

    Each round's observations come from :func:`interference_outcomes`.
    The model is static, so the only adversarial freedom left is the CR4
    resolution; ``cr4_choose_first`` picks the lowest-uid receivable
    message, ``False`` resolves to silence.
    """

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
        if len(processes) != network.n:
            raise ValueError("need one process per node")
        self.network = network
        self.collision_rule = collision_rule
        self.synchronous_start = synchronous_start
        self.max_rounds = max_rounds
        self.cr4_choose_first = cr4_choose_first
        self.process_at: Dict[int, Process] = {
            v: p for v, p in zip(range(network.n), processes)
        }
        self._contexts = {
            v: ProcessContext.seeded(seed, p.uid, network.n)
            for v, p in self.process_at.items()
        }
        self._active: set = set()
        self._round = 0
        self.trace = ExecutionTrace(
            network_name=f"interference({network.graph.name})",
            n=network.n,
            proc={v: p.uid for v, p in self.process_at.items()},
            informed_round={v: None for v in range(network.n)},
        )

    def _activate(self, node: int) -> None:
        if node in self._active:
            return
        self._active.add(node)
        self.process_at[node].on_activate(self._contexts[node])

    def run(self) -> ExecutionTrace:
        source = self.network.source
        sp = self.process_at[source]
        sp.on_broadcast_input(source_input(sp.uid))
        self.trace.informed_round[source] = 0
        if self.synchronous_start:
            for v in range(self.network.n):
                self._activate(v)
        else:
            self._activate(source)

        while self._round < self.max_rounds:
            self._round += 1
            rnd = self._round
            senders: Dict[int, Message] = {}
            for v in sorted(self._active):
                ctx = self._contexts[v]
                ctx.round_number = rnd
                msg = self.process_at[v].decide_send(ctx)
                if msg is not None:
                    senders[v] = msg
            for v in range(self.network.n):
                self._contexts[v].round_number = rnd

            receptions = interference_outcomes(
                self.network, senders, self.collision_rule,
                self.cr4_choose_first,
            )
            newly_informed: List[int] = []
            newly_active: List[int] = []
            informed_round = self.trace.informed_round
            for v, rec in receptions.items():
                if v not in self._active:
                    if rec.is_message:
                        newly_active.append(v)
                        self._activate(v)
                    else:
                        continue
                self.process_at[v].deliver(self._contexts[v], rec)
                if informed_round[v] is None and carries_payload(rec):
                    informed_round[v] = rnd
                    newly_informed.append(v)

            self.trace.rounds.append(
                RoundRecord(
                    round_number=rnd,
                    senders=dict(senders),
                    unreliable_deliveries={},
                    newly_informed=tuple(newly_informed),
                    newly_active=tuple(newly_active),
                    receptions=dict(receptions),
                )
            )
            if all(
                r is not None for r in self.trace.informed_round.values()
            ):
                self.trace.completed = True
                break
        return self.trace
