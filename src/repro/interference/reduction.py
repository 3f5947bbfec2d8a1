"""The Lemma-1 reduction: dual graphs simulate explicit interference.

Lemma 1 states that any algorithm broadcasting in ``T(n)`` rounds on all
dual graphs also broadcasts in ``T(n)`` rounds on all explicit-
interference graphs (under the corresponding collision rule).  The proof
(Appendix A) exhibits, for each explicit-interference behaviour, a
dual-graph adversary producing *identical observations at every node*.

:class:`InterferenceSimulationAdversary` is that adversary, for the dual
graph ``G = G_T``, ``G' = G_I``.  Each round it recomputes what the
explicit-interference model would deliver, then:

* schedules an unreliable edge ``(v, u)`` exactly when ``v`` sends, ``u``
  has at least one receivable (transmission-edge or own) arrival, and
  ``u`` does **not** receive a message in the interference model — so
  ``u``'s observation is forced to the same collision/silence outcome;
* resolves CR4 collisions to the interference model's choice.

:func:`run_equivalence_check` executes an algorithm in both engines with
identical seeds and compares the traces observation-for-observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adversaries.base import Adversary, AdversaryView
from repro.interference.model import (
    InterferenceEngine,
    InterferenceNetwork,
    interference_outcomes,
)
from repro.sim.collision import CollisionRule
from repro.sim.engine import BroadcastEngine, EngineConfig, StartMode
from repro.sim.messages import Message, Reception, ReceptionKind
from repro.sim.trace import ExecutionTrace


class InterferenceSimulationAdversary(Adversary):
    """Make a dual-graph execution mimic the explicit-interference model.

    Args:
        network: The interference network being simulated (its graph *is*
            the dual graph the engine runs on).
        collision_rule: Must match the engine's rule.
        cr4_choose_first: The interference model's CR4 policy being
            simulated (must match the reference
            :class:`~repro.interference.model.InterferenceEngine`).
    """

    def __init__(
        self,
        network: InterferenceNetwork,
        collision_rule: CollisionRule = CollisionRule.CR4,
        cr4_choose_first: bool = False,
    ) -> None:
        self.network = network
        self.collision_rule = collision_rule
        self.cr4_choose_first = cr4_choose_first
        self._round_plan: Dict[int, Reception] = {}
        self._plan_round = -1

    # ------------------------------------------------------------------
    # Adversary interface
    # ------------------------------------------------------------------
    def _plan(self, view: AdversaryView) -> Dict[int, Reception]:
        if view.round_number != self._plan_round:
            self._round_plan = interference_outcomes(
                self.network, view.senders, self.collision_rule,
                self.cr4_choose_first,
            )
            self._plan_round = view.round_number
        return self._round_plan

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        net = view.network
        outcomes = self._plan(view)
        senders = sorted(view.senders)

        # Receivable arrival counts in the dual graph come from reliable
        # edges (plus own); a node whose interference outcome is NOT a
        # message reception but who has such an arrival must be flooded
        # with unreliable deliveries so the collision/silence outcome is
        # reproducible.
        has_receivable: Dict[int, bool] = {v: False for v in net.nodes}
        for s in senders:
            has_receivable[s] = True
            for t in net.reliable_out(s):
                has_receivable[t] = True

        chosen: Dict[int, set] = {}
        for u in net.nodes:
            if not has_receivable[u]:
                continue
            if outcomes[u].kind is ReceptionKind.MESSAGE and u not in senders:
                continue  # rule: do not disturb receivers
            if u in senders and self.collision_rule.sender_hears_own_message:
                continue  # sender observation is forced anyway
            if u in senders and outcomes[u].kind is not ReceptionKind.COLLISION:
                continue  # CR1 sender hearing its own message: no flood
            # Flood u from every sender holding an interference-only edge.
            for v in senders:
                if u in net.unreliable_only_out(v):
                    chosen.setdefault(v, set()).add(u)
        return {v: frozenset(ts) for v, ts in chosen.items()}

    def resolve_cr4(
        self, view: AdversaryView, node: int, arrivals: List[Message]
    ) -> Optional[Message]:
        outcome = self._plan(view)[node]
        if outcome.kind is ReceptionKind.MESSAGE:
            return outcome.message
        return None


@dataclass
class EquivalenceReport:
    """Result of running one algorithm in both models.

    Attributes:
        interference_trace: The reference explicit-interference execution.
        dual_trace: The simulated dual-graph execution.
        first_divergence: ``(round, node)`` of the first differing
            observation, or ``None`` when the traces agree everywhere.
    """

    interference_trace: ExecutionTrace
    dual_trace: ExecutionTrace
    first_divergence: Optional[Tuple[int, int]]

    @property
    def equivalent(self) -> bool:
        return self.first_divergence is None


def _receptions_equal(a: Reception, b: Reception) -> bool:
    if a.kind is not b.kind:
        return False
    if a.kind is not ReceptionKind.MESSAGE:
        return True
    assert a.message is not None and b.message is not None
    return (
        a.message.payload == b.message.payload
        and a.message.sender == b.message.sender
    )


def run_equivalence_check(
    network: InterferenceNetwork,
    process_factory,
    collision_rule: CollisionRule = CollisionRule.CR4,
    synchronous_start: bool = False,
    max_rounds: int = 10_000,
    seed: int = 0,
    cr4_choose_first: bool = False,
) -> EquivalenceReport:
    """Run an algorithm in both models and compare observations.

    Args:
        network: The explicit-interference network.
        process_factory: ``factory(n) -> processes`` building identical
            automata for both runs (seeding is handled by the engines and
            matches across them).
        collision_rule: Rule for both engines.
        synchronous_start: Start mode for both engines.
        max_rounds: Cap for both engines.
        seed: Shared engine seed.
        cr4_choose_first: CR4 policy of the interference model.
    """
    n = network.n
    ref_engine = InterferenceEngine(
        network,
        process_factory(n),
        collision_rule=collision_rule,
        synchronous_start=synchronous_start,
        max_rounds=max_rounds,
        seed=seed,
        cr4_choose_first=cr4_choose_first,
    )
    ref_trace = ref_engine.run()

    adversary = InterferenceSimulationAdversary(
        network,
        collision_rule=collision_rule,
        cr4_choose_first=cr4_choose_first,
    )
    config = EngineConfig(
        collision_rule=collision_rule,
        start_mode=(
            StartMode.SYNCHRONOUS
            if synchronous_start
            else StartMode.ASYNCHRONOUS
        ),
        max_rounds=max_rounds,
        seed=seed,
        record_receptions=True,
    )
    dual_engine = BroadcastEngine(
        network.as_dual_graph(), process_factory(n), adversary, config
    )
    dual_trace = dual_engine.run()

    first_divergence: Optional[Tuple[int, int]] = None
    for ref_rec, dual_rec in zip(ref_trace.rounds, dual_trace.rounds):
        assert ref_rec.receptions is not None
        assert dual_rec.receptions is not None
        for v in range(n):
            if not _receptions_equal(
                ref_rec.receptions[v], dual_rec.receptions[v]
            ):
                first_divergence = (ref_rec.round_number, v)
                break
        if first_divergence:
            break
    if first_divergence is None and len(ref_trace.rounds) != len(
        dual_trace.rounds
    ):
        first_divergence = (
            min(len(ref_trace.rounds), len(dual_trace.rounds)) + 1,
            -1,
        )
    return EquivalenceReport(
        interference_trace=ref_trace,
        dual_trace=dual_trace,
        first_divergence=first_divergence,
    )
