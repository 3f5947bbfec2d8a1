"""Theorem 4: the randomized lower bound on 2-broadcastable networks.

On the Theorem-2 clique-bridge network, against the restricted adversary
class that only chooses the ``proc`` mapping (communication resolved by
the fixed Theorem-2 rules, collisions by CR1), **no** probabilistic
algorithm solves broadcast within ``k`` rounds (``1 ≤ k ≤ n−3``) with
probability greater than ``k/(n−2)``.

The executable version is a Monte-Carlo experiment: for each candidate
bridge identity ``i`` we estimate, over random seeds, the probability that
the receiver is informed within ``k`` rounds of ``α_i``; the adversary
then picks the worst identity, so the algorithm's success probability at
``k`` is ``min_i P̂_i(k)``.  Theorem 4 promises this stays below the
envelope ``k/(n−2)`` (up to sampling error) for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.graphs.constructions import clique_bridge
from repro.lowerbounds.theorem2 import Theorem2Adversary
from repro.sim.collision import CollisionRule
from repro.sim.engine import BroadcastEngine, EngineConfig, StartMode
from repro.sim.process import Process

#: Factory building the n processes from a seed index (the seed selects
#: the algorithm's random choice sequence; the engine derives per-process
#: PRNGs from the engine seed, so factories may ignore the argument).
SeededAlgorithmFactory = Callable[[int], Sequence[Process]]


@dataclass
class Theorem4Result:
    """Outcome of the Monte-Carlo Theorem-4 experiment.

    Attributes:
        n: Network size.
        trials: Seeds per bridge identity.
        informed_rounds: ``informed_rounds[i]`` lists, per trial, the round
            the receiver was informed in ``α_i`` (cap+1 when never).
    """

    n: int
    trials: int
    max_rounds_cap: int
    informed_rounds: Dict[int, List[int]] = field(default_factory=dict)

    def success_probability(self, k: int, bridge_uid: int) -> float:
        """``P̂_i(k)``: fraction of trials informing the receiver by ``k``."""
        rounds = self.informed_rounds[bridge_uid]
        return sum(1 for r in rounds if r <= k) / len(rounds)

    def adversarial_success_probability(self, k: int) -> float:
        """``min_i P̂_i(k)`` — success against the worst proc mapping."""
        return min(
            self.success_probability(k, i) for i in self.informed_rounds
        )

    def envelope(self, k: int) -> float:
        """The theorem's bound ``k/(n−2)``."""
        return k / (self.n - 2)

    def violations(
        self, ks: Sequence[int], slack: float = 0.0
    ) -> List[int]:
        """The ``k`` values where measurement exceeds envelope + slack."""
        return [
            k
            for k in ks
            if self.adversarial_success_probability(k)
            > self.envelope(k) + slack
        ]


def theorem4_experiment(
    algorithm_factory: SeededAlgorithmFactory,
    n: int,
    trials: int = 50,
    max_rounds: Optional[int] = None,
) -> Theorem4Result:
    """Estimate per-``k`` success probabilities under the restricted class.

    Args:
        algorithm_factory: Builds the ``n`` (probabilistic) processes;
            receives the trial index, and each trial also varies the
            engine seed so per-process PRNGs differ.
        n: Network size (``n ≥ 4``).
        trials: Monte-Carlo repetitions per bridge identity.
        max_rounds: Per-execution cap (default ``n``; we only need rounds
            up to ``n − 3``).

    Trial ``t`` against bridge identity ``b`` runs at engine seed
    ``t·7919 + b``.
    """
    if n < 4:
        raise ValueError("theorem 4 experiment needs n >= 4")
    layout = clique_bridge(n)
    if max_rounds is None:
        max_rounds = n
    result = Theorem4Result(
        n=n, trials=trials, max_rounds_cap=max_rounds
    )
    for bridge_uid in range(1, n - 1):
        rounds: List[int] = []
        for trial in range(trials):
            processes = algorithm_factory(trial)
            adversary = Theorem2Adversary(layout, bridge_uid)
            config = EngineConfig(
                collision_rule=CollisionRule.CR1,
                start_mode=StartMode.SYNCHRONOUS,
                max_rounds=max_rounds,
                seed=trial * 7919 + bridge_uid,
            )
            engine = BroadcastEngine(
                layout.graph, processes, adversary, config
            )
            trace = engine.run()
            informed = trace.informed_round[layout.receiver]
            rounds.append(
                informed if informed is not None else max_rounds + 1
            )
        result.informed_rounds[bridge_uid] = rounds
    return result
