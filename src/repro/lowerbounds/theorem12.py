"""Theorem 12: the ``Ω(n log n)`` lower bound for undirected networks.

The network is :func:`~repro.graphs.constructions.layered_pairs`: a
complete layered graph with two nodes per layer and a complete ``G'``.
The proof builds an adversarial execution in stages.  Stage ``k+1``
assigns two process identities to layer ``L_{k+1}`` and extends the
execution; a candidate-set argument (Claim 13) guarantees the stage lasts
at least ``log(n−1) − 2`` rounds, and there are ``(n−1)/4`` stages, giving
``Ω(n log n)`` total.

This module is the *executable* version of that argument, driven against
a concrete deterministic algorithm.  Per stage it maintains, for every
unassigned identity, two sandboxed automaton copies:

* the **assigned** copy — the identity's state if the stage's round-0
  message had reached it (it is one of the layer's two nodes), and
* the **unassigned** copy — its state if not.

Part 2 of the proof's invariant ``P(ℓ)`` guarantees the observations fed
to each copy are independent of which pair is eventually chosen, so one
copy per perspective suffices.  Each round the driver computes

* ``S`` — candidates that would send if assigned,
* ``N`` — candidates that would send if unassigned,
* background senders (previously removed identities and ``A_k`` members),

applies the proof's Case I/II/III shrinkage to the candidate set, feeds
everyone the case-determined observation (``⊤`` / ``⊥`` / the lone
message delivered per the adversary rules), and repeats until two
candidates remain.  The chosen pair's assigned copies become canonical;
the stage then continues under the adversary rules until one of the pair
is *about to be isolated* (would next send alone), which seeds the next
stage's round 0.

Collision rule CR1, synchronous start — the strongest setting, as in the
paper, which makes the lower bound strongest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.lowerbounds.sandbox import SandboxProcess
from repro.sim.messages import COLLISION, SILENCE, Message, Reception, received
from repro.sim.process import Process

#: Factory building the n deterministic processes of the algorithm.
AlgorithmFactory = Callable[[int], Sequence[Process]]


class ConstructionError(RuntimeError):
    """Raised when the construction cannot proceed (e.g. the algorithm
    never isolates the required process within the cap — which itself
    means the algorithm failed to broadcast)."""


@dataclass(frozen=True)
class StageRecord:
    """One stage of the construction.

    Attributes:
        index: 1-based stage number (stage 0 is the preamble ``α_0``).
        pair: The two identities assigned to this stage's layer.
        construction_rounds: Rounds spent in the candidate-set phase (the
            proof guarantees ``≥ log₂(n−1) − 2`` while enough candidates
            remain).
        continuation_rounds: Rounds from pair choice until one of the pair
            was about to be isolated.
        start_round: Global round at which the stage's round 0 happened.
    """

    index: int
    pair: Tuple[int, int]
    construction_rounds: int
    continuation_rounds: int
    start_round: int

    @property
    def total_rounds(self) -> int:
        """Rounds contributed by the stage (including its round 0)."""
        return 1 + self.construction_rounds + self.continuation_rounds


@dataclass
class Theorem12Result:
    """Outcome of the executable Theorem-12 construction.

    Attributes:
        n: Number of identities (and nodes).
        preamble_rounds: Length of ``α_0``.
        stages: Per-stage records.
        total_rounds: Length of the constructed execution during which at
            least one process is missing the message.
        informed: Identities holding the payload at the end.
    """

    n: int
    preamble_rounds: int
    stages: List[StageRecord] = field(default_factory=list)
    total_rounds: int = 0
    informed: Set[int] = field(default_factory=set)

    @property
    def paper_stage_guarantee(self) -> float:
        """The per-stage round guarantee ``log₂(n−1) − 2``."""
        return math.log2(self.n - 1) - 2

    @property
    def paper_total_guarantee(self) -> float:
        """The headline ``Ω(n log n)`` witness: ``(n−1)/4`` stages of
        ``log₂(n−1) − 2`` rounds each."""
        return max(0.0, (self.n - 1) / 4 * self.paper_stage_guarantee)

    @property
    def min_early_stage_rounds(self) -> Optional[int]:
        """Fewest construction rounds among the first ``(n−1)/4`` stages."""
        limit = max(1, (self.n - 1) // 4)
        early = self.stages[:limit]
        if not early:
            return None
        return min(s.construction_rounds for s in early)


class _Theorem12Driver:
    """Internal state machine executing the construction."""

    def __init__(
        self,
        algorithm_factory: AlgorithmFactory,
        n: int,
        stage_cap: int,
        max_stages: Optional[int],
    ) -> None:
        if n < 5 or (n - 1) & (n - 2):
            # The paper assumes n-1 is a power of two >= 4; we accept any
            # n >= 5 but note the guarantee is cleanest at those sizes.
            pass
        if n < 5:
            raise ValueError("theorem 12 construction needs n >= 5")
        processes = list(algorithm_factory(n))
        if sorted(p.uid for p in processes) != list(range(n)):
            raise ValueError("factory must produce uids 0..n-1")
        self.n = n
        self.stage_cap = stage_cap
        self.max_stages = max_stages
        # Canonical sandbox per identity; synchronous start.
        self.sandbox: Dict[int, SandboxProcess] = {
            p.uid: SandboxProcess(p, n) for p in processes
        }
        for sb in self.sandbox.values():
            sb.activate(0)
        self.sandbox[0].give_broadcast_input()
        self.assigned_ids: List[int] = [0]  # A_k (source id = 0)
        self.round = 0
        self.result = Theorem12Result(n=n, preamble_rounds=0, informed={0})

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _query_all(
        self, uids: Sequence[int], rnd: int
    ) -> Dict[int, Message]:
        out: Dict[int, Message] = {}
        for uid in uids:
            msg = self.sandbox[uid].would_send(rnd)
            if msg is not None:
                out[uid] = msg
        return out

    def _feed_all(self, rnd: int, reception: Reception, extra=()) -> None:
        for sb in self.sandbox.values():
            sb.feed(rnd, reception)
        for sb in extra:
            sb.feed(rnd, reception)

    # ------------------------------------------------------------------
    # Stage 0: the preamble α₀
    # ------------------------------------------------------------------
    def run_preamble(self) -> None:
        """All ``G'`` edges used every round, until the source is about to
        be isolated (would send alone next round)."""
        everyone = sorted(self.sandbox)
        while True:
            rnd = self.round + 1
            senders = self._query_all(everyone, rnd)
            if set(senders) == {0}:
                break  # source about to be isolated: α₀ ends here
            if rnd > self.stage_cap:
                raise ConstructionError(
                    f"source never about to be isolated within "
                    f"{self.stage_cap} rounds; the algorithm cannot "
                    f"broadcast on this network at all"
                )
            self.round = rnd
            if not senders:
                self._feed_all(rnd, SILENCE)
            elif len(senders) == 1:
                (msg,) = senders.values()
                self._feed_all(rnd, received(msg))
            else:
                self._feed_all(rnd, COLLISION)
        self.result.preamble_rounds = self.round

    # ------------------------------------------------------------------
    # One stage
    # ------------------------------------------------------------------
    def run_stage(self, stage_index: int) -> bool:
        """Execute stage ``stage_index``; returns False when no further
        stage is possible (fewer than two unassigned identities)."""
        candidates = sorted(set(range(self.n)) - set(self.assigned_ids))
        if len(candidates) < 2:
            return False
        unassigned_ids = list(candidates)

        # --- Round 0: the pending lone A_k sender transmits; the message
        # reaches exactly A_k ∪ {i, i'}.
        rnd0 = self.round + 1
        senders = self._query_all(sorted(self.sandbox), rnd0)
        if len(senders) != 1 or next(iter(senders)) not in self.assigned_ids:
            raise ConstructionError(
                f"stage {stage_index}: expected a lone A_k sender at its "
                f"round 0, got senders {sorted(senders)}"
            )
        (j0, msg0) = next(iter(senders.items()))
        self.round = rnd0
        start_round = rnd0

        assigned_copies: Dict[int, SandboxProcess] = {
            i: self.sandbox[i].clone() for i in candidates
        }
        for copy_ in assigned_copies.values():
            copy_.feed(rnd0, received(msg0))  # assigned: informed in round 0
        for uid in unassigned_ids:
            self.sandbox[uid].feed(rnd0, SILENCE)  # unassigned: hears ⊥
        for a in self.assigned_ids:
            self.sandbox[a].feed(rnd0, received(msg0))

        # --- Candidate-set construction phase.
        C: Set[int] = set(candidates)
        construction_rounds = 0
        while len(C) > 2 and construction_rounds < self.stage_cap:
            rnd = self.round + 1
            a_send = self._query_all(self.assigned_ids, rnd)
            u_send = self._query_all(unassigned_ids, rnd)
            s_send = {
                i: m
                for i in sorted(C)
                if (m := assigned_copies[i].would_send(rnd)) is not None
            }
            N = set(u_send) & C
            background = set(u_send) - C

            if len(N) >= 2:
                # Case I: two unassigned candidates will send; keep them
                # unassigned, forcing a collision everyone observes.
                removed = sorted(N)[:2]
                C_next = C - set(removed)
                outcome, ak_only = COLLISION, False
            elif len(s_send) >= len(C) / 2:
                # Case II: at least half would send if assigned; keep only
                # those, so the eventual pair collides with itself.
                C_next = set(s_send)
                outcome, ak_only = COLLISION, False
            else:
                # Case III: survivors send in neither perspective.
                C_next = C - set(s_send) - N
                actual = dict(a_send)
                for uid in background | N:
                    actual[uid] = u_send[uid]
                if not actual:
                    outcome, ak_only = SILENCE, False
                elif len(actual) >= 2:
                    outcome, ak_only = COLLISION, False
                else:
                    (lone_uid, lone_msg) = next(iter(actual.items()))
                    outcome = received(lone_msg)
                    ak_only = lone_uid in self.assigned_ids

            if len(C_next) < 2:
                break  # do not commit this round; choose the pair now

            # Commit the round.
            self.round = rnd
            construction_rounds += 1
            C = C_next
            for i in list(assigned_copies):
                if i not in C:
                    del assigned_copies[i]

            if ak_only:  # a lone A_k message reaches exactly A_k ∪ {i, i'}
                for a in self.assigned_ids:
                    self.sandbox[a].feed(rnd, outcome)
                for uid in unassigned_ids:
                    self.sandbox[uid].feed(rnd, SILENCE)
                for copy_ in assigned_copies.values():
                    copy_.feed(rnd, outcome)
            else:
                self._feed_all(rnd, outcome, extra=assigned_copies.values())

        # --- Choose the pair and make its assigned copies canonical.
        pair = tuple(sorted(C)[:2])
        for uid in pair:
            self.sandbox[uid] = assigned_copies[uid]
        self.result.informed.update(pair)
        pair_set = set(pair)
        a_union_pair = set(self.assigned_ids) | pair_set

        # --- Continuation: adversary rules until one of the pair is about
        # to be isolated.
        continuation = 0
        everyone = sorted(self.sandbox)
        while True:
            rnd = self.round + 1
            senders = self._query_all(everyone, rnd)
            if len(senders) == 1 and next(iter(senders)) in pair_set:
                break  # about to be isolated: stage ends, next round 0
            if continuation >= self.stage_cap:
                raise ConstructionError(
                    f"stage {stage_index}: neither of pair {pair} about to "
                    f"be isolated within {self.stage_cap} rounds; the "
                    f"algorithm never informs the next layer"
                )
            self.round = rnd
            continuation += 1
            if not senders:
                self._feed_all(rnd, SILENCE)
            elif len(senders) >= 2:
                self._feed_all(rnd, COLLISION)
            else:
                (lone_uid, lone_msg) = next(iter(senders.items()))
                if lone_uid in self.assigned_ids:
                    # Rule 2: reaches exactly A_k ∪ {i, i'}.
                    for uid in everyone:
                        self.sandbox[uid].feed(
                            rnd,
                            received(lone_msg)
                            if uid in a_union_pair
                            else SILENCE,
                        )
                else:
                    # Rule 3: a lone unassigned sender reaches everyone.
                    self._feed_all(rnd, received(lone_msg))

        self.assigned_ids.extend(pair)
        self.result.stages.append(
            StageRecord(
                index=stage_index,
                pair=pair,  # type: ignore[arg-type]
                construction_rounds=construction_rounds,
                continuation_rounds=continuation,
                start_round=start_round,
            )
        )
        return True

    def run(self) -> Theorem12Result:
        self.run_preamble()
        stage = 1
        while self.max_stages is None or stage <= self.max_stages:
            # Keep at least one identity forever uninformed so every
            # constructed round is certified "broadcast incomplete".
            if len(self.assigned_ids) + 2 >= self.n:
                break
            if not self.run_stage(stage):
                break
            stage += 1
        self.result.total_rounds = self.round
        return self.result


def theorem12_construction(
    algorithm_factory: AlgorithmFactory,
    n: int,
    stage_cap: int = 0,
    max_stages: Optional[int] = None,
) -> Theorem12Result:
    """Run the Theorem-12 adversarial construction against an algorithm.

    Args:
        algorithm_factory: Builds ``n`` *deterministic* processes with
            uids ``0..n−1`` (randomized automata are outside the theorem's
            scope and break the construction's determinism assumption).
        n: Number of identities; the paper's layered-pairs network has the
            same count of nodes (odd ``n``, and the per-stage guarantee is
            cleanest when ``n − 1`` is a power of two).
        stage_cap: Safety cap on rounds per phase (default ``8n + 64``).
        max_stages: Stop after this many stages (default: run until fewer
            than two unassigned identities remain).

    Returns:
        The constructed execution's statistics; ``total_rounds`` is a
        certified number of rounds during which broadcast was incomplete.
    """
    if stage_cap <= 0:
        stage_cap = 8 * n + 64
    driver = _Theorem12Driver(algorithm_factory, n, stage_cap, max_stages)
    return driver.run()
