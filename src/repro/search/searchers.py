"""The pluggable search strategies over adversary-genome space.

All searchers speak one *ask* protocol so the harness
(:mod:`repro.search.harness`) owns batching, parallel evaluation,
budget accounting, persistence and the best candidate so far:
:meth:`Searcher.ask` returns the next batch of candidate genomes,
drawing all randomness from the harness-supplied rng (which makes the
whole search deterministic for a fixed seed, and lets a resumed run
regenerate the identical candidate sequence).  No searcher reads
scores.

Two strategies, in increasing use of structure:

* :class:`RandomRestartSearch` — i.i.d. samples from the genome space;
  the unbiased baseline every smarter searcher must beat.
* :class:`GreedyLookaheadSearch` — constructs a genome round by round
  against a live population of
  :class:`~repro.lowerbounds.sandbox.SandboxProcess` copies: at each
  round it scores a small set of delivery patterns one round ahead on
  ``clone()``\\ d populations and commits the most stalling one.  Each
  ``ask`` varies the proc assignment (identity, reversal, then random
  permutations) — the identity-placement lever behind Theorem 2.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adversaries.base import AdversaryView
from repro.adversaries.interferers import GreedyInterferer
from repro.core.runner import Registry, make_processes
from repro.experiments.runner import round_cap
from repro.lowerbounds.sandbox import SandboxProcess
from repro.search.evaluate import SearchSettings
from repro.search.genome import GenomeSpace, StrategyGenome
from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.engine import StartMode
from repro.sim.messages import Message, Reception, SILENCE, carries_payload


class Searcher(abc.ABC):
    """Base class for all search strategies (see module docstring)."""

    #: Registry name, set by subclasses.
    kind: str = ""

    def __init__(
        self, space: GenomeSpace, settings: SearchSettings
    ) -> None:
        self.space = space
        self.settings = settings

    @abc.abstractmethod
    def ask(
        self, rng: random.Random, count: int
    ) -> List[StrategyGenome]:
        """Produce the next ``count`` candidates, in evaluation order."""


class RandomRestartSearch(Searcher):
    """Independent uniform samples — the no-structure baseline."""

    kind = "random"

    def ask(
        self, rng: random.Random, count: int
    ) -> List[StrategyGenome]:
        """Sample ``count`` fresh genomes."""
        return [self.space.random(rng) for _ in range(count)]


class GreedyLookaheadSearch(Searcher):
    """Round-by-round greedy construction with one-round lookahead.

    For each round the searcher knows the exact sender set (it drives a
    sandbox copy of every process), enumerates a small candidate set of
    delivery patterns — no deliveries, the
    :class:`~repro.adversaries.interferers.GreedyInterferer` collision
    pattern, full delivery, plus a few random patterns — and scores each
    by cloning the whole population, applying the pattern's receptions,
    and measuring (nodes informed now, nodes the algorithm would inform
    next round if the adversary then stays quiet, nodes woken).  The
    lexicographically most stalling pattern is committed and becomes the
    genome's delivery gene for that round.

    The sandbox population is seeded with the cell's engine seed
    (``settings.derived_seed``), so each copy has the evaluation
    engine's per-process RNG stream, and every ``decide_send`` is
    consulted exactly once per round on the authoritative copies
    (scoring only queries clones), so the constructed genome's lookahead
    simulation matches its engine evaluation even for randomized
    algorithms.
    """

    kind = "greedy"

    #: Extra rng-drawn delivery patterns scored per round, on top of the
    #: three structured candidates.
    RANDOM_PATTERNS = 2

    def __init__(self, space: GenomeSpace, settings: SearchSettings) -> None:
        super().__init__(space, settings)
        self._plan = 0  # proc-assignment plan counter across asks
        self._interferer = GreedyInterferer()

    # ------------------------------------------------------------------
    # Ask
    # ------------------------------------------------------------------
    def _next_proc(self, rng: random.Random) -> Tuple[int, ...]:
        n = self.space.graph.n
        plan, self._plan = self._plan, self._plan + 1
        if plan == 0 or not self.space.search_proc:
            return tuple(range(n))
        if plan == 1:
            return tuple(reversed(range(n)))
        uids = list(range(n))
        rng.shuffle(uids)
        return tuple(uids)

    def ask(
        self, rng: random.Random, count: int
    ) -> List[StrategyGenome]:
        """Construct ``count`` genomes, one per proc-assignment plan."""
        return [
            self._construct(self._next_proc(rng), rng)
            for _ in range(count)
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _construct(
        self, proc: Tuple[int, ...], rng: random.Random
    ) -> StrategyGenome:
        graph = self.space.graph
        settings = self.settings
        n = graph.n
        cap = min(round_cap(settings, graph), self.space.horizon)
        rule = CollisionRule[settings.collision_rule]

        processes = make_processes(
            settings.algorithm, n, **dict(settings.algorithm_params)
        )
        by_uid = {p.uid: p for p in processes}
        eseed = settings.derived_seed
        sandboxes = {
            node: SandboxProcess(by_uid[proc[node]], n, eseed)
            for node in graph.nodes
        }

        source = graph.source
        sandboxes[source].give_broadcast_input()
        informed = {source}
        active: set = set()
        if StartMode(settings.start_mode) is StartMode.SYNCHRONOUS:
            for node in graph.nodes:
                sandboxes[node].activate(0)
                active.add(node)
        else:
            sandboxes[source].activate(0)
            active.add(source)

        script: Dict[int, Dict[int, FrozenSet[int]]] = {}
        for rnd in range(1, cap + 1):
            senders: Dict[int, Message] = {}
            for node in sorted(active):
                msg = sandboxes[node].would_send(rnd)
                if msg is not None:
                    senders[node] = msg
            chosen = self._choose_pattern(
                rnd, senders, sandboxes, informed, active, rule, rng
            )
            if chosen:
                script[rnd] = chosen
            receptions = _resolve_round(graph, senders, chosen, rule)
            _commit_round(
                rnd, receptions, sandboxes, informed, active
            )
            if len(informed) == n:
                break
        return StrategyGenome(
            horizon=self.space.horizon,
            deliveries=script,
            proc=proc,
        )

    def _choose_pattern(
        self,
        rnd: int,
        senders: Dict[int, Message],
        sandboxes: Dict[int, SandboxProcess],
        informed: set,
        active: set,
        rule: CollisionRule,
        rng: random.Random,
    ) -> Dict[int, FrozenSet[int]]:
        graph = self.space.graph
        view = AdversaryView(
            round_number=rnd,
            network=graph,
            topology=self.space.topology,
            senders=senders,
            informed=frozenset(informed),
        )
        candidates = [
            {},
            self._interferer.choose_deliveries(view),
            {
                s: graph.unreliable_only_out(s)
                for s in senders
                if graph.unreliable_only_out(s)
            },
        ]
        for _ in range(self.RANDOM_PATTERNS if senders else 0):
            candidates.append(_random_pattern(graph, senders, rng))
        best_score: Optional[Tuple[int, int, int]] = None
        best: Dict[int, FrozenSet[int]] = {}
        for pattern in candidates:
            score = self._lookahead_score(
                rnd, senders, pattern, sandboxes, informed, active, rule
            )
            if best_score is None or score < best_score:
                best_score, best = score, pattern
        return best

    def _lookahead_score(
        self,
        rnd: int,
        senders: Dict[int, Message],
        pattern: Dict[int, FrozenSet[int]],
        sandboxes: Dict[int, SandboxProcess],
        informed: set,
        active: set,
        rule: CollisionRule,
    ) -> Tuple[int, int, int]:
        """(informed now, informed next round if quiet, woken) — min wins."""
        graph = self.space.graph
        receptions = _resolve_round(graph, senders, pattern, rule)
        clones = {node: sb.clone() for node, sb in sandboxes.items()}
        informed_after = set(informed)
        active_after = set(active)
        _commit_round(
            rnd, receptions, clones, informed_after, active_after
        )
        new_informed = len(informed_after) - len(informed)
        new_active = len(active_after) - len(active)
        # One round ahead: what would the algorithm achieve in rnd+1 if
        # the adversary then withholds every unreliable delivery?
        next_senders: Dict[int, Message] = {}
        for node in sorted(active_after):
            msg = clones[node].would_send(rnd + 1)
            if msg is not None:
                next_senders[node] = msg
        next_receptions = _resolve_round(graph, next_senders, {}, rule)
        threat = sum(
            1
            for node, rec in next_receptions.items()
            if node not in informed_after and carries_payload(rec)
        )
        return (new_informed, threat, new_active)


# ----------------------------------------------------------------------
# Round mechanics shared by construction and scoring
# ----------------------------------------------------------------------
def _resolve_round(
    graph,
    senders: Dict[int, Message],
    deliveries: Dict[int, FrozenSet[int]],
    rule: CollisionRule,
) -> Dict[int, Reception]:
    """Per-node receptions for one round, mirroring the engine's phases.

    Nodes the round does not touch (no arrivals) are omitted; callers
    treat them as silence, exactly like the engine's fast path.
    """
    arrivals: Dict[int, List[Message]] = {}
    setdefault = arrivals.setdefault
    for sender, msg in senders.items():
        setdefault(sender, []).append(msg)
        for target in graph.reliable_out(sender):
            setdefault(target, []).append(msg)
        for target in deliveries.get(sender, ()):
            setdefault(target, []).append(msg)
    return {
        node: resolve_reception(
            rule,
            node,
            node in senders,
            senders.get(node),
            msgs,
            cr4_resolver=None,
        )
        for node, msgs in arrivals.items()
    }


def _commit_round(
    rnd: int,
    receptions: Dict[int, Reception],
    sandboxes: Dict[int, SandboxProcess],
    informed: set,
    active: set,
) -> None:
    """Deliver one round's outcome to a sandbox population in place.

    Mirrors the engine's phase 4: active nodes the round did not reach
    observe silence, sleeping nodes wake only on a message reception
    (activation delivered before the message), and payload custody
    transfers through :meth:`~repro.sim.process.Process.deliver`, as in
    the engines.
    """
    touched = sorted(set(receptions) | active)
    for node in touched:
        reception = receptions.get(node, SILENCE)
        if node not in active:
            if not reception.is_message:
                continue  # sleeping processes observe nothing
            sandboxes[node].activate(rnd)
            active.add(node)
        sandboxes[node].feed(rnd, reception)
        if node not in informed and sandboxes[node].informed:
            informed.add(node)


def _random_pattern(
    graph, senders: Dict[int, Message], rng: random.Random
) -> Dict[int, FrozenSet[int]]:
    """An rng-drawn legal delivery pattern over the actual senders."""
    chosen: Dict[int, FrozenSet[int]] = {}
    for s in sorted(senders):
        targets = sorted(graph.unreliable_only_out(s))
        if not targets:
            continue
        picked = frozenset(t for t in targets if rng.random() < 0.5)
        if picked:
            chosen[s] = picked
    return chosen


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Searcher factories take ``(space, settings, **params)``.
SEARCHERS: Registry[Searcher] = Registry(
    "searcher kind",
    {
        RandomRestartSearch.kind: (
            RandomRestartSearch,
            "independent random genomes (restart baseline)",
        ),
        GreedyLookaheadSearch.kind: (
            GreedyLookaheadSearch,
            "round-by-round construction, sandbox-clone lookahead",
        ),
    },
)

# The registry's methods under their public names.
searcher_kinds = SEARCHERS.names
searcher_descriptions = SEARCHERS.descriptions
register_searcher = SEARCHERS.register
build_searcher = SEARCHERS.build
