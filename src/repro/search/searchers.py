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
* :class:`GreedyLookaheadSearch` — constructs a genome by one engine
  run on the cell whose adversary, at each round, resolves a small set
  of delivery patterns on forks of that engine and commits the one
  that informs the fewest nodes.  Each ``ask`` varies the proc
  assignment (identity, reversal, then random permutations) — the
  identity-placement lever behind Theorem 2.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.adversaries.base import (
    Adversary, AdversaryView, FixedAssignmentAdversary,
)
from repro.adversaries.interferers import GreedyInterferer
from repro.core.runner import Registry
from repro.experiments.runner import cell_engine, round_cap
from repro.obs.telemetry import NULL_TELEMETRY, use
from repro.search.evaluate import SEARCH_ENGINE, SearchSettings
from repro.search.genome import GenomeSpace, StrategyGenome
from repro.sim.engine import BroadcastEngine
from repro.sim.messages import Message


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
    """Round-by-round greedy construction, scored on engine forks.

    A candidate is built by one engine run on the cell
    (:func:`~repro.experiments.runner.cell_engine` on
    :data:`~repro.search.evaluate.SEARCH_ENGINE`, with the cell's seed
    and round cap), whose adversary is :class:`_Lookahead`: each
    round it sees the actual senders, enumerates a small candidate set
    of delivery patterns — no deliveries, the
    :class:`~repro.adversaries.interferers.GreedyInterferer` collision
    pattern, full delivery, plus a few random patterns — and scores each
    by the nodes it informs when a
    :meth:`~repro.sim.engine.BroadcastEngine.fork` of the run resolves
    the round under it.  The pattern that informs the fewest (the first
    among equals) is the round's delivery, and the run's recorded
    deliveries are the genome's delivery genes.

    Construction and evaluation execute the same rounds with the same
    per-process RNG streams, and scoring only steps forks, so a
    constructed genome's evaluation replays its construction run even
    for randomized algorithms.  The construction run reports no
    telemetry: the sink's ``engine.*`` counters describe scored
    candidates only.
    """

    kind = "greedy"

    #: Extra rng-drawn delivery patterns scored per round, on top of the
    #: three structured candidates.
    RANDOM_PATTERNS = 2

    def __init__(self, space: GenomeSpace, settings: SearchSettings) -> None:
        super().__init__(space, settings)
        self._plan = 0  # proc-assignment plan counter across asks

    # ------------------------------------------------------------------
    # Ask
    # ------------------------------------------------------------------
    def _next_proc(self, rng: random.Random) -> Tuple[int, ...]:
        n = self.space.graph.n
        plan, self._plan = self._plan, self._plan + 1
        if plan == 0:
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

    def _construct(
        self, proc: Tuple[int, ...], rng: random.Random
    ) -> StrategyGenome:
        space, settings = self.space, self.settings
        cap = min(round_cap(settings, space.graph), space.horizon)
        lookahead = _Lookahead(rng)
        with use(NULL_TELEMETRY):
            engine = cell_engine(
                settings,
                space.topology,
                FixedAssignmentAdversary(dict(enumerate(proc)), lookahead),
                cap,
                engine=SEARCH_ENGINE,
            )
        lookahead.engine = engine
        trace = engine.run()
        return StrategyGenome(
            horizon=space.horizon,
            deliveries={
                r.round_number: r.unreliable_deliveries for r in trace.rounds
            },
            proc=proc,
        )


class _Lookahead(Adversary):
    """The construction run's adversary (see
    :class:`GreedyLookaheadSearch`); ``engine`` is the run that consults
    it.  CR4 collisions resolve to silence (the base resolver)."""

    def __init__(self, rng: random.Random) -> None:
        self.engine: Optional[BroadcastEngine] = None
        self._rng = rng
        self._interferer = GreedyInterferer()

    def choose_deliveries(
        self, view: AdversaryView
    ) -> Dict[int, FrozenSet[int]]:
        graph, senders = view.network, view.senders
        candidates: List[Dict[int, FrozenSet[int]]] = [
            {},
            self._interferer.choose_deliveries(view),
            {
                s: graph.unreliable_only_out(s)
                for s in senders
                if graph.unreliable_only_out(s)
            },
        ]
        extra = GreedyLookaheadSearch.RANDOM_PATTERNS if senders else 0
        for _ in range(extra):
            candidates.append(_random_pattern(graph, senders, self._rng))
        return min(candidates, key=lambda p: self._score(view, p))

    def _score(
        self, view: AdversaryView, pattern: Dict[int, FrozenSet[int]]
    ) -> Tuple[int]:
        """(nodes the pattern informs this round,) — min wins."""
        assert self.engine is not None
        fork = self.engine.fork()
        _, informed, _ = fork._resolve(
            view.round_number, view.senders, pattern, view
        )
        return (len(informed),)


def _random_pattern(
    graph, senders: Mapping[int, Message], rng: random.Random
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
            "round-by-round lookahead: each round commits the delivery "
            "pattern that informs the fewest nodes on an engine fork",
        ),
    },
)

# The registry's methods under their public names.
searcher_kinds = SEARCHERS.names
searcher_descriptions = SEARCHERS.descriptions
register_searcher = SEARCHERS.register
build_searcher = SEARCHERS.build
