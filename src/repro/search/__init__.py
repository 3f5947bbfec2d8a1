"""Empirical worst-case adversary search.

The paper's lower bounds *construct* bad adversaries by hand; this
subsystem *finds* them: it searches the adversary strategy space —
per-round unreliable deliveries, the ``proc`` assignment, CR4
resolutions, all encoded as a replayable
:class:`~repro.search.genome.StrategyGenome` — for strategies that
maximise broadcast stall against a fixed (algorithm, graph, collision
rule) cell::

    from repro.search import SearchSettings, run_search

    result = run_search(
        SearchSettings(algorithm="round_robin",
                       graph_kind="clique-bridge", n=16),
        searcher="greedy",
        budget=8,
    )
    print(result.best.objective)   # worst stall found, in rounds

A search's inputs are its cell, its searcher, its seed and an integer
budget.  Candidates are constructed and scored on the fast bitmask
engine (:data:`~repro.search.evaluate.SEARCH_ENGINE`), fan out over
worker processes, persist to a result store (a JSON-lines file or a
campaign directory) with resume-by-key, and the best genome is
replay-certified on the reference engine through
:class:`~repro.adversaries.scripted.ReplayAdversary` — see
``docs/SEARCH.md``.
"""

from repro.search.evaluate import (
    CandidateScore,
    EvaluationContext,
    SearchSettings,
    evaluate_genomes,
    verify_replay,
)
from repro.search.compare import (
    BoundComparison,
    supports_theorem2,
    theorem2_comparison,
)
from repro.search.genome import (
    GenomeAdversary,
    GenomeCR4Adversary,
    GenomeSpace,
    StrategyGenome,
)
from repro.search.harness import make_space, run_search
from repro.search.persist import (
    CandidateRecord,
    SearchResult,
    genome_fingerprint_validator,
    search_fingerprint,
)
from repro.search.searchers import (
    GreedyLookaheadSearch,
    RandomRestartSearch,
    Searcher,
    build_searcher,
    register_searcher,
    searcher_descriptions,
    searcher_kinds,
)

__all__ = [
    "BoundComparison",
    "CandidateRecord",
    "CandidateScore",
    "EvaluationContext",
    "GenomeAdversary",
    "GenomeCR4Adversary",
    "GenomeSpace",
    "GreedyLookaheadSearch",
    "RandomRestartSearch",
    "SearchResult",
    "SearchSettings",
    "Searcher",
    "StrategyGenome",
    "build_searcher",
    "evaluate_genomes",
    "genome_fingerprint_validator",
    "make_space",
    "search_fingerprint",
    "register_searcher",
    "run_search",
    "searcher_descriptions",
    "searcher_kinds",
    "supports_theorem2",
    "theorem2_comparison",
    "verify_replay",
]
