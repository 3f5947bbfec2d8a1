"""The search loop: ask candidates, evaluate, persist, repeat.

:func:`run_search` wires the pieces of the subsystem together::

    settings ──► GenomeSpace ──► Searcher.ask ──► PopulationEvaluator
                     ▲                               │ (parallel,
                     │         Searcher.tell ◄───────┘  shared topology)
                     └──────── StoreSession: resume-by-key, appends

Determinism contract: for fixed (settings, searcher kind, seed) the
candidate sequence, every score, and therefore the returned best are
identical across invocations, worker counts and resume histories.  The
rng driving candidate generation is seeded from the cell key + searcher
+ seed; scores are pure functions of (genome, settings); and resumed
scores are verified against the regenerated genome's fingerprint before
being trusted (mismatches are re-evaluated, so a foreign results file
degrades to extra work, never to wrong results).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.experiments.runner import StoreSession, compile_cell, round_cap
from repro.obs.telemetry import Stopwatch, current
from repro.search.evaluate import (
    CandidateScore,
    EvaluationContext,
    PopulationEvaluator,
    SearchSettings,
    verify_replay,
)
from repro.search.genome import GenomeSpace
from repro.search.persist import (
    CandidateRecord,
    SearchBudget,
    SearchResult,
    candidate_key,
    genome_fingerprint_validator,
    search_fingerprint,
)
from repro.search.searchers import build_searcher
from repro.sim.collision import CollisionRule
from repro.store import open_store

#: Called after each evaluated batch with (best_so_far, done, total).
ProgressCallback = Callable[[CandidateScore, int, int], None]


def make_space(settings: SearchSettings) -> GenomeSpace:
    """The genome space induced by a search cell.

    The horizon is the cell's round cap (every round the engine can
    execute gets a delivery gene slot); CR4 resolution genes are on
    exactly under CR4 — the only rule where they exist; crash genes
    follow ``settings.churn_genes``.  The cell is built and compiled
    once (:func:`~repro.experiments.runner.compile_cell`), and the space
    keeps that compiled topology.
    """
    topology = compile_cell(settings)
    return GenomeSpace(
        topology,
        horizon=round_cap(settings, topology.graph),
        cr4_genes=CollisionRule[settings.collision_rule] is CollisionRule.CR4,
        churn_genes=settings.churn_genes,
    )


def run_search(
    settings: SearchSettings,
    searcher: str = "random",
    budget: SearchBudget = SearchBudget(evaluations=64),
    seed: int = 0,
    workers: int = 1,
    results_path: Optional[str] = None,
    verify: bool = False,
    progress: Optional[ProgressCallback] = None,
    store: Optional[str] = None,
) -> SearchResult:
    """Run one adversary search and return its best candidate.

    Args:
        settings: The search cell (algorithm, graph, CR, start mode …).
        searcher: Registered searcher kind
            (:func:`repro.search.searchers.searcher_kinds`).
        budget: Evaluation budget and batch size.
        seed: Search seed driving candidate generation (the engine seed
            is derived from the cell, independently — two searches with
            different seeds explore differently but score identically).
        workers: Parallel evaluation processes.
        results_path: Optional results location — a JSON-lines file or
            a campaign directory; previously persisted candidates are
            resumed by key instead of re-evaluated, and fresh scores
            are appended as they arrive.
        verify: Also replay-certify the best genome through a strict
            :class:`~repro.adversaries.scripted.ReplayAdversary` on the
            reference engine (:attr:`SearchResult.replay_verified`).
        progress: Optional callback after each batch.
        store: Result-store backend name (``"jsonl"`` or
            ``"sharded"``); ``None``/``"auto"`` detects from the path.
    """
    watch = Stopwatch()
    telemetry = current()
    space = make_space(settings)
    searcher_obj = build_searcher(searcher, space, settings)
    rng = random.Random(f"{settings.key}/{searcher}/r{seed}")

    result_store = (
        open_store(
            results_path,
            parse=CandidateRecord.from_dict,
            backend=store,
            validator=genome_fingerprint_validator,
            fingerprint=search_fingerprint(settings, searcher, seed),
        )
        if results_path
        else None
    )

    best: Optional[CandidateScore] = None
    best_ordinal = -1
    executed = 0
    resumed = 0
    ordinal = 0
    # One graph build and one topology compile serve the whole search:
    # the genome space's compiled topology backs the searcher, the
    # in-process evaluation context and the final replay certification
    # (worker processes, when used, build their own context once each
    # in the WorkerPool initializer, and the pool lives until the
    # evaluator closes).
    context = EvaluationContext(settings, topology=space.topology)
    with StoreSession(result_store) as session, PopulationEvaluator(
        settings, workers=workers, context=context
    ) as evaluator_obj:
        while ordinal < budget.evaluations:
            count = min(
                budget.batch_size, budget.evaluations - ordinal
            )
            genomes = searcher_obj.ask(rng, count)
            if len(genomes) != count:
                raise RuntimeError(
                    f"searcher {searcher!r} returned {len(genomes)} "
                    f"candidates for ask({count})"
                )
            keys = [
                candidate_key(settings, searcher, seed, ordinal + i)
                for i in range(count)
            ]
            scores: List[Optional[CandidateScore]] = [None] * count
            fresh_idx: List[int] = []
            for i, (genome, key) in enumerate(zip(genomes, keys)):
                record = session.claimed.get(key)
                if (
                    record is not None
                    and record.fingerprint == genome.fingerprint
                ):
                    scores[i] = record.to_score()
                    resumed += 1
                else:
                    fresh_idx.append(i)
            with telemetry.span("engine_run"):
                fresh_scores = evaluator_obj.evaluate(
                    [genomes[i] for i in fresh_idx]
                )
            for i, score in zip(fresh_idx, fresh_scores):
                scores[i] = score
                executed += 1
                session.append(
                    CandidateRecord.from_score(
                        score, keys[i], ordinal + i, searcher
                    )
                )
            batch = [s for s in scores if s is not None]
            searcher_obj.tell(batch)
            for i, score in enumerate(batch):
                if best is None or score.objective > best.objective:
                    best = score
                    best_ordinal = ordinal + i
            ordinal += count
            if progress is not None and best is not None:
                progress(best, ordinal, budget.evaluations)

    assert best is not None  # budget >= 1 guarantees one batch ran
    result = SearchResult(
        settings=settings,
        searcher=searcher,
        seed=seed,
        best=best,
        best_ordinal=best_ordinal,
        executed=executed,
        resumed=resumed,
        health=session.health,
        elapsed=watch.elapsed(),
    )
    if verify:
        result.replay_verified = verify_replay(
            settings, best.genome, context=context
        )
    return result
