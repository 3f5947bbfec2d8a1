"""The search loop: ask candidates, evaluate, persist, repeat.

:func:`run_search` wires the pieces of the subsystem together::

    settings ──► GenomeSpace ──► Searcher.ask ──► WorkerPool
                                                     │ ((settings, genome)
                                                     ▼  units, one compile)
                               StoreSession: resume-by-key, appends

The searchers only ask: neither ``random`` nor ``greedy`` reads scores,
so the loop itself keeps the best candidate.  It asks for
``max(8, 2 * workers)`` candidates at a time, at least two pool units
per worker as a sweep plans them, and replay-certifies the best genome
on the reference engine at the end.

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
from typing import List, Optional

from repro.experiments.runner import StoreSession, WorkerPool
from repro.obs.telemetry import Stopwatch, current
from repro.search.evaluate import (
    CandidateScore,
    SearchSettings,
    cell_context,
    evaluate_genomes,
    verify_replay,
)
from repro.search.genome import GenomeSpace
from repro.search.persist import (
    CandidateRecord,
    SearchResult,
    candidate_key,
    genome_fingerprint_validator,
    search_fingerprint,
)
from repro.search.searchers import build_searcher
from repro.sim.collision import CollisionRule
from repro.store import open_store

def make_space(settings: SearchSettings) -> GenomeSpace:
    """The genome space induced by a search cell.

    The horizon is the cell's round cap (every round the engine can
    execute gets a delivery gene slot); CR4 resolution genes are on
    exactly under CR4 — the only rule where they exist.  The space keeps
    the compiled topology of the process's cell context
    (:func:`~repro.search.evaluate.cell_context`).
    """
    context = cell_context(settings)
    return GenomeSpace(
        context.topology,
        horizon=context.round_cap,
        cr4_genes=CollisionRule[settings.collision_rule] is CollisionRule.CR4,
    )


def run_search(
    settings: SearchSettings,
    searcher: str = "random",
    budget: int = 64,
    seed: int = 0,
    workers: int = 1,
    results_path: Optional[str] = None,
    store: Optional[str] = None,
) -> SearchResult:
    """Run one adversary search and return its replay-certified best
    candidate.

    Args:
        settings: The search cell (algorithm, graph, CR, start mode …).
        searcher: Registered searcher kind
            (:func:`repro.search.searchers.searcher_kinds`).
        budget: Total candidate evaluations, at least 1 (across
            resumes: persisted candidates count against it, so
            re-running a finished search evaluates nothing).
        seed: Search seed driving candidate generation (the engine seed
            is derived from the cell, independently — two searches with
            different seeds explore differently but score identically).
        workers: Parallel evaluation processes.
        results_path: Optional results location — a JSON-lines file or
            a campaign directory; previously persisted candidates are
            resumed by key instead of re-evaluated, and fresh scores
            are appended as they arrive.
        store: Result-store backend name (``"jsonl"`` or
            ``"sharded"``); ``None``/``"auto"`` detects from the path.
    """
    if budget < 1:
        raise ValueError(f"budget needs >= 1 evaluation, got {budget}")
    watch = Stopwatch()
    telemetry = current()
    pool = WorkerPool(workers)
    batch = max(8, 2 * workers)
    # One graph build and one topology compile serve the whole search:
    # the genome space, in-process scores and the replay check share
    # the cell context, and forked pool workers inherit it.  Clearing
    # it first makes every search build its cell afresh, under the
    # sink installed for it.
    cell_context.cache_clear()
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
    with StoreSession(result_store) as session, pool:
        while ordinal < budget:
            count = min(batch, budget - ordinal)
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
                fresh_scores = evaluate_genomes(
                    pool, settings, [genomes[i] for i in fresh_idx]
                )
            for i, score in zip(fresh_idx, fresh_scores):
                scores[i] = score
                executed += 1
                session.append(
                    CandidateRecord.from_score(
                        score, keys[i], ordinal + i, searcher
                    )
                )
            for i, score in enumerate(scores):
                assert score is not None
                if best is None or score.objective > best.objective:
                    best = score
                    best_ordinal = ordinal + i
            ordinal += count

    assert best is not None  # budget >= 1 guarantees one batch ran
    return SearchResult(
        settings=settings,
        searcher=searcher,
        seed=seed,
        best=best,
        best_ordinal=best_ordinal,
        replay_verified=verify_replay(settings, best.genome),
        executed=executed,
        resumed=resumed,
        health=session.health,
        elapsed=watch.elapsed(),
    )
