"""Experiment SEARCH — candidate-evaluation throughput claims.

The search harness evaluates whole genome batches against one shared
:class:`repro.search.evaluate.EvaluationContext` — one graph build and
one :class:`~repro.sim.topology.CompiledTopology` compile for the
entire population, with the fast engine taking every mask-eligible
candidate.  The naive alternative (what a straight-line implementation
would do) rebuilds the graph, recompiles the topology and constructs a
fresh context per candidate.

Claim measured here: batched evaluation beats the naive loop by
≥ 1.2x on the same candidate population (a loose margin — the CI
container is a small 2-core shared box; locally the factor is larger).
A second, unasserted row reports the 2-worker parallel throughput for
context.
"""

import gc
import random
import time

from repro.analysis import render_table
from repro.search import (
    EvaluationContext,
    PopulationEvaluator,
    SearchSettings,
    make_space,
)

#: Clique-bridge is the subsystem's canonical family: dense enough that
#: graph construction and topology compilation are real costs.
SETTINGS = SearchSettings(
    algorithm="round_robin",
    graph_kind="clique-bridge",
    n=65,
    collision_rule="CR1",
    start_mode="synchronous",
    max_rounds=80,
)

POPULATION = 40
REPS = 3
MIN_SPEEDUP = 1.2  # loose: 2-core shared box


def _population():
    space = make_space(SETTINGS)
    rng = random.Random(0)
    return [space.random(rng) for _ in range(POPULATION)]


def _time_naive(genomes):
    gc.collect()
    started = time.perf_counter()
    scores = [
        EvaluationContext(SETTINGS).evaluate(genome)
        for genome in genomes
    ]
    return time.perf_counter() - started, scores


def _time_batched(genomes, workers=1):
    evaluator = PopulationEvaluator(SETTINGS, workers=workers)
    try:
        gc.collect()
        started = time.perf_counter()
        scores = evaluator.evaluate(genomes)
        return time.perf_counter() - started, scores
    finally:
        evaluator.close()


def run_throughput_experiment():
    genomes = _population()
    times = {"naive": [], "batched": [], "batched-2w": []}
    scores = {}
    for _ in range(REPS):
        # Alternate modes within each rep so drift on a shared box hits
        # every side equally.
        for mode, runner in (
            ("naive", lambda: _time_naive(genomes)),
            ("batched", lambda: _time_batched(genomes)),
            ("batched-2w", lambda: _time_batched(genomes, workers=2)),
        ):
            elapsed, result = runner()
            times[mode].append(elapsed)
            scores[mode] = result
    return times, scores


def test_search_evaluation_throughput(table_out):
    times, scores = run_throughput_experiment()
    # Identical scores in every mode: batching is pure scheduling.
    assert scores["naive"] == scores["batched"] == scores["batched-2w"]

    naive = min(times["naive"])
    batched = min(times["batched"])
    parallel = min(times["batched-2w"])
    speedup = naive / batched
    rows = [
        ["naive rebuild-per-candidate", f"{naive:.3f}",
         f"{POPULATION / naive:.1f}", "1.00x"],
        ["batched shared-context", f"{batched:.3f}",
         f"{POPULATION / batched:.1f}", f"{speedup:.2f}x"],
        ["batched + 2 workers", f"{parallel:.3f}",
         f"{POPULATION / parallel:.1f}",
         f"{naive / parallel:.2f}x"],
    ]
    table_out(
        render_table(
            ["evaluation mode", "seconds", "candidates/s", "speedup"],
            rows,
            title=f"SEARCH: {POPULATION} candidates, "
            f"{SETTINGS.graph_kind} n={SETTINGS.n}, "
            f"{SETTINGS.algorithm}, {SETTINGS.collision_rule} "
            f"(best of {REPS})",
        )
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched evaluation only {speedup:.2f}x over naive "
        f"(expected >= {MIN_SPEEDUP}x)"
    )
