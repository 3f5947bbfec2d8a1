"""Candidate evaluation: score genomes against one fixed search cell.

A *search cell* (:class:`SearchSettings`) is everything of a sweep task
except the adversary — algorithm, graph, collision rule, start mode,
engine seed, round cap.  Evaluation uses the sweep runner's cell setup
and run step (:func:`~repro.experiments.runner.compile_cell`,
:func:`~repro.experiments.runner.cell_engine`): the graph is built and
its :class:`~repro.sim.topology.CompiledTopology` compiled **once** per
:class:`EvaluationContext`, then every candidate genome runs against the
shared pair on :data:`SEARCH_ENGINE`, the bitmask fast engine (CR4
genomes included).  ``benchmarks/bench_search.py`` measures the win
over rebuilding per candidate.

:func:`cell_context` keeps one such context per process, for the last
cell asked for: :func:`~repro.search.harness.run_search` clears it at
the start, so the genome space, in-process scoring and the replay
check of one search share one compile, and forked pool workers
inherit it.  :func:`evaluate_genomes` scores a population on the
sweep's :class:`~repro.experiments.runner.WorkerPool`, one
``(settings, genome)`` unit each (:func:`evaluate_unit`); the pool
runs them in-process with one worker.  Scores come back in submission
order.  They are deterministic and independent of the worker count
(every run uses the cell's derived engine seed), so resume-by-key
files stay valid across invocations — the same invariant the sweep
runner keeps.

The objective is **stall**: a completed broadcast scores its completion
round, and an execution still incomplete at the round cap scores
``cap + 1`` — strictly worse for the algorithm than any completion, so
maximising the objective searches for worst cases under the cap.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    WorkerPool, cell_engine, compile_cell, round_cap,
)
from repro.experiments.spec import (
    Params,
    _coerce_mode,
    _coerce_rule,
    _fmt_params,
    _freeze_params,
)
from repro.graphs.dualgraph import DualGraph
from repro.search.genome import StrategyGenome
from repro.sim.topology import CompiledTopology

#: The engine every candidate is constructed and scored on.  Scores are
#: identical on the reference engine, which :func:`verify_replay` runs.
SEARCH_ENGINE = "fast"


@dataclass(frozen=True)
class SearchSettings:
    """One search cell: the fixed inputs every candidate is scored on.

    Everything is a primitive (or frozen tuple), so settings pickle to
    pool workers and serialise into result files.
    """

    algorithm: str
    graph_kind: str
    n: int
    algorithm_params: Params = ()
    graph_params: Params = ()
    collision_rule: str = "CR1"
    start_mode: str = "synchronous"
    seed: int = 0
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "algorithm_params", _freeze_params(self.algorithm_params)
        )
        object.__setattr__(
            self, "graph_params", _freeze_params(self.graph_params)
        )
        object.__setattr__(
            self, "collision_rule", _coerce_rule(self.collision_rule)
        )
        object.__setattr__(self, "start_mode", _coerce_mode(self.start_mode))

    @property
    def key(self) -> str:
        """Stable cell identifier — the namespace of candidate keys."""
        parts = [
            "search",
            f"{self.algorithm}{_fmt_params(self.algorithm_params)}",
            f"{self.graph_kind}:n{self.n}"
            f"{_fmt_params(self.graph_params)}",
            f"{self.collision_rule}-{self.start_mode}",
            f"s{self.seed}",
        ]
        if self.max_rounds is not None:
            parts.append(f"cap{self.max_rounds}")
        return "/".join(parts)

    @property
    def derived_seed(self) -> int:
        """The engine seed, derived from the cell key like sweep tasks."""
        return zlib.crc32(self.key.encode("utf-8"))


@dataclass(frozen=True)
class CandidateScore:
    """The deterministic outcome of evaluating one genome.

    Attributes:
        genome: The evaluated strategy.
        objective: Completion round, or ``cap + 1`` for an execution the
            cap cut off — higher is a worse case for the algorithm.
        completed: Whether broadcast finished within the cap.
        completion_round: The completion round (``None`` if capped).
        rounds: Rounds actually executed.
    """

    genome: StrategyGenome
    objective: int
    completed: bool
    completion_round: Optional[int]
    rounds: int


class EvaluationContext:
    """Shared per-cell setup: one graph build + topology compile.

    Instances are cheap to evaluate against and safe to reuse across any
    number of sequential candidate evaluations (the engines only read
    the compiled topology).
    """

    def __init__(self, settings: SearchSettings) -> None:
        self.settings = settings
        self.topology: CompiledTopology = compile_cell(settings)
        self.graph: DualGraph = self.topology.graph
        self.round_cap: int = round_cap(settings, self.graph)

    def evaluate(self, genome: StrategyGenome) -> CandidateScore:
        """Score one genome (see the module docstring's objective)."""
        trace = cell_engine(
            self.settings,
            self.topology,
            genome.build_adversary(),
            self.round_cap,
            engine=SEARCH_ENGINE,
        ).run()
        objective = (
            trace.completion_round
            if trace.completed and trace.completion_round is not None
            else self.round_cap + 1
        )
        return CandidateScore(
            genome=genome,
            objective=objective,
            completed=trace.completed,
            completion_round=trace.completion_round,
            rounds=trace.num_rounds,
        )


@functools.lru_cache(maxsize=1)
def cell_context(settings: SearchSettings) -> EvaluationContext:
    """This process's context for ``settings``, built on a miss.

    One slot: a search asks for one cell, so its genome space, its
    in-process scores and its replay check share one build and
    compile.  ``cell_context.cache_clear()`` starts afresh.
    """
    return EvaluationContext(settings)


def evaluate_unit(
    unit: Tuple[SearchSettings, StrategyGenome]
) -> CandidateScore:
    """Score one ``(settings, genome)`` pool unit."""
    settings, genome = unit
    return cell_context(settings).evaluate(genome)


def evaluate_genomes(
    pool: WorkerPool,
    settings: SearchSettings,
    genomes: Sequence[StrategyGenome],
) -> List[CandidateScore]:
    """Score ``genomes`` on ``pool``, in the order given."""
    scores = {
        index: score
        for index, score, _ in pool.run(
            evaluate_unit,
            [(settings, genome) for genome in genomes],
            label=lambda unit: f"genome {unit[1].fingerprint}",
        )
    }
    return [scores[index] for index in range(len(genomes))]


def verify_replay(settings: SearchSettings, genome: StrategyGenome) -> bool:
    """Replay-certify a genome on the reference engine.

    Runs the genome with reception recording on the reference engine,
    replays the recorded trace through a strict
    :class:`~repro.adversaries.scripted.ReplayAdversary`, and checks the
    two executions agree round for round (senders, deliveries, informing
    rounds, completion).  This is the self-certification property search
    results inherit from the recording machinery.  The cell comes from
    :func:`cell_context`.
    """
    from repro.adversaries.scripted import ReplayAdversary

    ctx = cell_context(settings)
    trace = cell_engine(
        settings,
        ctx.topology,
        genome.build_adversary(),
        ctx.round_cap,
        engine="reference",
        record_receptions=True,
    ).run()
    replay = cell_engine(
        settings,
        ctx.topology,
        ReplayAdversary(trace, strict=True),
        ctx.round_cap,
        engine="reference",
    ).run()
    return (
        replay.completed == trace.completed
        and replay.informed_round == trace.informed_round
        and len(replay.rounds) == len(trace.rounds)
        and all(
            a.senders == b.senders
            and a.unreliable_deliveries == b.unreliable_deliveries
            and a.newly_informed == b.newly_informed
            for a, b in zip(replay.rounds, trace.rounds)
        )
    )
