"""Candidate evaluation: score genomes against one fixed search cell.

A *search cell* (:class:`SearchSettings`) is everything of a sweep task
except the adversary — algorithm, graph, collision rule, start mode,
engine seed, round cap.  Evaluation uses the sweep runner's cell setup
and run step (:func:`~repro.experiments.runner.compile_cell`,
:func:`~repro.experiments.runner.cell_engine`): the graph is built and
its :class:`~repro.sim.topology.CompiledTopology` compiled **once** per
:class:`EvaluationContext`, then every candidate genome runs against the
shared pair — on the bitmask fast engine by default (CR4 genomes
included; ``settings.engine="reference"`` forces the baseline).
``benchmarks/bench_search.py`` measures the win over rebuilding per
candidate.

:class:`PopulationEvaluator` adds the population fan-out: each genome
runs alone, and ``workers > 1`` submits one genome per future to the
sweep's :class:`~repro.experiments.runner.WorkerPool`, whose workers
each build the context once (pool initializer).  Scores come back in
completion order and are put back in submission order by index.  They
are deterministic and independent of the worker count (every run uses
the cell's derived engine seed), so resume-by-key files stay valid
across invocations — the same invariant the sweep runner keeps.

The objective is **stall**: a completed broadcast scores its completion
round, and an execution still incomplete at the round cap scores
``cap + 1`` — strictly worse for the algorithm than any completion, so
maximising the objective searches for worst cases under the cap.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    WorkerPool, cell_engine, compile_cell, round_cap,
)
from repro.experiments.spec import (
    Params,
    _coerce_engine,
    _coerce_mode,
    _coerce_rule,
    _fmt_params,
    _freeze_params,
)
from repro.graphs.dualgraph import DualGraph
from repro.search.genome import StrategyGenome
from repro.sim.topology import CompiledTopology
from repro.sim.trace import ExecutionTrace


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
    #: The engine candidates are scored on (one of ``ENGINE_NAMES``);
    #: scores are identical on either, so it is not part of the key.
    engine: str = "fast"

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
        object.__setattr__(self, "engine", _coerce_engine(self.engine))

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
        engine: The engine implementation that ran the evaluation.
    """

    genome: StrategyGenome
    objective: int
    completed: bool
    completion_round: Optional[int]
    rounds: int
    engine: str


class EvaluationContext:
    """Shared per-cell setup: one graph build + topology compile.

    Instances are cheap to evaluate against and safe to reuse across any
    number of sequential candidate evaluations (the engines only read
    the compiled topology).  ``topology`` optionally injects the cell's
    already-compiled topology (the harness compiles one for the genome
    space and shares it here) instead of rebuilding and recompiling.
    """

    def __init__(
        self,
        settings: SearchSettings,
        topology: Optional[CompiledTopology] = None,
    ) -> None:
        self.settings = settings
        if topology is None:
            topology = compile_cell(settings)
        self.topology: CompiledTopology = topology
        self.graph: DualGraph = topology.graph
        self.round_cap: int = round_cap(settings, self.graph)

    def run_genome(
        self,
        genome: StrategyGenome,
        engine: Optional[str] = None,
        record_receptions: bool = False,
    ) -> Tuple[ExecutionTrace, str]:
        """Run one genome and return its trace and the engine used."""
        engine = engine or self.settings.engine
        trace = cell_engine(
            self.settings,
            self.topology,
            genome.build_adversary(),
            self.round_cap,
            engine=engine,
            record_receptions=record_receptions,
        ).run()
        return trace, engine

    def evaluate(self, genome: StrategyGenome) -> CandidateScore:
        """Score one genome (see the module docstring's objective)."""
        trace, engine = self.run_genome(genome)
        return score_from_trace(genome, trace, self.round_cap, engine)


def score_from_trace(
    genome: StrategyGenome,
    trace: ExecutionTrace,
    round_cap: int,
    engine: str,
) -> CandidateScore:
    """Fold one finished trace into the candidate's deterministic score."""
    objective = (
        trace.completion_round
        if trace.completed and trace.completion_round is not None
        else round_cap + 1
    )
    return CandidateScore(
        genome=genome,
        objective=objective,
        completed=trace.completed,
        completion_round=trace.completion_round,
        rounds=trace.num_rounds,
        engine=engine,
    )


def verify_replay(
    settings: SearchSettings,
    genome: StrategyGenome,
    context: Optional[EvaluationContext] = None,
) -> bool:
    """Replay-certify a genome on the reference engine.

    Runs the genome with reception recording on the reference engine,
    replays the recorded trace through a strict
    :class:`~repro.adversaries.scripted.ReplayAdversary`, and checks the
    two executions agree round for round (senders, deliveries, informing
    rounds, completion).  This is the self-certification property search
    results inherit from the recording machinery.  ``context``
    optionally reuses an existing cell context instead of rebuilding
    the graph and topology.
    """
    from repro.adversaries.scripted import ReplayAdversary

    ctx = context if context is not None else EvaluationContext(settings)
    trace, _ = ctx.run_genome(
        genome, engine="reference", record_receptions=True
    )
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


# ----------------------------------------------------------------------
# Parallel fan-out
# ----------------------------------------------------------------------
_WORKER_CTX: Optional[EvaluationContext] = None


def _init_worker(settings: SearchSettings) -> None:
    """Pool initializer: build the shared cell context once per worker."""
    global _WORKER_CTX
    _WORKER_CTX = EvaluationContext(settings)


def _evaluate_remote(genome: StrategyGenome) -> CandidateScore:
    assert _WORKER_CTX is not None, "pool initializer did not run"
    return _WORKER_CTX.evaluate(genome)


class PopulationEvaluator:
    """Evaluate genome batches against one cell, optionally in parallel.

    Args:
        settings: The search cell.
        workers: Worker process count; ``1`` evaluates in-process
            against a single shared :class:`EvaluationContext`.
        context: Optional prebuilt in-process context to share (pool
            workers always build their own in the pool initializer).

    ``workers > 1`` fans each batch out over one
    :class:`~repro.experiments.runner.WorkerPool`, one genome per
    future.  The pool (and the in-process context, unless injected) is
    created lazily on the first :meth:`evaluate` call and reused across
    batches; call :meth:`close` (or use as a context manager) when
    done.
    """

    def __init__(
        self,
        settings: SearchSettings,
        workers: int = 1,
        context: Optional[EvaluationContext] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.settings = settings
        self.workers = workers
        self._ctx = context
        self._pool = WorkerPool(
            workers, initializer=_init_worker, initargs=(settings,)
        )

    def evaluate(
        self, genomes: Sequence[StrategyGenome]
    ) -> List[CandidateScore]:
        """Score a batch, preserving submission order (deterministic)."""
        if not genomes:
            return []
        if self.workers == 1 or len(genomes) == 1:
            if self._ctx is None:
                self._ctx = EvaluationContext(self.settings)
            return [self._ctx.evaluate(g) for g in genomes]
        scores = {
            index: score
            for index, score, _ in self._pool.run(
                _evaluate_remote,
                genomes,
                label=lambda genome: f"genome {genome.fingerprint}",
            )
        }
        return [scores[index] for index in range(len(genomes))]

    def close(self) -> None:
        """Release the worker pool, if one was started."""
        self._pool.close()

    def __enter__(self) -> "PopulationEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
