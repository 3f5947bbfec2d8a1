"""Typed results of sweep runs and their aggregation queries.

A :class:`RunResult` is the deterministic outcome of one
:class:`~repro.experiments.spec.RunTask` — it deliberately carries no
wall-clock timing, so the same task always produces the *identical*
record no matter which worker ran it or whether it was resumed from
disk.  :class:`SweepResult` holds the ordered record list plus run
bookkeeping (how many tasks executed vs. were resumed) and the
aggregation queries the benches and the CLI render from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.stats import Summary, quantile, summarize
from repro.store.base import StoreHealth


@dataclass(frozen=True)
class RunResult:
    """The outcome of one sweep task.

    Attributes:
        key: The task's stable identifier (resume-by-key handle).
        sweep: Name of the spec the task came from.
        algorithm: Registered algorithm name.
        graph_kind: Registered graph kind.
        n: Requested network size (the factory may round it up; ``graph_n``
            is the size actually built).
        graph_n: Number of nodes in the instantiated network.
        adversary_kind: Registered adversary kind.
        collision_rule: ``"CR1"`` … ``"CR4"``.
        start_mode: ``"synchronous"`` or ``"asynchronous"``.
        seed: The sweep seed of the task (the engine runs on a seed
            derived from the task key).
        completed: Whether broadcast finished within the round cap.
        completion_round: Round by which all processes were informed
            (``None`` if the cap was hit first).
        rounds: Rounds executed.
        total_transmissions: Sum of per-round sender counts.
        engine: The engine that actually executed the task
            (``"reference"`` or ``"fast"``; older records may say
            ``"vector"``) — informational only, since the engines are
            trace-equivalent.
        churn_kind: The fault-injection kind the task ran under
            (``"none"`` for failure-free runs).  A science axis, not
            bookkeeping: reports keep churn records out of the
            failure-free tables and render them separately.
    """

    key: str
    sweep: str
    algorithm: str
    graph_kind: str
    n: int
    graph_n: int
    adversary_kind: str
    collision_rule: str
    start_mode: str
    seed: int
    completed: bool
    completion_round: Optional[int]
    rounds: int
    total_transmissions: int
    engine: str = "reference"
    churn_kind: str = "none"

    def to_dict(self) -> Dict[str, Any]:
        """The record as one JSON-lines document (see ``from_dict``)."""
        return {
            "key": self.key,
            "sweep": self.sweep,
            "algorithm": self.algorithm,
            "graph_kind": self.graph_kind,
            "n": self.n,
            "graph_n": self.graph_n,
            "adversary_kind": self.adversary_kind,
            "collision_rule": self.collision_rule,
            "start_mode": self.start_mode,
            "seed": self.seed,
            "completed": self.completed,
            "completion_round": self.completion_round,
            "rounds": self.rounds,
            "total_transmissions": self.total_transmissions,
            "engine": self.engine,
            "churn_kind": self.churn_kind,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunResult":
        """Rebuild a record from its JSON-lines document."""
        return cls(
            key=doc["key"],
            sweep=doc["sweep"],
            algorithm=doc["algorithm"],
            graph_kind=doc["graph_kind"],
            n=int(doc["n"]),
            graph_n=int(doc["graph_n"]),
            adversary_kind=doc["adversary_kind"],
            collision_rule=doc["collision_rule"],
            start_mode=doc["start_mode"],
            seed=int(doc["seed"]),
            completed=bool(doc["completed"]),
            completion_round=(
                None
                if doc["completion_round"] is None
                else int(doc["completion_round"])
            ),
            rounds=int(doc["rounds"]),
            total_transmissions=int(doc["total_transmissions"]),
            engine=doc.get("engine", "reference"),
            churn_kind=doc.get("churn_kind", "none"),
        )


@dataclass
class SweepResult:
    """All records of one sweep invocation, key-sorted.

    Attributes:
        records: One :class:`RunResult` per task, sorted by key — the
            order is independent of worker count and resume history.
        executed: Tasks actually run by this invocation.
        resumed: Tasks whose records were loaded from a results file.
        elapsed: Wall-clock seconds of this invocation (excluded from
            equality: two runs of the same spec compare equal).
        health: The result store's
            :class:`~repro.store.base.StoreHealth` damage report
            (unparsable lines plus validator-rejected records, whose
            tasks were re-run), uniform across every backend.
            Bookkeeping like ``elapsed``, excluded from equality; the
            CLI logs it so damaged results files are visible instead
            of silently healed.
    """

    records: List[RunResult]
    executed: int = 0
    resumed: int = 0
    elapsed: float = field(default=0.0, compare=False)
    health: StoreHealth = field(
        default_factory=StoreHealth, compare=False
    )

    def __post_init__(self) -> None:
        self.records = sorted(self.records, key=lambda r: r.key)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def filter(self, **attrs) -> "SweepResult":
        """Records whose attributes equal every given value.

        Example: ``result.filter(sweep="dual", algorithm="harmonic")``.
        """
        kept = [
            r
            for r in self.records
            if all(getattr(r, k) == v for k, v in attrs.items())
        ]
        return SweepResult(kept, elapsed=self.elapsed)

    def group_by(
        self, attr: str
    ) -> Dict[Any, "SweepResult"]:
        """Partition the records by one attribute, in sorted key order."""
        groups: Dict[Any, List[RunResult]] = {}
        for r in self.records:
            groups.setdefault(getattr(r, attr), []).append(r)
        return {
            value: SweepResult(records)
            for value, records in sorted(groups.items())
        }

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def failures(self) -> List[RunResult]:
        """Records whose execution hit the round cap."""
        return [r for r in self.records if not r.completed]

    @property
    def failure_count(self) -> int:
        """Number of records that hit the round cap."""
        return len(self.failures)

    def completion_rounds(self) -> List[int]:
        """Completion rounds of the completed records."""
        return [
            r.completion_round
            for r in self.records
            if r.completed and r.completion_round is not None
        ]

    def summarize_completion(self) -> Summary:
        """Five-number summary of the completion rounds."""
        return summarize(self.completion_rounds())

    def completion_quantile(self, q: float) -> float:
        """The ``q``-quantile of the completion rounds."""
        return quantile(self.completion_rounds(), q)

    def summarize_by(self, attr: str) -> Dict[Any, Summary]:
        """Per-group completion summaries, e.g. ``summarize_by("n")``."""
        return {
            value: group.summarize_completion()
            for value, group in self.group_by(attr).items()
            if group.completion_rounds()
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table_rows(self) -> List[List[Any]]:
        """Rows for the standard sweep table: one per
        (sweep, algorithm, graph, n) group, with completion summary and
        failure count."""
        groups: Dict[tuple, List[RunResult]] = {}
        for r in self.records:
            groups.setdefault(
                (r.sweep, r.algorithm, r.graph_kind, r.n), []
            ).append(r)
        rows: List[List[Any]] = []
        for (sweep, alg, graph, n), recs in sorted(groups.items()):
            sub = SweepResult(recs)
            rounds = sub.completion_rounds()
            rows.append(
                [
                    sweep,
                    alg,
                    graph,
                    n,
                    summarize(rounds).format() if rounds else "—",
                    sub.failure_count,
                ]
            )
        return rows

    TABLE_HEADER = [
        "sweep",
        "algorithm",
        "graph",
        "n",
        "completion rounds",
        "capped",
    ]
