"""Typed results of sweep runs.

A :class:`RunResult` is the deterministic outcome of one
:class:`~repro.experiments.spec.RunTask` — it deliberately carries no
wall-clock timing, so the same task always produces the *identical*
record no matter which worker ran it or whether it was resumed from
disk.  :class:`SweepResult` holds the ordered record list plus run
bookkeeping (how many tasks executed vs. were resumed).  Tables come
from one fold, :class:`repro.analysis.report.CampaignReport`, which
groups records by their :attr:`RunResult.cell_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.spec import cell_key_of
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
            (``"reference"`` or ``"fast"``) — informational only, since
            the engines are trace-equivalent.
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

    @property
    def cell_key(self) -> str:
        """The record's science cell: its key without the seed segment.

        Equal to the :attr:`~repro.experiments.spec.RunTask.cell_key`
        of the task that wrote the record (derived, not stored, so
        record bytes do not carry it).
        """
        return cell_key_of(self.key)

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

    @property
    def failures(self) -> List[RunResult]:
        """Records whose execution hit the round cap."""
        return [r for r in self.records if not r.completed]
