"""Budget accounting and result-store persistence for searches.

Search candidates persist through the same :mod:`repro.store` layer as
sweep records — one keyed record per evaluated candidate, appended the
moment its score reaches the harness, so an interrupted search leaves
a valid prefix on disk under any backend.  On resume the harness
regenerates the identical candidate sequence (same settings, searcher
and seed ⇒ same rng stream) and, for every candidate whose key is
already on disk *and* whose stored genome fingerprint matches the
regenerated genome, reuses the stored score instead of re-evaluating —
resume-by-key with a content check, so a foreign or stale results file
re-runs rather than corrupts.

The subsystem's second line of distrust is the *store-level validator
hook* :func:`genome_fingerprint_validator`: records whose persisted
``fingerprint`` does not match their own genome's recomputed
fingerprint are rejected at load time (counted on
:class:`~repro.store.base.StoreHealth`), before the harness even sees
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.search.evaluate import CandidateScore, SearchSettings
from repro.search.genome import StrategyGenome
from repro.store.base import StoreHealth

__all__ = [
    "CandidateRecord",
    "SearchBudget",
    "SearchResult",
    "candidate_key",
    "genome_fingerprint_validator",
    "search_fingerprint",
]


@dataclass(frozen=True)
class SearchBudget:
    """How much work a search invocation may spend.

    Attributes:
        evaluations: Total candidate evaluations (across resumes: a
            resumed run counts previously persisted candidates against
            the same budget, so re-running a finished search is a
            no-op).
        batch_size: Candidates asked for (and evaluated, possibly in
            parallel) per harness iteration.
    """

    evaluations: int
    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.evaluations < 1:
            raise ValueError(
                f"budget needs >= 1 evaluation, got {self.evaluations}"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


def candidate_key(
    settings: SearchSettings, searcher: str, seed: int, ordinal: int
) -> str:
    """The stable per-candidate resume key.

    Namespaced by the search cell, the searcher kind and the search
    seed, then indexed by the candidate's position in the ask sequence —
    the same invocation always assigns the same keys in the same order.
    """
    return f"{settings.key}/{searcher}-r{seed}/c{ordinal}"


@dataclass(frozen=True)
class CandidateRecord:
    """One evaluated candidate as persisted to the results file."""

    key: str
    ordinal: int
    searcher: str
    fingerprint: str
    genome: StrategyGenome
    objective: int
    completed: bool
    completion_round: Optional[int]
    rounds: int
    engine: str

    @classmethod
    def from_score(
        cls,
        score: CandidateScore,
        key: str,
        ordinal: int,
        searcher: str,
    ) -> "CandidateRecord":
        """Wrap one fresh score with its persistence identity."""
        return cls(
            key=key,
            ordinal=ordinal,
            searcher=searcher,
            fingerprint=score.genome.fingerprint,
            genome=score.genome,
            objective=score.objective,
            completed=score.completed,
            completion_round=score.completion_round,
            rounds=score.rounds,
            engine=score.engine,
        )

    def to_score(self) -> CandidateScore:
        """The record as the score the searcher is told on resume."""
        return CandidateScore(
            genome=self.genome,
            objective=self.objective,
            completed=self.completed,
            completion_round=self.completion_round,
            rounds=self.rounds,
            engine=self.engine,
        )

    def to_dict(self) -> Dict:
        """The record as one JSON-lines document (see ``from_dict``)."""
        return {
            "key": self.key,
            "ordinal": self.ordinal,
            "searcher": self.searcher,
            "fingerprint": self.fingerprint,
            "genome": self.genome.to_dict(),
            "objective": self.objective,
            "completed": self.completed,
            "completion_round": self.completion_round,
            "rounds": self.rounds,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "CandidateRecord":
        """Rebuild a record from its JSON-lines document."""
        return cls(
            key=doc["key"],
            ordinal=int(doc["ordinal"]),
            searcher=doc["searcher"],
            fingerprint=doc["fingerprint"],
            genome=StrategyGenome.from_dict(doc["genome"]),
            objective=int(doc["objective"]),
            completed=bool(doc["completed"]),
            completion_round=(
                None
                if doc["completion_round"] is None
                else int(doc["completion_round"])
            ),
            rounds=int(doc["rounds"]),
            engine=doc["engine"],
        )


def genome_fingerprint_validator(record: CandidateRecord) -> bool:
    """The search store's distrust check, as a store-level validator.

    A persisted candidate is only trusted when its stored
    ``fingerprint`` equals its own genome's *recomputed* fingerprint —
    an internally inconsistent record (hand-edited file, partial
    foreign merge, version drift in the genome codec) is rejected at
    load time and its candidate re-evaluated.  The harness's second
    check — stored fingerprint vs. the *regenerated* ask-sequence
    genome — still runs on top; this hook catches corruption even for
    keys the current invocation never regenerates.
    """
    return record.fingerprint == record.genome.fingerprint


def search_fingerprint(
    settings: SearchSettings, searcher: str, seed: int
) -> str:
    """The campaign fingerprint a search writes into store manifests.

    Everything that namespaces candidate keys — the cell, the searcher
    kind and the search seed — so a campaign directory refuses records
    from a different search instead of interleaving them.
    """
    return f"{settings.key}/{searcher}-r{seed}"


@dataclass
class SearchResult:
    """The outcome of one :func:`repro.search.harness.run_search` call.

    Attributes:
        settings: The search cell.
        searcher: The searcher kind that ran.
        seed: The search seed (candidate-generation rng, distinct from
            the cell's derived engine seed).
        best: The highest-objective candidate (ties: earliest ordinal).
        best_ordinal: Where in the ask sequence the best candidate sat.
        executed: Candidates evaluated by this invocation.
        resumed: Candidates whose scores were reused from disk.
        health: The result store's
            :class:`~repro.store.base.StoreHealth` damage report
            (unparsable or distrusted entries dropped on load), uniform
            with the sweep side.
        elapsed: Wall-clock seconds (excluded from equality).
        replay_verified: ``None`` until
            :func:`repro.search.evaluate.verify_replay` has certified
            the best genome; then its boolean outcome.
    """

    settings: SearchSettings
    searcher: str
    seed: int
    best: CandidateScore
    best_ordinal: int
    executed: int = 0
    resumed: int = 0
    health: StoreHealth = field(
        default_factory=StoreHealth, compare=False
    )
    elapsed: float = field(default=0.0, compare=False)
    replay_verified: Optional[bool] = None

    def summary(self) -> Dict:
        """A compact JSON-serialisable summary of the search."""
        return {
            "key": self.settings.key,
            "searcher": self.searcher,
            "seed": self.seed,
            "best_objective": self.best.objective,
            "best_completed": self.best.completed,
            "best_completion_round": self.best.completion_round,
            "best_ordinal": self.best_ordinal,
            "best_engine": self.best.engine,
            "executed": self.executed,
            "resumed": self.resumed,
            "skipped_lines": self.health.skipped_lines,
            "rejected_records": self.health.rejected_records,
            "replay_verified": self.replay_verified,
            "best_genome": self.best.genome.to_dict(),
        }

    def table_rows(self) -> List[List]:
        """Rows for the CLI's quantity/value table."""
        return [
            ["cell", self.settings.key],
            ["searcher", self.searcher],
            ["best objective (rounds)", self.best.objective],
            ["best completed", self.best.completed],
            ["best found at candidate", self.best_ordinal],
            ["evaluations run", self.executed],
            ["evaluations resumed", self.resumed],
            ["engine of best", self.best.engine],
        ]
