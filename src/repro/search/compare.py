"""Compare empirically found worst cases against the proven bounds.

The analysis hook closing the loop between search and the executable
lower bounds in :mod:`repro.lowerbounds`: given a search result on the
Theorem-2 clique-bridge family, :func:`theorem2_comparison` runs the
paper's scripted adversary family
(:func:`repro.lowerbounds.theorem2.theorem2_lower_bound`) against the
same deterministic algorithm and tabulates

* the theorem's analytic bound ``n − 3``,
* the scripted construction's measured worst case,
* the search's best found stall, and
* the search/scripted ratio — how much of the proof's power blind (or
  greedy) search recovers without knowing the proof.

``docs/SEARCH.md`` carries a reference table produced by this hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.runner import make_processes
from repro.lowerbounds.theorem2 import (
    DETERMINISTIC_ALGORITHMS,
    THEOREM2_GRAPHS,
    theorem2_lower_bound,
)
from repro.search.evaluate import SearchSettings
from repro.search.persist import SearchResult


@dataclass(frozen=True)
class BoundComparison:
    """One search-vs-bound row.

    Attributes:
        n: Network size.
        algorithm: The algorithm under test.
        theorem_bound: The analytic bound (``n − 3`` for Theorem 2).
        scripted_worst: The scripted adversary family's measured worst
            case (receiver informing round), ``None`` when the
            algorithm is not deterministic.
        search_best: The search's best found objective.
        ratio: ``search_best / scripted_worst`` (``None`` when the
            scripted baseline is unavailable).
    """

    n: int
    algorithm: str
    theorem_bound: int
    scripted_worst: Optional[int]
    search_best: int
    ratio: Optional[float]

    def table_rows(self) -> List[List]:
        """Rows for the CLI's quantity/value table."""
        rows = [
            ["n", self.n],
            ["theorem 2 bound (n-3)", self.theorem_bound],
            [
                "scripted adversary worst",
                "—" if self.scripted_worst is None else self.scripted_worst,
            ],
            ["search best", self.search_best],
        ]
        if self.ratio is not None:
            rows.append(["search / scripted", f"{self.ratio:.2f}"])
        return rows


def supports_theorem2(settings: SearchSettings) -> bool:
    """Whether a search cell lies on the Theorem-2 comparison surface."""
    return settings.graph_kind in THEOREM2_GRAPHS


def theorem2_comparison(result: SearchResult) -> BoundComparison:
    """Tabulate a clique-bridge search result against Theorem 2.

    The scripted baseline runs only for deterministic algorithms (the
    proof's restriction); for randomized ones the row still carries the
    analytic bound, with the scripted column empty.
    """
    settings = result.settings
    if not supports_theorem2(settings):
        raise ValueError(
            f"graph kind {settings.graph_kind!r} is not in the "
            f"Theorem-2 family {list(THEOREM2_GRAPHS)}"
        )
    # The clique-bridge factory rounds n up to at least 3.
    n = max(3, settings.n)
    scripted: Optional[int] = None
    algorithm = settings.algorithm
    if algorithm in DETERMINISTIC_ALGORITHMS:
        scripted = theorem2_lower_bound(
            lambda size: make_processes(algorithm, size), n
        ).worst_rounds
    best = result.best.objective
    return BoundComparison(
        n=n,
        algorithm=settings.algorithm,
        theorem_bound=n - 3,
        scripted_worst=scripted,
        search_best=best,
        ratio=(best / scripted) if scripted else None,
    )
