"""Read a search's worst case against Theorem 2 through the claims table.

The analysis hook closing the loop between search and the executable
lower bounds in :mod:`repro.lowerbounds`: given a search result on the
Theorem-2 clique-bridge family, :func:`theorem2_comparison` reads the
search's best stall as an :class:`~repro.analysis.claims.Observation`,
which :data:`~repro.analysis.claims.THEOREM2` labels with its bound and
judges, and sets it next to

* the paper's scripted adversary family's measured worst case
  (:func:`repro.lowerbounds.theorem2.theorem2_lower_bound`) against the
  same deterministic algorithm, and
* the search/scripted ratio — how much of the proof's power greedy
  search recovers without knowing the proof.

``docs/SEARCH.md`` carries a reference table produced by this hook, and
``tests/golden/claims.json`` pins its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.claims import THEOREM2, Observation
from repro.core.runner import make_processes
from repro.lowerbounds.theorem2 import THEOREM2_GRAPHS, theorem2_lower_bound
from repro.search.evaluate import SearchSettings
from repro.search.persist import SearchResult


@dataclass(frozen=True)
class BoundComparison:
    """One search-vs-Theorem-2 row.

    Attributes:
        n: Network size.
        algorithm: The algorithm under test.
        search_best: The search's best found objective.
        scripted_worst: The scripted adversary family's measured worst
            case (receiver informing round), ``None`` outside
            :data:`~repro.analysis.claims.THEOREM2`'s scope
            (randomized algorithms).
        ratio: ``search_best / scripted_worst`` (``None`` when the
            scripted baseline is unavailable).
        bound: ``THEOREM2.bound`` of the search's observation, ``None``
            outside the claim's scope.
        verdict: ``THEOREM2.verdict`` of the search's observation,
            ``None`` outside the claim's scope.
    """

    n: int
    algorithm: str
    search_best: int
    scripted_worst: Optional[int]
    ratio: Optional[float]
    bound: Optional[str]
    verdict: Optional[str]

    def table_rows(self) -> List[List]:
        """Rows for the CLI's quantity/value table."""
        rows = [
            ["n", self.n],
            ["theorem 2 bound", "—" if self.bound is None else self.bound],
            [
                "scripted adversary worst",
                "—" if self.scripted_worst is None else self.scripted_worst,
            ],
            ["search best", self.search_best],
        ]
        if self.ratio is not None:
            rows.append(["search / scripted", f"{self.ratio:.2f}"])
        rows.append(
            ["theorem 2 verdict", "—" if self.verdict is None else self.verdict]
        )
        return rows


def supports_theorem2(settings: SearchSettings) -> bool:
    """Whether a search cell lies on the Theorem-2 comparison surface."""
    return settings.graph_kind in THEOREM2_GRAPHS


def theorem2_comparison(result: SearchResult) -> BoundComparison:
    """Read a clique-bridge search result against Theorem 2.

    The claim, and with it the scripted baseline, covers only
    deterministic algorithms (the proof's restriction); for randomized
    ones the row carries the search's best stall alone.
    """
    settings = result.settings
    if not supports_theorem2(settings):
        raise ValueError(
            f"graph kind {settings.graph_kind!r} is not in the "
            f"Theorem-2 family {list(THEOREM2_GRAPHS)}"
        )
    # The clique-bridge factory rounds n up to at least 3.
    n = max(3, settings.n)
    best = result.best.objective
    observation = Observation(settings.algorithm, settings.graph_kind, n, best)
    if not THEOREM2.covers(observation):
        return BoundComparison(n, settings.algorithm, best, None, None, None, None)
    scripted = theorem2_lower_bound(
        lambda size: make_processes(settings.algorithm, size), n
    ).worst_rounds
    return BoundComparison(
        n=n,
        algorithm=settings.algorithm,
        search_best=best,
        scripted_worst=scripted,
        ratio=best / scripted,
        bound=THEOREM2.bound(observation),
        verdict=THEOREM2.verdict(observation),
    )
