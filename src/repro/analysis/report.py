"""Streaming campaign reports: the paper table set from one store.

``CampaignReport`` is the one fold from records to tables: ``repro
report``, ``repro sweep`` and the benches all render it.  Records
stream in (off :meth:`~repro.store.base.ResultStore.iter_records` or a
sweep's record list) without ever being materialised: each lands in
the aggregate of its *cell* — the record key without its seed
segment, which is the :attr:`~repro.experiments.spec.RunTask.cell_key`
of the task that wrote it, so a cell spans every axis and param but
the seed.  Each aggregate is one
:class:`~repro.analysis.stats.RunningSummary` per measure (Welford
mean/variance feeding the Student-t CI machinery), so memory is
O(cells), not O(runs).

The report has up to three tables, every row led by its cell key:

* the **campaign table** — one row per failure-free cell with
  completion-round summary, transmission mean and cap-hit count: the
  empirical side of the paper's Tables 1–2 ensemble claims;
* the **paper-reference table** — one row per claim of
  :data:`repro.analysis.claims.CLAIMS` whose scope covers the cell
  (Theorems 2, 10 and 18; a Strong Select cell on the clique-bridge
  gets a Theorem 2 and a Theorem 10 row), with the claim's bound label
  and verdict; a cell no claim covers has no row; and
* the **under-churn table** — fault-injected cells
  (``churn_kind != "none"``), rendered only when the campaign has any.
  Churn cells never enter the other two tables: the paper's bounds
  are stated for the failure-free model, so mixing crash/recovery runs
  into them would silently corrupt every comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.claims import CLAIMS, Observation
from repro.analysis.stats import RunningSummary
from repro.analysis.tables import render_table
from repro.core.harmonic import default_T
from repro.experiments.spec import algorithm_label_of

#: The Harmonic plateau length in an algorithm label such as
#: ``harmonic(T=4)``.
_PLATEAU = re.compile(r"^harmonic\(.*?\bT=(\d+)")


@dataclass
class CellAggregate:
    """Streaming aggregation state of one cell.

    The identity fields come from the cell's first record (every record
    of a cell shares them); the rest is either a counter or a
    :class:`RunningSummary`, so the aggregate never grows with the
    number of runs.
    """

    key: str
    sweep: str
    algorithm: str
    graph_kind: str
    n: int
    #: Nodes in the built network (the factory may round ``n``).
    graph_n: int
    collision_rule: str
    churn_kind: str
    #: The Harmonic plateau length ``T``, read from the cell's own
    #: algorithm segment; a bare ``harmonic`` cell runs the paper's
    #: ``default_T(graph_n)``.  ``None`` for other algorithms, and for
    #: Harmonic cells whose params set something else but not ``T``.
    harmonic_T: Optional[int] = None
    records: int = 0
    capped: int = 0
    completion: RunningSummary = field(default_factory=RunningSummary)
    transmissions: RunningSummary = field(
        default_factory=RunningSummary
    )

    @classmethod
    def of(cls, key: str, record) -> "CellAggregate":
        """An empty aggregate for ``record``'s cell ``key``."""
        label = algorithm_label_of(key, record.sweep)
        match = _PLATEAU.match(label)
        if match:
            harmonic_T: Optional[int] = int(match.group(1))
        elif label == "harmonic":
            harmonic_T = default_T(record.graph_n)
        else:
            harmonic_T = None
        return cls(
            key=key,
            sweep=record.sweep,
            algorithm=record.algorithm,
            graph_kind=record.graph_kind,
            n=record.n,
            graph_n=record.graph_n,
            collision_rule=record.collision_rule,
            churn_kind=record.churn_kind,
            harmonic_T=harmonic_T,
        )

    def add(self, record) -> None:
        """Fold one :class:`~repro.experiments.results.RunResult` in."""
        self.records += 1
        if record.completed and record.completion_round is not None:
            self.completion.add(record.completion_round)
        else:
            self.capped += 1
        self.transmissions.add(record.total_transmissions)

    def row(self) -> List[Any]:
        """The cell's campaign-table (or under-churn) row."""
        return [
            self.key,
            self.records,
            self.completion.summary().format()
            if self.completion.count
            else "—",
            f"{self.transmissions.mean:.1f}"
            if self.transmissions.count
            else "—",
            self.capped,
        ]

    def observation(self) -> Observation:
        """The cell's worst case, as the paper claims read it."""
        completion = self.completion
        worst = completion.summary().maximum if completion.count else None
        return Observation(
            self.algorithm, self.graph_kind, self.graph_n, worst,
            self.capped, self.harmonic_T,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The cell's JSON document."""
        doc: Dict[str, Any] = {
            "cell": self.key,
            "sweep": self.sweep,
            "algorithm": self.algorithm,
            "graph_kind": self.graph_kind,
            "n": self.n,
            "collision_rule": self.collision_rule,
            "churn_kind": self.churn_kind,
            "records": self.records,
            "capped": self.capped,
            "mean_transmissions": self.transmissions.mean
            if self.transmissions.count
            else None,
        }
        if self.completion.count:
            summary = self.completion.summary()
            doc["completion"] = {
                "count": summary.count,
                "mean": summary.mean,
                "median": summary.median,
                "stdev": summary.stdev,
                "min": summary.minimum,
                "max": summary.maximum,
                "ci95_half_width": summary.ci95_half_width,
            }
        return doc


class CampaignReport:
    """A streaming fold of campaign records into the paper tables."""

    CAMPAIGN_HEADER = [
        "cell",
        "runs",
        "completion rounds",
        "mean sends",
        "capped",
    ]

    REFERENCE_HEADER = [
        "cell",
        "paper bound",
        "measured",
        "consistent",
    ]

    def __init__(self) -> None:
        """Start with no cells and no records."""
        self.cells: Dict[str, CellAggregate] = {}
        self.records = 0

    def add(self, record) -> None:
        """Fold one record into its cell's aggregate."""
        key = record.cell_key
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellAggregate.of(key, record)
        cell.add(record)
        self.records += 1

    @classmethod
    def from_records(cls, records: Iterable) -> "CampaignReport":
        """Fold every record of an iterable into a report."""
        report = cls()
        for record in records:
            report.add(record)
        return report

    @classmethod
    def from_store(cls, store) -> "CampaignReport":
        """Stream every record of a result store into a report."""
        return cls.from_records(store.iter_records())

    def ordered(self, churned: bool = False) -> List[CellAggregate]:
        """The failure-free (or, with ``churned``, fault-injected)
        cells in table order: by sweep, algorithm, graph kind and
        size, then cell key."""
        return sorted(
            (
                cell
                for cell in self.cells.values()
                if (cell.churn_kind != "none") == churned
            ),
            key=lambda c: (c.sweep, c.algorithm, c.graph_kind, c.n, c.key),
        )

    # ------------------------------------------------------------------
    # Paper-reference table
    # ------------------------------------------------------------------
    def reference_rows(self) -> List[List[Any]]:
        """One row per failure-free cell and paper claim covering it."""
        rows: List[List[Any]] = []
        for cell in self.ordered():
            observation = cell.observation()
            claims = [c for c in CLAIMS if c.covers(observation)]
            if not claims:
                continue
            if cell.completion.count:
                measured = cell.completion.summary()
                shown = (
                    f"max {measured.maximum:.0f}, "
                    f"mean {measured.mean:.1f}"
                )
            else:
                shown = f"capped × {cell.capped}"
            for claim in claims:
                rows.append(
                    [
                        cell.key,
                        claim.bound(observation),
                        shown,
                        "—"
                        if observation.worst is None
                        else claim.verdict(observation),
                    ]
                )
        return rows

    # ------------------------------------------------------------------
    # Rendering / serialisation
    # ------------------------------------------------------------------
    def render(self, title: str = "campaign report") -> str:
        """Every non-empty table as one printable block."""
        blocks = [
            render_table(
                self.CAMPAIGN_HEADER,
                [cell.row() for cell in self.ordered()],
                title=f"{title}: {self.records} records, "
                f"{len(self.cells)} cells",
            )
        ]
        reference = self.reference_rows()
        if reference:
            blocks.append(
                render_table(
                    self.REFERENCE_HEADER,
                    reference,
                    title="paper reference bounds "
                    "(Thm 2 / Thm 10 / Thm 18)",
                )
            )
        churned = self.ordered(churned=True)
        if churned:
            blocks.append(
                render_table(
                    self.CAMPAIGN_HEADER,
                    [cell.row() for cell in churned],
                    title="under churn (fault-injected cells; "
                    "paper bounds do not apply)",
                )
            )
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form of the full report."""
        out: Dict[str, Any] = {
            "records": self.records,
            "cells": [cell.to_dict() for cell in self.ordered()],
        }
        churned = self.ordered(churned=True)
        if churned:
            out["churn_cells"] = [cell.to_dict() for cell in churned]
        return out

