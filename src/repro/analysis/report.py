"""Streaming campaign reports: the paper table set from one store.

``repro report`` turns a campaign — any
:class:`~repro.store.base.ResultStore`, from a laptop-sized JSONL file
to a 10⁶-run sharded directory — into the paper-reproduction tables
without ever materialising the record list: records stream off
:meth:`~repro.store.base.ResultStore.iter_records` into one
:class:`~repro.analysis.stats.RunningSummary` per science cell
(Welford mean/variance feeding the Student-t CI machinery), so memory
is O(cells), not O(runs).

The report has up to three tables:

* the **campaign table** — one row per (sweep, algorithm, graph, n,
  collision rule) cell with completion-round summary, transmission
  mean and cap-hit count: the empirical side of the paper's Tables 1–2
  ensemble claims;
* the **paper-reference table** — rows for which the source paper
  states a bound the cell can be read against: Theorem 2's ``n − 3``
  worst-case lower bound for deterministic algorithms on the
  clique-bridge family, Theorem 10's ``X = ⌈n/ρ⌉`` Strong Select
  completion guarantee, and Theorem 18's ``2·n·T·H(n)`` w.h.p.
  Harmonic bound.  Cells outside every stated bound simply have no
  row — the report never invents a comparison; and
* the **under-churn table** — fault-injected cells
  (``churn_kind != "none"``), rendered only when the campaign has any.
  Churn records never enter the other two tables: the paper's bounds
  are stated for the failure-free model, so mixing crash/recovery runs
  into them would silently corrupt every comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import RunningSummary
from repro.analysis.tables import render_table

#: Graph kinds on the Theorem-2 comparison surface (the clique-bridge
#: family; mirrors repro.search.compare.THEOREM2_GRAPHS without
#: importing the search subsystem into the analysis layer).
THEOREM2_GRAPHS = ("clique-bridge",)

#: Deterministic algorithms Theorem 2's worst-case argument covers.
DETERMINISTIC_ALGORITHMS = ("round_robin", "strong_select")

#: Matches the ``harmonic(T=4)`` parameter segment a task key embeds for
#: the Harmonic plateau length (RunResult does not carry params directly).
_T_PARAM = re.compile(r"/harmonic\([^)]*?\bT=(\d+)")


@dataclass
class CellAggregate:
    """Streaming per-cell aggregation state.

    One instance per (sweep, algorithm, graph kind, n, collision rule)
    science cell; every field is either a counter or a
    :class:`RunningSummary`, so the aggregate never grows with the
    number of runs.
    """

    records: int = 0
    capped: int = 0
    completion: RunningSummary = field(default_factory=RunningSummary)
    transmissions: RunningSummary = field(
        default_factory=RunningSummary
    )
    harmonic_T: Optional[int] = None
    #: Set when the cell's Harmonic records disagree on ``T`` (the cell
    #: key carries no params): no single Theorem 18 bound applies.
    harmonic_T_mixed: bool = False

    def add(self, record) -> None:
        """Fold one :class:`~repro.experiments.results.RunResult` in."""
        self.records += 1
        if record.completed and record.completion_round is not None:
            self.completion.add(record.completion_round)
        else:
            self.capped += 1
        self.transmissions.add(record.total_transmissions)
        if record.algorithm == "harmonic":
            match = _T_PARAM.search(record.key)
            T = int(match.group(1)) if match else None
            if self.records == 1:
                self.harmonic_T = T
            elif T != self.harmonic_T:
                self.harmonic_T_mixed = True


#: The grouping key of one campaign-table row.
CellKey = Tuple[str, str, str, int, str]

#: The grouping key of one under-churn row: a cell key plus the
#: fault-injection kind that produced the records.
ChurnCellKey = Tuple[str, str, str, int, str, str]


class CampaignReport:
    """A streaming fold of campaign records into the paper tables."""

    CAMPAIGN_HEADER = [
        "sweep",
        "algorithm",
        "graph",
        "n",
        "CR",
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

    CHURN_HEADER = [
        "sweep",
        "algorithm",
        "graph",
        "n",
        "CR",
        "churn",
        "runs",
        "completion rounds",
        "mean sends",
        "capped",
    ]

    def __init__(self) -> None:
        """Start with no cells and no records."""
        self.cells: Dict[CellKey, CellAggregate] = {}
        self.churn_cells: Dict[ChurnCellKey, CellAggregate] = {}
        self.records = 0

    def add(self, record) -> None:
        """Fold one record into its cell's aggregate.

        Fault-injected records (``churn_kind != "none"``) aggregate
        into their own cells — the campaign and paper-reference tables
        stay failure-free, so the paper's bounds are only ever read
        against the model they are stated for.
        """
        churn_kind = getattr(record, "churn_kind", "none")
        if churn_kind != "none":
            churn_key: ChurnCellKey = (
                record.sweep,
                record.algorithm,
                record.graph_kind,
                record.n,
                record.collision_rule,
                churn_kind,
            )
            churn_cell = self.churn_cells.get(churn_key)
            if churn_cell is None:
                churn_cell = CellAggregate()
                self.churn_cells[churn_key] = churn_cell
            churn_cell.add(record)
            self.records += 1
            return
        key: CellKey = (
            record.sweep,
            record.algorithm,
            record.graph_kind,
            record.n,
            record.collision_rule,
        )
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellAggregate()
        cell.add(record)
        self.records += 1

    @classmethod
    def from_store(cls, store) -> "CampaignReport":
        """Stream every record of a result store into a report."""
        report = cls()
        for record in store.iter_records():
            report.add(record)
        return report

    # ------------------------------------------------------------------
    # Campaign table
    # ------------------------------------------------------------------
    def table_rows(self) -> List[List[Any]]:
        """One row per science cell, sorted by the grouping key."""
        rows: List[List[Any]] = []
        for key in sorted(self.cells):
            sweep, algorithm, graph, n, cr = key
            cell = self.cells[key]
            rows.append(
                [
                    sweep,
                    algorithm,
                    graph,
                    n,
                    cr,
                    cell.records,
                    cell.completion.summary().format()
                    if cell.completion.count
                    else "—",
                    f"{cell.transmissions.mean:.1f}"
                    if cell.transmissions.count
                    else "—",
                    cell.capped,
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Under-churn table
    # ------------------------------------------------------------------
    def churn_rows(self) -> List[List[Any]]:
        """One row per fault-injected cell, sorted by the grouping key.

        Empty when the campaign has no churn records, in which case the
        report renders without the companion table at all.
        """
        rows: List[List[Any]] = []
        for key in sorted(self.churn_cells):
            sweep, algorithm, graph, n, cr, churn_kind = key
            cell = self.churn_cells[key]
            rows.append(
                [
                    sweep,
                    algorithm,
                    graph,
                    n,
                    cr,
                    churn_kind,
                    cell.records,
                    cell.completion.summary().format()
                    if cell.completion.count
                    else "—",
                    f"{cell.transmissions.mean:.1f}"
                    if cell.transmissions.count
                    else "—",
                    cell.capped,
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Paper-reference table
    # ------------------------------------------------------------------
    def reference_rows(self) -> List[List[Any]]:
        """Rows reading measured cells against the paper's bounds."""
        rows: List[List[Any]] = []
        for key in sorted(self.cells):
            sweep, algorithm, graph, n, cr = key
            cell = self.cells[key]
            if cell.harmonic_T_mixed:
                continue
            reference = paper_reference(
                algorithm, graph, n, harmonic_T=cell.harmonic_T
            )
            if reference is None:
                continue
            label, bound, check = reference
            if cell.completion.count:
                measured = cell.completion.summary()
                worst = measured.maximum
                shown = (
                    f"max {measured.maximum:.0f}, "
                    f"mean {measured.mean:.1f}"
                )
            else:
                worst = None
                shown = f"capped × {cell.capped}"
            rows.append(
                [
                    f"{sweep}/{algorithm}/{graph}:n{n}/{cr}",
                    label,
                    shown,
                    "—" if worst is None else check(worst, cell),
                ]
            )
        return rows

    # ------------------------------------------------------------------
    # Rendering / serialisation
    # ------------------------------------------------------------------
    def render(self, title: str = "campaign report") -> str:
        """Both tables as one printable block."""
        blocks = [
            render_table(
                self.CAMPAIGN_HEADER,
                self.table_rows(),
                title=f"{title}: {self.records} records, "
                f"{len(self.cells) + len(self.churn_cells)} cells",
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
        churn = self.churn_rows()
        if churn:
            blocks.append(
                render_table(
                    self.CHURN_HEADER,
                    churn,
                    title="under churn (fault-injected cells; "
                    "paper bounds do not apply)",
                )
            )
        return "\n\n".join(blocks)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable form of the full report."""
        cells = []
        for key in sorted(self.cells):
            sweep, algorithm, graph, n, cr = key
            cell = self.cells[key]
            doc: Dict[str, Any] = {
                "sweep": sweep,
                "algorithm": algorithm,
                "graph_kind": graph,
                "n": n,
                "collision_rule": cr,
                "records": cell.records,
                "capped": cell.capped,
                "mean_transmissions": cell.transmissions.mean
                if cell.transmissions.count
                else None,
            }
            if cell.completion.count:
                summary = cell.completion.summary()
                doc["completion"] = {
                    "count": summary.count,
                    "mean": summary.mean,
                    "median": summary.median,
                    "stdev": summary.stdev,
                    "min": summary.minimum,
                    "max": summary.maximum,
                    "ci95_half_width": summary.ci95_half_width,
                }
            cells.append(doc)
        out: Dict[str, Any] = {"records": self.records, "cells": cells}
        if self.churn_cells:
            churn_docs = []
            for churn_key in sorted(self.churn_cells):
                sweep, algorithm, graph, n, cr, churn_kind = churn_key
                cell = self.churn_cells[churn_key]
                churn_doc: Dict[str, Any] = {
                    "sweep": sweep,
                    "algorithm": algorithm,
                    "graph_kind": graph,
                    "n": n,
                    "collision_rule": cr,
                    "churn_kind": churn_kind,
                    "records": cell.records,
                    "capped": cell.capped,
                    "mean_transmissions": cell.transmissions.mean
                    if cell.transmissions.count
                    else None,
                }
                if cell.completion.count:
                    summary = cell.completion.summary()
                    churn_doc["completion"] = {
                        "count": summary.count,
                        "mean": summary.mean,
                        "median": summary.median,
                        "stdev": summary.stdev,
                        "min": summary.minimum,
                        "max": summary.maximum,
                        "ci95_half_width": summary.ci95_half_width,
                    }
                churn_docs.append(churn_doc)
            out["churn_cells"] = churn_docs
        return out


def paper_reference(
    algorithm: str,
    graph_kind: str,
    n: int,
    harmonic_T: Optional[int] = None,
):
    """The paper bound a cell can be read against, if one is stated.

    Returns ``None`` when the paper states no bound for the
    combination, else ``(label, bound_value, check)`` where ``check``
    maps the measured worst completion round (plus the cell aggregate)
    to a short verdict string.
    """
    if (
        graph_kind in THEOREM2_GRAPHS
        and algorithm in DETERMINISTIC_ALGORITHMS
    ):
        bound = max(3, n) - 3
        return (
            f"worst case ≥ {bound} (Thm 2)",
            bound,
            # Theorem 2 bounds the adversarial worst case; a sweep's
            # sampled adversaries may or may not realise it, so the
            # verdict reports which side the measurement landed on
            # rather than pass/fail.
            lambda worst, cell: "reached"
            if worst >= bound or cell.capped
            else "not reached",
        )
    if algorithm == "strong_select":
        from repro.core.strong_select import build_schedule

        bound = build_schedule(n).round_bound()
        return (
            f"completes ≤ {bound} (Thm 10)",
            bound,
            lambda worst, cell: "holds"
            if worst <= bound and not cell.capped
            else "VIOLATED",
        )
    if algorithm == "harmonic" and harmonic_T is not None:
        from repro.core.harmonic import completion_bound

        bound = completion_bound(n, harmonic_T)
        return (
            f"completes ≤ {bound} whp (Thm 18)",
            bound,
            # A w.h.p. bound tolerates stragglers; report the side.
            lambda worst, cell: "within"
            if worst <= bound
            else "exceeded",
        )
    return None
