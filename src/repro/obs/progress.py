"""Folding ``events.jsonl`` into campaign progress and perf summaries.

This module is the read side of the telemetry stream: it turns the raw
events (:func:`repro.obs.events.iter_events`) into the structures
the CLI consumers render — :class:`CampaignProgress` for
``repro progress`` (done/total, throughput, ETA, per-worker liveness)
and :func:`perf_summary` for the perf panel of ``repro report``
(summed ``stats`` deltas and campaign phase spans).
:func:`perf_tables` renders spans and counters for that panel and for
``repro run`` alike.

Folding is forward-only and tolerant: unknown event kinds are skipped
(the schema contract in :mod:`repro.obs.events`), and a half-written
stream from a live or killed campaign folds to the best state the
events so far support — which is exactly what a live ``repro
progress`` tail needs.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.events import events_path, iter_events
from repro.obs.telemetry import SpanStats

#: A worker whose last heartbeat is older than this many seconds is
#: rendered as stale by ``repro progress`` (likely dead or wedged).
STALE_WORKER_SECONDS = 30.0

_PathLike = str


class WorkerStatus:
    """The latest heartbeat state of one pool worker."""

    __slots__ = ("pid", "tasks_done", "rate", "last_seen")

    def __init__(
        self, pid: int, tasks_done: int, rate: float, last_seen: float
    ) -> None:
        self.pid = pid
        self.tasks_done = tasks_done
        self.rate = rate
        self.last_seen = last_seen

    def is_stale(self, now: Optional[float] = None) -> bool:
        """Whether the worker missed its heartbeat window."""
        if now is None:
            now = time.time()
        return (now - self.last_seen) > STALE_WORKER_SECONDS

    def to_dict(self, now: Optional[float] = None) -> Dict[str, object]:
        """The ``--json`` form of one worker row."""
        return {
            "pid": self.pid,
            "tasks_done": self.tasks_done,
            "rate": self.rate,
            "last_seen": self.last_seen,
            "stale": self.is_stale(now),
        }


class CampaignProgress:
    """The folded state of one campaign's telemetry stream."""

    def __init__(self) -> None:
        self.name: Optional[str] = None
        self.done = 0
        self.total = 0
        self.resumed = 0
        self.started_at: Optional[float] = None
        self.updated_at: Optional[float] = None
        self.finished = False
        self.elapsed: Optional[float] = None
        self.workers: Dict[int, WorkerStatus] = {}

    @property
    def rate(self) -> float:
        """Overall completed tasks per second since campaign start.

        Computed from the event timestamps (start to latest event), so
        it is stable for finished campaigns and live for running ones.
        """
        if self.started_at is None or self.updated_at is None:
            return 0.0
        window = self.updated_at - self.started_at
        if window <= 0.0:
            return 0.0
        return self.done / window

    @property
    def eta_seconds(self) -> Optional[float]:
        """Seconds to completion at the current rate (None if unknown)."""
        if self.finished:
            return 0.0
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        rate = self.rate
        if rate <= 0.0:
            return None
        return remaining / rate

    def to_dict(self, now: Optional[float] = None) -> Dict[str, object]:
        """The ``repro progress --json`` document."""
        return {
            "name": self.name,
            "done": self.done,
            "total": self.total,
            "resumed": self.resumed,
            "finished": self.finished,
            "rate": self.rate,
            "eta_seconds": self.eta_seconds,
            "elapsed": self.elapsed,
            "workers": [
                self.workers[pid].to_dict(now)
                for pid in sorted(self.workers)
            ],
        }

    def render_line(self, now: Optional[float] = None) -> str:
        """The single-line TTY status ``repro progress`` prints."""
        if self.total:
            pct = 100.0 * self.done / self.total
            head = f"{self.done}/{self.total} ({pct:.0f}%)"
        else:
            head = f"{self.done}/?"
        parts = [head, f"{self.rate:.1f} task/s"]
        if self.finished:
            if self.elapsed is not None:
                parts.append(f"done in {self.elapsed:.1f}s")
            else:
                parts.append("done")
        else:
            eta = self.eta_seconds
            parts.append(
                "eta ?" if eta is None else f"eta {eta:.0f}s"
            )
        if self.workers:
            live = sum(
                1 for w in self.workers.values() if not w.is_stale(now)
            )
            parts.append(f"workers {live}/{len(self.workers)}")
        name = self.name or "campaign"
        return f"{name}: " + "  ".join(parts)


def fold_events(
    events: Iterable[Dict[str, object]],
) -> CampaignProgress:
    """Fold an event sequence, in stream order, into a :class:`CampaignProgress`.

    Later events win; a stream with no ``campaign_end`` folds to a
    live, unfinished state.  A ``heartbeat`` reports on the worker its
    ``worker`` field names (the envelope ``pid`` is the writer); a
    heartbeat with no ``worker`` field, as streams written before the
    field existed have, was written by that worker, so its ``pid`` names it.
    """
    progress = CampaignProgress()
    for event in events:
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))  # type: ignore[arg-type]
        if progress.updated_at is None or ts > progress.updated_at:
            progress.updated_at = ts
        if kind == "campaign_start":
            progress.name = str(event.get("name", "")) or progress.name
            progress.total = int(event.get("total", 0))  # type: ignore[call-overload]
            progress.resumed = int(event.get("resumed", 0))  # type: ignore[call-overload]
            progress.started_at = ts
            progress.finished = False
        elif kind == "progress":
            progress.done = int(event.get("done", progress.done))  # type: ignore[call-overload]
            total = int(event.get("total", progress.total))  # type: ignore[call-overload]
            if total:
                progress.total = total
        elif kind == "heartbeat":
            pid = int(event.get("worker", event.get("pid", 0)))  # type: ignore[call-overload]
            progress.workers[pid] = WorkerStatus(
                pid=pid,
                tasks_done=int(event.get("tasks_done", 0)),  # type: ignore[call-overload]
                rate=float(event.get("rate", 0.0)),  # type: ignore[arg-type]
                last_seen=ts,
            )
        elif kind == "campaign_end":
            progress.done = int(event.get("done", progress.done))  # type: ignore[call-overload]
            total = int(event.get("total", progress.total))  # type: ignore[call-overload]
            if total:
                progress.total = total
            elapsed = event.get("elapsed")
            if elapsed is not None:
                progress.elapsed = float(elapsed)  # type: ignore[arg-type]
            progress.finished = True
    return progress


def read_progress(results: _PathLike) -> CampaignProgress:
    """Fold the events stream of the campaign at ``results``."""
    return fold_events(iter_events(events_path(results)))


def perf_document(
    spans: Mapping[str, SpanStats], counters: Mapping[str, object]
) -> Dict[str, object]:
    """The ``spans`` and ``counters`` of a perf document, names sorted."""
    return {
        "spans": {
            name: dict(stats.to_dict(), mean=stats.mean)
            for name, stats in sorted(spans.items())
        },
        "counters": dict(sorted(counters.items())),
    }


def perf_summary(results: _PathLike) -> Dict[str, object]:
    """Sum a campaign's ``stats`` deltas into one perf document.

    The shape feeds the perf panel of ``repro report`` and the
    ``repro progress --json`` consumers::

        {"counters": {name: total, ...},
         "spans": {name: {"count": n, "seconds": s, "mean": m}, ...},
         "engine_runs": <count of engine_run events>,
         "events": <total event count>}

    ``stats`` events are deltas (each flush resets the sink's
    aggregates), so summation — not last-wins — is the correct fold.
    """
    counters: Dict[str, float] = {}
    spans: Dict[str, SpanStats] = {}
    engine_runs = 0
    total_events = 0
    for event in iter_events(events_path(results)):
        total_events += 1
        kind = event.get("kind")
        if kind == "stats":
            raw_counters = event.get("counters")
            if isinstance(raw_counters, dict):
                for name, value in raw_counters.items():
                    counters[name] = counters.get(name, 0) + value
            raw_spans = event.get("spans")
            if isinstance(raw_spans, dict):
                for name, stats in raw_spans.items():
                    if isinstance(stats, dict):
                        spans.setdefault(name, SpanStats()).add(
                            float(stats.get("seconds", 0.0)),
                            int(stats.get("count", 0)),
                        )
        elif kind == "engine_run":
            engine_runs += 1
    summary = perf_document(spans, counters)
    summary.update(engine_runs=engine_runs, events=total_events)
    return summary


def _format_rows(rows: List[Tuple[str, ...]], header: Tuple[str, ...]) -> str:
    """Left-aligned fixed-width table (``""`` when there are no rows)."""
    if not rows:
        return ""
    table = [header] + rows
    widths = [
        max(len(row[col]) for row in table)
        for col in range(len(header))
    ]
    lines = []
    for idx, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def perf_tables(perf: Mapping[str, object]) -> Tuple[str, str]:
    """The phase table and the counter table of a perf document.

    Each is ``""`` when the document has no rows for it.  The
    ``repro report`` perf panel and ``repro run`` both print these.
    """
    spans = perf.get("spans")
    counters = perf.get("counters")
    span_rows: List[Tuple[str, ...]] = []
    if isinstance(spans, dict):
        span_rows = [
            (
                name,
                str(int(stats["count"])),
                f"{float(stats['seconds']):.4f}",
                f"{float(stats['mean']) * 1e3:.3f}",
            )
            for name, stats in sorted(spans.items())
        ]
    counter_rows: List[Tuple[str, ...]] = []
    if isinstance(counters, dict):
        counter_rows = [
            (name, str(counters[name])) for name in sorted(counters)
        ]
    return (
        _format_rows(span_rows, ("phase", "count", "total s", "mean ms")),
        _format_rows(counter_rows, ("counter", "total")),
    )


def render_perf_panel(perf: Mapping[str, object]) -> str:
    """Render a :func:`perf_summary` document as the report perf panel."""
    span_table, counter_table = perf_tables(perf)
    lines = ["== Performance (events.jsonl) =="]
    if span_table:
        lines.append(span_table)
    if counter_table:
        lines += ["", counter_table]
    lines.append("")
    lines.append(
        f"engine runs: {perf.get('engine_runs', 0)}   "
        f"events: {perf.get('events', 0)}"
    )
    return "\n".join(lines)
