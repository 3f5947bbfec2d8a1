"""Single-cell profiling behind ``repro profile``.

Runs exactly one experiment cell under an in-memory
:class:`~repro.obs.telemetry.RecordingTelemetry` and distils the
captured spans and counters into a :class:`ProfileReport` — the
phase/timing + counter table the CLI prints.  Because the runner and
engines are instrumented through the process-wide telemetry
(:func:`~repro.obs.telemetry.use`), profiling reuses the exact same
instrumentation points a ``--events`` sweep exercises; there is no
separate profiling code path to drift.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.progress import _format_rows
from repro.obs.telemetry import RecordingTelemetry, use


class ProfileReport:
    """The distilled spans + counters of one profiled cell."""

    def __init__(
        self,
        spans: Dict[str, Dict[str, float]],
        counters: Dict[str, int],
        result: Dict[str, object],
    ) -> None:
        self.spans = spans
        self.counters = counters
        self.result = result

    @classmethod
    def from_telemetry(
        cls,
        telemetry: RecordingTelemetry,
        result: Dict[str, object],
    ) -> "ProfileReport":
        """Distil a finished recording into a report."""
        spans = {
            name: {
                "count": float(stats.count),
                "seconds": stats.seconds,
                "mean": stats.mean,
            }
            for name, stats in telemetry.spans.items()
        }
        counters = dict(telemetry.counters)
        return cls(spans=spans, counters=counters, result=result)

    def span_rows(self) -> List[Tuple[str, str, str, str]]:
        """Table rows ``(phase, count, total s, mean ms)``, sorted."""
        rows = []
        for name in sorted(self.spans):
            stats = self.spans[name]
            rows.append(
                (
                    name,
                    str(int(stats["count"])),
                    f"{stats['seconds']:.4f}",
                    f"{stats['mean'] * 1e3:.3f}",
                )
            )
        return rows

    def counter_rows(self) -> List[Tuple[str, str]]:
        """Table rows ``(counter, total)``, sorted by name."""
        return [
            (name, str(self.counters[name]))
            for name in sorted(self.counters)
        ]

    def to_dict(self) -> Dict[str, object]:
        """The ``repro profile --json`` document."""
        return {
            "spans": {
                name: {
                    "count": int(stats["count"]),
                    "seconds": stats["seconds"],
                    "mean": stats["mean"],
                }
                for name, stats in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "result": self.result,
        }

    def render(self) -> str:
        """The human table ``repro profile`` prints."""
        lines = []
        result = self.result
        lines.append(
            "cell: "
            + " ".join(
                f"{key}={result[key]}"
                for key in (
                    "algorithm",
                    "graph_kind",
                    "n",
                    "adversary_kind",
                    "collision_rule",
                    "engine",
                    "seed",
                )
                if key in result
            )
        )
        if "rounds" in result:
            completed = result.get("completed")
            status = "completed" if completed else "cut off"
            lines.append(f"rounds: {result['rounds']} ({status})")
        if self.spans:
            lines.append("")
            lines.append(
                _format_rows(
                    self.span_rows(),
                    ("phase", "count", "total s", "mean ms"),
                )
            )
        if self.counters:
            lines.append("")
            lines.append(
                _format_rows(self.counter_rows(), ("counter", "total"))
            )
        return "\n".join(lines)


def profile_task(task: object) -> ProfileReport:
    """Run one experiment task under recording telemetry.

    ``task`` is a :class:`repro.experiments.spec.RunTask`; the
    import of the runner is deferred so :mod:`repro.obs` stays a leaf
    package (the runner imports telemetry from here).
    """
    from repro.experiments.runner import execute_task

    telemetry = RecordingTelemetry()
    with use(telemetry):
        result = execute_task(task)
    return ProfileReport.from_telemetry(telemetry, result.to_dict())
