"""Zero-dependency instrumentation primitives behind :mod:`repro.obs`.

The :class:`Telemetry` protocol is the whole instrumentation surface:
counters (monotonic tallies), ``span()`` timers (``perf_counter``-based
phase aggregates) and free-form events.
Instrumented code never branches on *which* sink is installed — it asks
:func:`current` for the process-wide telemetry once (engines capture it
at construction) and calls through the protocol.

Three invariants make instrumentation safe to leave in hot paths:

* **Off by default, cheap when on** — the process default is
  :class:`NullTelemetry`, whose methods are no-ops sharing one inert
  span object.  Hot loops count in local integers whatever the sink
  and test ``enabled`` once per round to keep tallies, which they
  fold into the sink once per run, so an enabled sink costs <=5 %
  (``benchmarks/bench_obs.py``).  Enabling
  any sink never changes trace bytes: telemetry only *observes*
  (``tests/test_obs.py`` holds the differential proof).
* **Wall clocks live here** — elapsed-time measurement elsewhere goes
  through :class:`Stopwatch` or spans; ``repro check`` rule RPR003
  rejects a raw ``time.perf_counter``/``monotonic`` read in the
  packages that build traces and records.
* **Process-scoped, not thread-scoped** — the sweep layer fans out via
  processes, so one module-level current telemetry per process is the
  right granularity.  A pool worker records into its own
  :class:`RecordingTelemetry` and hands it back with each finished
  unit; the parent folds it into its own sink (:func:`replay`), so
  only the campaign's own process writes a stream.
"""

from __future__ import annotations

import contextlib
import time
from types import TracebackType
from typing import Dict, Iterator, List, Optional, Protocol


class Stopwatch:
    """Elapsed wall-time measurement for layers outside ``repro.obs``.

    The sanctioned replacement for ad-hoc ``time.perf_counter()``
    pairs: construction starts the clock, :meth:`elapsed` reads it.  Elapsed values feed human-facing fields only — never
    trace state.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (monotonic, sub-microsecond)."""
        return time.perf_counter() - self._start


class SpanRecorder(Protocol):
    """What a :class:`Span` needs from its owning telemetry."""

    def record_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` finished occurrences totalling ``seconds`` in."""
        ...  # pragma: no cover - protocol signature


class Span:
    """Context manager timing one named phase occurrence.

    Entering starts a ``perf_counter`` clock; exiting (exceptions
    included — a failed phase still took its time) reports the elapsed
    seconds to the owning telemetry's per-name aggregate.
    """

    __slots__ = ("_owner", "_name", "_start")

    def __init__(self, owner: SpanRecorder, name: str) -> None:
        self._owner = owner
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._owner.record_span(
            self._name, time.perf_counter() - self._start
        )


class _NullSpan:
    """The shared no-op span handed out by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


#: One inert span serves every ``NullTelemetry.span()`` call: no
#: allocation on the disabled path.
_NULL_SPAN = _NullSpan()


class Telemetry(Protocol):
    """The instrumentation surface every sink implements.

    Attributes:
        enabled: Hot loops test this once per round/phase and keep
            no tallies for the sink when it is ``False``.
    """

    enabled: bool

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        ...  # pragma: no cover - protocol signature

    def span(self, name: str) -> "Span | _NullSpan":
        """A context manager timing one occurrence of phase ``name``."""
        ...  # pragma: no cover - protocol signature

    def record_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` finished occurrences of ``name`` in."""
        ...  # pragma: no cover - protocol signature

    def event(self, kind: str, **fields: object) -> None:
        """Emit one free-form event (heartbeats, campaign markers)."""
        ...  # pragma: no cover - protocol signature

    def flush(self) -> None:
        """Push aggregated counters and spans to the sink."""
        ...  # pragma: no cover - protocol signature

    def close(self) -> None:
        """Flush and release the sink's resources."""
        ...  # pragma: no cover - protocol signature


class NullTelemetry:
    """The default sink: everything is a no-op and ``enabled`` is False.

    Instrumented hot paths skip their per-round tallying under this
    sink with one ``enabled`` test; ``benchmarks/bench_obs.py``
    measures what an enabled sink costs beyond it.
    """

    enabled: bool = False

    def count(self, name: str, value: int = 1) -> None:
        """Discard the counter increment."""
        return None

    def span(self, name: str) -> _NullSpan:
        """The shared inert span (no allocation, no clock read)."""
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Discard the span occurrences."""
        return None

    def event(self, kind: str, **fields: object) -> None:
        """Discard the event."""
        return None

    def flush(self) -> None:
        """Nothing buffered, nothing flushed."""
        return None

    def close(self) -> None:
        """Nothing held, nothing released."""
        return None


class SpanStats:
    """Aggregate of one named span: occurrence count and total seconds."""

    __slots__ = ("count", "seconds")

    def __init__(self, count: int = 0, seconds: float = 0.0) -> None:
        self.count = count
        self.seconds = seconds

    @property
    def mean(self) -> float:
        """Mean seconds per occurrence (0.0 when never entered)."""
        return self.seconds / self.count if self.count else 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        """Fold ``count`` occurrences totalling ``seconds`` in."""
        self.count += count
        self.seconds += seconds

    def to_dict(self) -> Dict[str, object]:
        """The event-schema form (``{"count": .., "seconds": ..}``)."""
        return {"count": self.count, "seconds": self.seconds}


class RecordingTelemetry:
    """In-memory sink for tests and ``repro profile``.

    Counters and span aggregates accumulate in plain dicts;
    events append to a list.  Nothing touches the filesystem.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, SpanStats] = {}
        self.events: List[Dict[str, object]] = []

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the in-memory counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str) -> Span:
        """A live timing span feeding :attr:`spans`."""
        return Span(self, name)

    def record_span(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` finished occurrences into :attr:`spans`."""
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.add(seconds, count)

    def event(self, kind: str, **fields: object) -> None:
        """Append the event (``kind`` key included) to :attr:`events`."""
        record: Dict[str, object] = {"kind": kind}
        record.update(fields)
        self.events.append(record)

    def flush(self) -> None:
        """Aggregates already live in memory; nothing to push."""
        return None

    def close(self) -> None:
        """Nothing held, nothing released."""
        return None


def replay(recording: RecordingTelemetry, sink: Telemetry) -> None:
    """Fold what ``recording`` captured into ``sink``.

    Counters add, span aggregates merge and events are re-emitted in
    their recorded order — how the parent of a worker pool takes in
    the telemetry each finished unit hands back.
    """
    for name, value in recording.counters.items():
        sink.count(name, value)
    for name, stats in recording.spans.items():
        sink.record_span(name, stats.seconds, stats.count)
    for event in recording.events:
        fields = dict(event)
        sink.event(str(fields.pop("kind")), **fields)


#: The process-wide null default (shared; NullTelemetry is stateless).
NULL_TELEMETRY = NullTelemetry()

_CURRENT: Telemetry = NULL_TELEMETRY


def current() -> Telemetry:
    """The process-wide telemetry (the null sink unless one was set)."""
    return _CURRENT


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` process-wide and return the previous sink.

    ``None`` restores the null default.  Engines capture the current
    telemetry at *construction*, so install the sink before building
    engines (or use :func:`use` around the whole run).
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry`: install for the block, then restore.

    The previous sink is restored even when the block raises.  Objects
    that captured the scoped telemetry (engines built inside the block)
    keep their reference — the restore only changes what *new* captures
    see.
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
