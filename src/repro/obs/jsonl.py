"""The durable telemetry sink: schema-versioned ``events.jsonl``.

:class:`JsonlTelemetry` implements the :class:`~repro.obs.telemetry.
Telemetry` protocol against one append-only JSON-lines stream:

* **Events** are written (and flushed) line by line the moment they are
  emitted, so ``repro progress`` can tail a live campaign and a hard
  kill loses at most the line being written — the same torn-line
  posture the result stores take, and the tolerant reader in
  :mod:`repro.obs.events` heals it.
* **Counters and spans** aggregate in memory (one dict update
  per call — cheap enough for per-round engine counters) and reach the
  file as a single ``stats`` event per :meth:`flush`, as *deltas*:
  each flush resets the aggregates, so consumers sum ``stats`` events
  instead of taking the last.
* **Fork safety** — sweep pools fork workers that inherit the parent's
  sink object.  Every operation checks the pid: in a child, the
  inherited file handle and aggregates are abandoned (never closed —
  the handle is shared with the parent) and writes divert to a
  sibling ``events-<pid>.jsonl`` stream.  The sweep's closing
  :func:`~repro.obs.events.merge_event_files` folds the worker streams
  back into the main one.  Spawn-start pools install their own
  ``worker=True`` sink via the pool initializer instead.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Union

from repro.obs.events import make_event
from repro.obs.telemetry import Span


class JsonlTelemetry:
    """Append events to a JSON-lines stream; aggregate stats in memory.

    Args:
        path: The stream file (conventionally
            :func:`~repro.obs.events.events_path` of the campaign's
            results location).  Parent directories are created on
            first write.
        worker: Force the pid-suffixed sibling stream even in the
            constructing process — what a spawn-start pool initializer
            passes, since each spawned worker constructs its own sink
            and must not contend for the parent's file.
    """

    enabled: bool = True

    def __init__(self, path: Union[str, Path], worker: bool = False) -> None:
        self.path = Path(path)
        self._worker = worker
        self._owner_pid = os.getpid()
        self._state_pid = self._owner_pid
        self._file: Optional[TextIO] = None
        self._seq = 0
        self._counters: Dict[str, int] = {}
        # name -> [count, total seconds]
        self._spans: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Fork safety
    # ------------------------------------------------------------------
    def _fresh(self) -> None:
        """Reset inherited state on the first touch after a fork.

        The parent's file handle is abandoned unclosed (closing would
        flush shared buffered bytes into the parent's stream) and the
        aggregates restart from zero — a child's counters are its own.
        """
        pid = os.getpid()
        if pid != self._state_pid:
            self._state_pid = pid
            self._file = None
            self._seq = 0
            self._counters = {}
            self._spans = {}

    def _sink(self) -> TextIO:
        """The open stream for this process, opening it on first use."""
        if self._file is None:
            target = self.path
            if self._worker or self._state_pid != self._owner_pid:
                target = self.path.with_name(
                    f"{self.path.stem}-{self._state_pid}.jsonl"
                )
            target.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(target, "a", encoding="utf-8")
        return self._file

    # ------------------------------------------------------------------
    # Telemetry protocol
    # ------------------------------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the in-memory counter ``name``."""
        self._fresh()
        self._counters[name] = self._counters.get(name, 0) + value

    def span(self, name: str) -> Span:
        """A live timing span feeding the in-memory aggregates."""
        return Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Fold one finished span occurrence into the aggregates."""
        self._fresh()
        stats = self._spans.get(name)
        if stats is None:
            self._spans[name] = [1.0, seconds]
        else:
            stats[0] += 1.0
            stats[1] += seconds

    def event(self, kind: str, **fields: object) -> None:
        """Write one event line and flush it to disk immediately."""
        self._fresh()
        record = make_event(
            kind, time.time(), self._state_pid, self._seq, fields
        )
        self._seq += 1
        sink = self._sink()
        sink.write(json.dumps(record, sort_keys=True) + "\n")
        sink.flush()

    def flush(self) -> None:
        """Emit the aggregates as one delta ``stats`` event and reset.

        A flush with nothing aggregated writes nothing, so periodic
        flushing (worker heartbeats call this) stays quiet between
        bursts of engine work.
        """
        self._fresh()
        if not (self._counters or self._spans):
            return
        counters = dict(self._counters)
        spans = {
            name: {"count": int(stats[0]), "seconds": stats[1]}
            for name, stats in self._spans.items()
        }
        self._counters.clear()
        self._spans.clear()
        self.event("stats", counters=counters, spans=spans)

    def close(self) -> None:
        """Flush the aggregates and close this process's stream file."""
        self._fresh()
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None
