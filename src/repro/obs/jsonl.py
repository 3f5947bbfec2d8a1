"""The durable telemetry sink: schema-versioned ``events.jsonl``.

:class:`JsonlTelemetry` implements the :class:`~repro.obs.telemetry.
Telemetry` protocol against one append-only JSON-lines stream:

* **Events** are written (and flushed) line by line the moment they are
  emitted, so ``repro progress`` can tail a live campaign and a hard
  kill loses at most the line being written — the same torn-line
  posture the result stores take, and the tolerant reader in
  :mod:`repro.obs.events` heals it.
* **Counters and spans** aggregate in memory exactly as in
  :class:`~repro.obs.telemetry.RecordingTelemetry`, whose ``count``,
  ``span`` and ``record_span`` this sink inherits (one dict update per
  call — cheap enough for per-round engine counters), and reach the
  file as a single ``stats`` event per :meth:`flush`, as *deltas*:
  each flush resets the aggregates, so consumers sum ``stats`` events
  instead of taking the last.
* **One writer** — the sink belongs to the process that built it.
  Sweep and search pools never write through it: the
  :class:`~repro.experiments.runner.WorkerPool` initializer only swaps
  the sink a worker inherits for an in-memory one, and the parent
  folds each finished unit's telemetry back in
  (:func:`~repro.obs.telemetry.replay`).  A pool with one worker runs
  its units in the parent, which writes their telemetry directly.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, TextIO, Union

from repro.obs.events import make_event
from repro.obs.telemetry import RecordingTelemetry


class JsonlTelemetry(RecordingTelemetry):
    """Append events to a JSON-lines stream; aggregate stats in memory.

    Args:
        path: The stream file (conventionally
            :func:`~repro.obs.events.events_path` of the campaign's
            results location).  Parent directories are created on
            first write.

    Events go to the stream, never to the inherited ``events`` list.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        self._file: Optional[TextIO] = None
        self._seq = 0

    def event(self, kind: str, **fields: object) -> None:
        """Write one event line and flush it to disk immediately."""
        record = make_event(kind, time.time(), os.getpid(), self._seq, fields)
        self._seq += 1
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def flush(self) -> None:
        """Emit the aggregates as one delta ``stats`` event and reset.

        A flush with nothing aggregated writes nothing, so periodic
        flushing (each sweep heartbeat calls this) stays quiet between
        bursts of engine work.
        """
        if not (self.counters or self.spans):
            return
        counters = self.counters
        spans = {name: stats.to_dict() for name, stats in self.spans.items()}
        self.counters = {}
        self.spans = {}
        self.event("stats", counters=counters, spans=spans)

    def close(self) -> None:
        """Flush the aggregates and close the stream file."""
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None
