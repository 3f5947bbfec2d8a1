"""``repro.obs`` — telemetry, tracing and profiling for the platform.

The observability layer the sweep/search/engine stack reports through:

* :mod:`repro.obs.telemetry` — the :class:`Telemetry` protocol
  (counters, spans, events), the cheap :class:`NullTelemetry`
  default, the in-memory :class:`RecordingTelemetry`, and the
  process-wide :func:`current`/:func:`set_telemetry`/:func:`use`
  installation points.  :class:`Stopwatch` is the sanctioned
  elapsed-time primitive for every layer outside this package.
* :mod:`repro.obs.events` — the schema-versioned ``events.jsonl``
  envelope, the tolerant reader and the :func:`environment_metadata`
  host fingerprint.
* :mod:`repro.obs.jsonl` — :class:`JsonlTelemetry`, the durable sink
  behind ``repro sweep --events``.  Only the campaign's own process
  writes it: pool workers record in memory and hand their telemetry
  back with each finished unit, and the parent folds it into its sink
  (:func:`replay`).
* :mod:`repro.obs.progress` — folding events into
  :class:`CampaignProgress` (``repro progress``) and
  :func:`perf_summary`; :func:`perf_tables` renders spans and counters
  for the ``repro report`` perf panel and ``repro run``.

The layer's contract: telemetry is **off by default** and enabling it
**never changes trace bytes** — it only observes.  ``tests/test_obs.py``
holds the differential proof across both engines and
``benchmarks/bench_obs.py`` the <=5 % enabled-sink overhead bound.
"""

from repro.obs.events import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA_VERSION,
    environment_metadata,
    events_path,
    iter_events,
    make_event,
    validate_event,
)
from repro.obs.jsonl import JsonlTelemetry
from repro.obs.progress import (
    STALE_WORKER_SECONDS,
    CampaignProgress,
    WorkerStatus,
    fold_events,
    perf_document,
    perf_summary,
    perf_tables,
    read_progress,
    render_perf_panel,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    RecordingTelemetry,
    Span,
    SpanStats,
    Stopwatch,
    Telemetry,
    current,
    replay,
    set_telemetry,
    use,
)

__all__ = [
    "ENVELOPE_FIELDS",
    "EVENT_SCHEMA_VERSION",
    "NULL_TELEMETRY",
    "STALE_WORKER_SECONDS",
    "CampaignProgress",
    "JsonlTelemetry",
    "NullTelemetry",
    "RecordingTelemetry",
    "Span",
    "SpanStats",
    "Stopwatch",
    "Telemetry",
    "WorkerStatus",
    "current",
    "environment_metadata",
    "events_path",
    "fold_events",
    "iter_events",
    "make_event",
    "perf_document",
    "perf_summary",
    "perf_tables",
    "read_progress",
    "render_perf_panel",
    "replay",
    "set_telemetry",
    "use",
    "validate_event",
]
