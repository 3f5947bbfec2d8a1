"""``repro.obs`` — telemetry, tracing and profiling for the platform.

The observability layer the sweep/search/engine stack reports through:

* :mod:`repro.obs.telemetry` — the :class:`Telemetry` protocol
  (counters, spans, events), the cheap :class:`NullTelemetry`
  default, the in-memory :class:`RecordingTelemetry`, and the
  process-wide :func:`current`/:func:`set_telemetry`/:func:`use`
  installation points.  :class:`Stopwatch` is the sanctioned
  elapsed-time primitive for every layer outside this package (rule
  RPR008).
* :mod:`repro.obs.events` — the schema-versioned ``events.jsonl``
  envelope, tolerant readers, the worker-stream merge and the
  :func:`environment_metadata` host fingerprint.
* :mod:`repro.obs.jsonl` — :class:`JsonlTelemetry`, the fork-safe
  durable sink behind ``repro sweep --events``.
* :mod:`repro.obs.progress` — folding events into
  :class:`CampaignProgress` (``repro progress``) and
  :func:`perf_summary` (the ``repro report`` perf panel).
* :mod:`repro.obs.profile` — :func:`profile_task` and
  :class:`ProfileReport` behind ``repro profile``.

The layer's contract: telemetry is **off by default** and enabling it
**never changes trace bytes** — it only observes.  ``tests/test_obs.py``
holds the differential proof across both engines and
``benchmarks/bench_obs.py`` the <=5 % disabled-path overhead bound.
"""

from repro.obs.events import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA_VERSION,
    environment_metadata,
    events_path,
    iter_events,
    make_event,
    merge_event_files,
    read_events,
    validate_event,
    worker_event_paths,
)
from repro.obs.jsonl import JsonlTelemetry
from repro.obs.profile import ProfileReport, profile_task
from repro.obs.progress import (
    STALE_WORKER_SECONDS,
    CampaignProgress,
    WorkerStatus,
    fold_events,
    perf_summary,
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
    "ProfileReport",
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
    "merge_event_files",
    "perf_summary",
    "profile_task",
    "read_events",
    "read_progress",
    "render_perf_panel",
    "set_telemetry",
    "use",
    "validate_event",
    "worker_event_paths",
]
