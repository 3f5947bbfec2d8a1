"""The ``events.jsonl`` schema and file handling.

A campaign's telemetry stream is a sidecar JSON-lines file beside its
result store (:func:`events_path`), written by the campaign's own
process alone: pool workers hand their telemetry back with each
finished unit instead of writing files (see
:class:`~repro.experiments.runner.WorkerPool`).  Every line is one
event object carrying a fixed envelope::

    {"v": 1, "kind": "heartbeat", "ts": 1754650000.123,
     "pid": 4242, "seq": 17, ...free-form fields...}

* ``v`` — :data:`EVENT_SCHEMA_VERSION`; readers reject lines from a
  different schema generation instead of misparsing them.
* ``kind`` — the event type (``campaign_start``, ``progress``,
  ``heartbeat``, ``stats``, ``engine_run``, ``campaign_end``, …).
  Consumers ignore kinds they do not know, so adding kinds is not a
  schema bump.
* ``ts`` — wall-clock epoch seconds at writing (a pool worker's
  events are stamped when the parent folds them in).  Events are telemetry
  *about* a run, never inputs to one: no trace byte ever derives from
  an event, which is why wall time is legal here (rule RPR003 rejects
  it in the packages that build traces and records).
* ``pid``/``seq`` — the writing process and its sequence number, so
  file order is ``seq`` order.  A ``heartbeat`` names the pool worker
  it reports on in its own ``worker`` field.

Reading is tolerant by design (the same policy as the result stores in
:mod:`repro.store`): a torn final line — the signature of a hard kill
mid-write — or a foreign line is skipped and counted, never fatal.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

#: Version stamped into (and required of) every event line.
EVENT_SCHEMA_VERSION = 1

#: Envelope fields every valid event carries.
ENVELOPE_FIELDS = ("v", "kind", "ts", "pid", "seq")

_PathLike = Union[str, Path]


def make_event(
    kind: str,
    ts: float,
    pid: int,
    seq: int,
    fields: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Build one schema-valid event dict (envelope wins over fields)."""
    record: Dict[str, object] = dict(fields or {})
    record.update(
        v=EVENT_SCHEMA_VERSION, kind=kind, ts=ts, pid=pid, seq=seq
    )
    return record


def validate_event(obj: object) -> Dict[str, object]:
    """Check one parsed line against the schema; raise ``ValueError``.

    Returns the dict unchanged on success so callers can validate
    inline (``event = validate_event(json.loads(line))``).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"event must be an object, got {type(obj).__name__}")
    missing = [f for f in ENVELOPE_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"event missing envelope fields {missing}")
    if obj["v"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event schema v{obj['v']!r} != supported "
            f"v{EVENT_SCHEMA_VERSION}"
        )
    if not isinstance(obj["kind"], str):
        raise ValueError("event kind must be a string")
    return obj


def events_path(results: _PathLike) -> Path:
    """The events stream belonging to a campaign at ``results``.

    A campaign *directory* (sharded store) keeps its stream
    inside (``<dir>/events.jsonl``); a results *file* (single JSONL
    store) gets a sidecar (``<file>.events.jsonl``), so one directory
    can hold several campaigns' streams without collision.  A trailing
    path separator requests the directory form even before the
    campaign directory exists — the same convention
    ``repro.store.detect_backend`` uses.
    """
    path = Path(results)
    if path.is_dir() or str(results).endswith(("/", os.sep)):
        return path / "events.jsonl"
    return path.with_name(path.name + ".events.jsonl")


def iter_events(path: _PathLike) -> Iterator[Dict[str, object]]:
    """Yield the valid events of one stream file, skipping damage.

    Torn, unparsable or schema-violating lines are skipped silently —
    the tolerant-read policy shared with the result stores.  A missing
    file yields nothing (a campaign that never enabled ``--events`` is
    not an error at read time).
    """
    file_path = Path(path)
    if not file_path.exists():
        return
    with open(file_path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                yield validate_event(json.loads(line))
            except ValueError:
                continue


def environment_metadata() -> Dict[str, object]:
    """The host fingerprint stamped into campaign/benchmark manifests.

    Enough to tell whether two telemetry or benchmark trajectories are
    comparable — interpreter, platform and core count — without
    leaking anything host-identifying beyond what CI logs already
    show.
    """
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
