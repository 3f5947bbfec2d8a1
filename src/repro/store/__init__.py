"""Campaign result storage: one protocol, two backends.

The storage seam between run generation (sweeps, searches, the future
``repro serve`` daemon) and run consumption (resume, ``repro merge``,
``repro report``)::

    from repro.store import open_store
    from repro.experiments.results import RunResult

    with open_store("results/campaign", RunResult.from_dict,
                    backend="sharded") as store:
        done = store.claim_keys()          # resume set
        store.append(record)               # durable per backend cadence
        for r in store.iter_records():     # streaming analysis
            ...
        print(store.manifest())

Backends (see ``docs/STORAGE.md`` for the matrix):

* ``jsonl`` — :class:`~repro.store.jsonl.JsonlStore`: today's
  single-file JSON-lines format, bit for bit; the default, and every
  pre-existing results file resumes through it unchanged.
* ``sharded`` — :class:`~repro.store.sharded.ShardedStore`: a campaign
  directory of key-hashed JSONL shards plus ``manifest.json``.

Every backend shares resume-by-key, torn-write damage accounting
(:class:`~repro.store.base.StoreHealth`), the validator hook, and a
flush cadence of its own (jsonl: every record, always; sharded: every
64 by default, its ``flush_every`` knob).  Sweeps and searches drive
their store through one session,
:class:`repro.experiments.runner.StoreSession`: the resume scan, the
appends and the closing flush.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.store.base import (
    ParseFn,
    RawRecord,
    ResultStore,
    StoreHealth,
    StoreMismatchError,
    ValidatorFn,
)
from repro.store.jsonl import JsonlStore
from repro.store.sharded import (
    ShardedStore,
    merge_store,
    read_manifest,
    shard_index,
)

#: CLI vocabulary for ``--store``; ``auto`` defers to detection.
STORE_BACKENDS = ("auto", "jsonl", "sharded")


def detect_backend(path: str) -> str:
    """Infer the backend a results path refers to.

    An existing campaign directory — or a path with a trailing
    separator, requesting one before it exists — is ``sharded``;
    anything else is a single JSONL file, which keeps every historical
    ``--results foo.jsonl`` invocation meaning exactly what it always
    has.
    """
    if os.path.isdir(path):
        return "sharded"
    if path.endswith(os.sep) or path.endswith("/"):
        return "sharded"
    return "jsonl"


def open_store(
    path: str,
    parse: ParseFn,
    backend: Optional[str] = None,
    validator: Optional[ValidatorFn] = None,
    fingerprint: Optional[str] = None,
) -> ResultStore:
    """Open (or create) the result store behind a ``--results`` path.

    Args:
        path: Results file (jsonl) or campaign directory (sharded).
        parse: Record codec (document → record with ``.key``).
        backend: ``"jsonl"`` / ``"sharded"``; ``None`` or ``"auto"``
            runs :func:`detect_backend` on the path.
        validator: Optional load-time validator hook (see
            :class:`~repro.store.base.StoreHealth`).
        fingerprint: Campaign/spec fingerprint for manifest-carrying
            backends (mismatch on reopen raises
            :class:`StoreMismatchError`).

    Each backend keeps its own flush cadence, shard count and fsync
    policy; callers needing another build the backend class directly.
    """
    if backend in (None, "auto"):
        backend = detect_backend(path)
    if backend == "jsonl":
        return JsonlStore(path, parse, validator=validator)
    if backend == "sharded":
        return ShardedStore(
            path, parse, validator=validator, fingerprint=fingerprint
        )
    raise ValueError(
        f"unknown store backend {backend!r}; known: "
        f"{[b for b in STORE_BACKENDS if b != 'auto']}"
    )


__all__ = [
    "JsonlStore",
    "RawRecord",
    "ResultStore",
    "STORE_BACKENDS",
    "ShardedStore",
    "StoreHealth",
    "StoreMismatchError",
    "detect_backend",
    "merge_store",
    "open_store",
    "read_manifest",
    "shard_index",
]
