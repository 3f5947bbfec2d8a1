"""Single-file JSON-lines backend — today's format, bit for bit.

The default backend and the canonical interchange format: one record
per line, ``json.dumps(record.to_dict(), sort_keys=True)``, appended as
each task finishes so an interrupted campaign leaves a valid prefix.
Every results file written before this module existed loads and
resumes unchanged through :class:`JsonlStore`.

The module-level helpers (:func:`iter_jsonl`, :func:`scan_jsonl`,
:func:`open_for_append`) are the one implementation of torn-line
skipping and tail healing; the sharded backend reuses them per shard.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, Optional, TextIO

from repro.store.base import (
    ParseFn,
    Record,
    ResultStore,
    StoreHealth,
    ValidatorFn,
)


def iter_jsonl(
    path: str,
    parse: ParseFn,
    health: StoreHealth,
    validator: Optional[ValidatorFn] = None,
) -> Iterator[Record]:
    """Stream one JSON-lines file's records in storage order, counting
    damage.

    The single generic loop behind every JSONL-shaped load in the
    package: ``parse`` turns one decoded document into a record
    carrying a ``.key``; unparsable or incomplete lines — an
    interrupted run's final line may be torn — bump
    ``health.skipped_lines`` instead of raising; records failing the
    optional ``validator`` bump ``health.rejected_records``.  O(1)
    memory: nothing is accumulated, duplicates are *not* collapsed.  A
    missing file yields nothing.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = parse(json.loads(line))
                record.key  # a keyless record is foreign
            except (ValueError, KeyError, TypeError):
                health.skipped_lines += 1
                continue  # torn or foreign line — re-run its task
            if validator is not None and not validator(record):
                health.rejected_records += 1
                continue  # distrusted record — re-run its task
            yield record


def scan_jsonl(
    path: str,
    parse: ParseFn,
    records: Dict[str, Record],
    health: StoreHealth,
    validator: Optional[ValidatorFn] = None,
) -> Dict[str, Record]:
    """Fold one JSON-lines file into a keyed record map (later
    duplicates win) through :func:`iter_jsonl`.  Returns ``records``."""
    for record in iter_jsonl(path, parse, health, validator):
        records[record.key] = record
    return records


def open_for_append(path: str) -> TextIO:
    """Open a results file for appending, creating parent directories.

    If the file ends mid-line (a previous run was killed mid-write), a
    newline is inserted first so the next record does not concatenate
    onto the torn line and get lost with it.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    torn_tail = False
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as existing:
            existing.seek(-1, os.SEEK_END)
            torn_tail = existing.read(1) != b"\n"
    f = open(path, "a", encoding="utf-8")
    if torn_tail:
        f.write("\n")
    return f


def write_jsonl_atomic(path: str, records: Iterable[Any]) -> int:
    """Write records to ``path`` as JSONL via a temp file + rename.

    The merge tool's writer: the output either fully appears or is
    left as it was (no torn merged files), and writing the same
    records twice produces byte-identical output.  Returns the record
    count.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    count = 0
    with open(tmp, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            count += 1
    os.replace(tmp, path)
    return count


class JsonlStore(ResultStore):
    """The single-file JSON-lines backend (default).

    Every append is flushed at once, so each record is durable the
    moment it is written.

    Args:
        path: The results file.
        parse: Record codec (document → record with ``.key``).
        validator: Optional load-time validator hook.
        fsync: Additionally ``os.fsync`` on every flush, trading
            throughput for power-loss durability (default off — the
            historical behaviour flushed the userspace buffer only).
    """

    backend = "jsonl"

    def __init__(
        self,
        path: str,
        parse: ParseFn,
        validator: Optional[ValidatorFn] = None,
        fsync: bool = False,
    ) -> None:
        """Remember the path, the codec and the fsync policy."""
        super().__init__(parse, validator)
        self.path = path
        self.fsync = fsync
        self._file: Optional[TextIO] = None
        self._appended = 0

    def claim_keys(self) -> Dict[str, Record]:
        """Load the file into a key → record map (see base class)."""
        records: Dict[str, Record] = {}
        scan_jsonl(
            self.path, self.parse, records, self.health, self.validator
        )
        return records

    def iter_records(self) -> Iterator[Record]:
        """Stream the file's records in line order."""
        yield from iter_jsonl(
            self.path, self.parse, self.health, self.validator
        )

    def append(self, record: Record) -> None:
        """Append and flush one record, healing a torn tail first."""
        if self._file is None:
            self._file = open_for_append(self.path)
        self._file.write(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
        )
        self._appended += 1
        self.flush()

    def flush(self) -> None:
        """Flush the append handle (and optionally fsync)."""
        if self._file is not None:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())

    def manifest(self) -> Dict[str, Any]:
        """Backend, path and append count (cheap: no file scan)."""
        return {
            "backend": self.backend,
            "path": self.path,
            "appended": self._appended,
        }

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None
