"""The result-store protocol shared by every campaign backend.

A *result store* is the durable ledger behind sweeps and searches: a
keyed collection of records (anything exposing ``.key`` and
``.to_dict()``) that supports resume-by-key.  The protocol is four
verbs plus bookkeeping:

* :meth:`ResultStore.claim_keys` — load everything already on disk as a
  ``key → record`` map (the resume set; later duplicates win).
* :meth:`ResultStore.append` — persist one finished record.
* :meth:`ResultStore.iter_records` — stream records without
  materialising the full list (the analysis path for 10⁶-run
  campaigns).
* :meth:`ResultStore.flush` — make buffered appends durable; each
  backend flushes on its own cadence (jsonl: every record, sharded:
  every 64), and ``close`` flushes the rest.
* :meth:`ResultStore.manifest` — a JSON-serialisable description of
  what the store holds (backend, shard/block inventory, fingerprint).

Damage never raises during a load: torn final lines (hard kill
mid-write), foreign content and validator-rejected records are counted
on :attr:`ResultStore.health` (:class:`StoreHealth`) and their tasks
simply re-run — the same contract the single-file JSONL format has had
since PR 1, now uniform across backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Optional,
)

#: A persisted record: anything with ``.key`` and ``.to_dict()``.
Record = Any

#: Rebuilds one record from its JSON document.  Must raise
#: ``ValueError``/``KeyError``/``TypeError`` on malformed input — the
#: loaders convert those into :attr:`StoreHealth.skipped_lines`.
ParseFn = Callable[[Dict[str, Any]], Record]

#: A store-level validator hook: records for which it returns ``False``
#: are dropped on load (counted as :attr:`StoreHealth.rejected_records`)
#: so their tasks re-run.  The search subsystem uses this for its
#: genome-fingerprint distrust check.
ValidatorFn = Callable[[Record], bool]


class StoreMismatchError(ValueError):
    """A campaign directory belongs to a different spec (fingerprint)."""


@dataclass
class StoreHealth:
    """Load-time damage report, uniform across every backend.

    The one damage report of sweeps and searches alike: one dataclass,
    one CLI warning text.

    Attributes:
        skipped_lines: Non-empty lines that did not
            parse as records — torn final lines from a hard kill
            mid-write, or foreign/corrupt content.  Their tasks re-run.
        rejected_records: Records that parsed but failed the store's
            validator hook (e.g. a search record whose stored
            fingerprint does not match its own genome).  Also re-run.
    """

    skipped_lines: int = 0
    rejected_records: int = 0

    @property
    def issues(self) -> int:
        """Total records lost to damage or distrust on load."""
        return self.skipped_lines + self.rejected_records

    def warning(self, source: str, noun: str = "task") -> Optional[str]:
        """The unified CLI warning line, or ``None`` when clean.

        ``noun`` names the unit of re-run work ("task" for sweeps,
        "candidate" for searches); the text is otherwise identical
        across subsystems and backends.
        """
        if not self.issues:
            return None
        parts = []
        if self.skipped_lines:
            parts.append(
                f"{self.skipped_lines} unparsable line(s) "
                "(torn or foreign)"
            )
        if self.rejected_records:
            parts.append(
                f"{self.rejected_records} validator-rejected record(s)"
            )
        return (
            f"warning: {source} held {' and '.join(parts)}; "
            f"their {noun}s were re-run"
        )


class RawRecord:
    """A backend-agnostic record wrapper: the raw document plus its key.

    Lets key-level tools (``repro merge``) operate on any record type
    without knowing its dataclass — parsing is the identity, the key is
    the document's ``"key"`` field, and ``to_dict`` returns the
    document unchanged, so a merge round-trips bytes faithfully.
    """

    __slots__ = ("doc",)

    def __init__(self, doc: Dict[str, Any]) -> None:
        """Wrap one decoded JSON document (must carry a ``"key"``)."""
        self.doc = dict(doc)
        if "key" not in self.doc:
            raise KeyError("record document has no 'key' field")

    @property
    def key(self) -> str:
        """The record's resume key."""
        return self.doc["key"]

    def to_dict(self) -> Dict[str, Any]:
        """The wrapped document, unchanged."""
        return self.doc


class ResultStore(abc.ABC):
    """Abstract base of every campaign result backend.

    Concrete stores (:class:`~repro.store.jsonl.JsonlStore`,
    :class:`~repro.store.sharded.ShardedStore`) share the record
    parsing, validation and health accounting here and differ only in
    layout.  Stores are context managers; :meth:`close` flushes.
    """

    #: Backend name, stable across releases (manifest + CLI vocabulary).
    backend: str = "abstract"

    def __init__(
        self,
        parse: ParseFn,
        validator: Optional[ValidatorFn] = None,
    ) -> None:
        """Remember the record codec and start a clean health report."""
        self.parse = parse
        self.validator = validator
        self.health = StoreHealth()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def claim_keys(self) -> Dict[str, Record]:
        """Load the resume set: every persisted record, keyed.

        Later duplicates win (a re-run record supersedes its stale
        predecessor); damage is counted on :attr:`health`, never
        raised.  A missing store is an empty map.
        """

    @abc.abstractmethod
    def append(self, record: Record) -> None:
        """Persist one finished record (durable per backend cadence)."""

    @abc.abstractmethod
    def iter_records(self) -> Iterator[Record]:
        """Stream persisted records without building the full list.

        Yields records in storage order — callers needing the canonical
        key order (or last-duplicate-wins semantics) go through
        :meth:`claim_keys` or sort downstream.  Damage counts on
        :attr:`health` like :meth:`claim_keys`.
        """

    @abc.abstractmethod
    def flush(self) -> None:
        """Push buffered appends to durable storage now."""

    @abc.abstractmethod
    def manifest(self) -> Dict[str, Any]:
        """A JSON-serialisable inventory of the store's contents."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release every file handle (idempotent)."""

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close (and therefore flush)."""
        self.close()
