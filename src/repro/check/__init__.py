"""``repro check`` — the repository's AST invariant checker.

The test suite probes the determinism contract behind "same key ⇒
same record bytes" dynamically (golden pins, engine differentials,
fuzzing); this package rejects, at diff time, the violations those
suites can miss:

* :mod:`repro.check.rules` — :class:`Finding`, the per-file
  :class:`FileContext` and the :class:`ContractRule` base.
* :mod:`repro.check.rulepack` — the rules themselves, as the
  ``RULES`` tuple.
* :mod:`repro.check.engine` — single-pass per-file dispatch, the
  multi-file driver and the report.

CLI: ``repro check [paths]`` — see docs/CHECKS.md for the rule
catalogue.
"""

from repro.check.engine import (
    CheckReport,
    check_file,
    check_paths,
    check_source,
    scope_of,
)
from repro.check.rulepack import RULES
from repro.check.rules import Finding

__all__ = [
    "CheckReport",
    "Finding",
    "RULES",
    "check_file",
    "check_paths",
    "check_source",
    "scope_of",
]
