"""``repro.check`` — the repository's AST invariant checker.

The test suite can only probe the repo's correctness contracts
dynamically (trace byte-equality across engines, key-derived RNG
streams, the stdlib-only runtime, iteration-order determinism); this
package rejects violations *statically*, at diff time, with an
extensible rule engine:

* :mod:`repro.check.rules` — the :class:`Rule` protocol, the
  per-code registry, and the shared :class:`FileContext`.
* :mod:`repro.check.rulepack` — the first-party rules RPR001–RPR006
  (importing :mod:`repro.check` registers them).
* :mod:`repro.check.engine` — single-pass per-file dispatch,
  suppression handling, and the multi-file driver.
* :mod:`repro.check.findings` — the finding/suppression data model.
* :mod:`repro.check.report` — human and versioned-JSON renderers.

CLI: ``repro check [paths] [--json]`` — see docs/CHECKS.md for the
rule catalogue and the suppression policy.
"""

from repro.check import rulepack  # noqa: F401  (registers RPR001-006)
from repro.check.engine import (
    CheckReport,
    check_file,
    check_paths,
    check_source,
    iter_python_files,
    scope_of,
)
from repro.check.findings import Finding, Suppression, scan_suppressions
from repro.check.report import (
    REPORT_VERSION,
    render_human,
    render_json,
    render_rule_list,
)
from repro.check.rules import (
    ContractRule,
    FileContext,
    Rule,
    all_rules,
    known_codes,
    register_rule,
    rule_catalogue,
    rule_codes,
)

__all__ = [
    "CheckReport",
    "ContractRule",
    "FileContext",
    "Finding",
    "REPORT_VERSION",
    "Rule",
    "Suppression",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "iter_python_files",
    "known_codes",
    "register_rule",
    "render_human",
    "render_json",
    "render_rule_list",
    "rule_catalogue",
    "rule_codes",
    "scan_suppressions",
    "scope_of",
]
