"""Human and JSON renderers for :class:`~repro.check.engine.CheckReport`.

The human form is one ``path:line:col: CODE message`` line per finding
plus a summary; the JSON form is a versioned, sorted-key document
(schema below) so CI and editor integrations can consume findings
without scraping text.

JSON schema (``"version": 1``)::

    {
      "version": 1,
      "files_checked": <int>,
      "clean": <bool>,
      "findings": [
        {"path": str, "line": int, "col": int,
         "code": str, "message": str},
        ...
      ],
      "counts": {"RPR001": <int>, ...},
      "suppressed": <int>
    }
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.check.engine import CheckReport
from repro.check.rules import rule_catalogue

#: The JSON report schema version.
REPORT_VERSION = 1


def render_human(report: CheckReport) -> str:
    """The terminal form: findings, then a one-line summary."""
    lines: List[str] = [f.render() for f in report.findings]
    tail = f" ({report.suppressed} suppressed)" if report.suppressed else ""
    if report.clean:
        lines.append(
            f"repro check: {report.files_checked} file(s) clean{tail}"
        )
    else:
        lines.append(
            f"repro check: {len(report.findings)} finding(s) in "
            f"{report.files_checked} file(s){tail}"
        )
    return "\n".join(lines)


def render_json(report: CheckReport) -> str:
    """The machine form (stable, versioned, sorted keys)."""
    doc: Dict[str, object] = {
        "version": REPORT_VERSION,
        "files_checked": report.files_checked,
        "clean": report.clean,
        "findings": [f.to_dict() for f in report.findings],
        "counts": report.counts(),
        "suppressed": report.suppressed,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The ``--list-rules`` catalogue, one block per code."""
    blocks: List[str] = []
    for code, info in rule_catalogue().items():
        header = f"{code} [{info['name']}]  scope: {info['scopes']}"
        blocks.append(header)
        blocks.append(f"  contract: {info['contract']}")
        if info["fix"]:
            blocks.append(f"  fix: {info['fix']}")
    return "\n".join(blocks)
