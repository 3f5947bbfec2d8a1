"""Finding and suppression data model for the ``repro check`` engine.

A :class:`Finding` is one rule violation at one source location.  A
:class:`Suppression` is one ``# repro: noqa(RPR0xx): why`` comment; the
justification text after the colon is **required** — a suppression
without it does not suppress anything and is itself reported (as
``RPR000``), so every suppression in the tree says why the
contract does not apply at that site.

Suppression comments are discovered with :mod:`tokenize`, so the
marker is only recognised in real comments, never inside string
literals.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, List, Tuple

#: ``# repro: noqa(RPR001)`` or ``# repro: noqa(RPR001, RPR003): why``.
#: The justification group is everything after the closing paren's
#: colon; suppressions whose group is empty are invalid.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*noqa\s*"
    r"\((?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\)"
    r"(?:\s*:\s*(?P<why>\S.*?))?\s*$"
)

#: Meta code reported for malformed suppressions (missing
#: justification or a code no registered rule owns).  It cannot itself
#: be suppressed.
INVALID_SUPPRESSION = "RPR000"

#: Meta code reported when a checked file does not parse as Python.
PARSE_ERROR = "RPR900"


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Display path of the offending file (as given to the
            checker, normalised to POSIX separators).
        line: 1-based source line.
        col: 1-based source column.
        code: The rule code (``RPR001`` … or a meta code).
        message: Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The one-line ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """The JSON-report form (schema in docs/CHECKS.md)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: noqa(...)`` comment.

    Attributes:
        line: 1-based line the comment sits on; it suppresses findings
            reported for that line only.
        codes: The rule codes listed inside the parentheses.
        justification: The required free-text reason after the colon;
            empty means the suppression is invalid and inert.
    """

    line: int
    codes: Tuple[str, ...]
    justification: str

    @property
    def valid(self) -> bool:
        """Whether the suppression carries a justification."""
        return bool(self.justification)


def scan_suppressions(source: str) -> List[Suppression]:
    """Extract every suppression comment from ``source``.

    Uses the tokenizer so only genuine comments count.  A source that
    fails to tokenize yields no suppressions — the parse error is
    reported separately by the engine.
    """
    out: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = SUPPRESSION_RE.search(tok.string)
        if match is None:
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        out.append(
            Suppression(
                line=tok.start[0],
                codes=codes,
                justification=(match.group("why") or "").strip(),
            )
        )
    return out


def suppressions_by_line(
    suppressions: List[Suppression],
) -> Dict[int, List[Suppression]]:
    """Index suppressions by the line they apply to."""
    by_line: Dict[int, List[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.line, []).append(sup)
    return by_line
