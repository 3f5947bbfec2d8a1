"""ASCII table rendering for paper-style result tables.

The benchmark harnesses regenerate Tables 1 and 2 with a "measured"
column next to the paper's bound; this module does the formatting so
every bench prints consistently aligned, copy-pasteable tables.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table.

    Args:
        headers: Column headers.
        rows: Row cell values (stringified; ``None`` renders as ``—``).
        title: Optional title line printed above the table.
    """
    str_rows: List[List[str]] = [
        ["—" if c is None else str(c) for c in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return (
            "| "
            + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))
            + " |"
        )

    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.extend([sep, fmt(list(headers)), sep])
    lines.extend(fmt(row) for row in str_rows)
    lines.append(sep)
    return "\n".join(lines)

