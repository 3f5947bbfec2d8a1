#!/usr/bin/env python3
"""One-pass condensed reproduction of every paper claim.

A loop over the claims table (:mod:`repro.analysis.claims`, which owns
every statement, bound and verdict): each claim runs at its condensed
size and lands in one summary table.  The full-size versions live in
`benchmarks/` (``pytest benchmarks/ --benchmark-only -s``).

Run:
    python examples/reproduce_paper.py
"""

from repro.analysis import CLAIMS, render_table


def main() -> None:
    rows = []
    for claim in CLAIMS:
        evidence, measured = claim.condensed()
        verdict = "PASS" if claim.reproduced(evidence) else "FAIL"
        rows.append(
            [claim.id, claim.statement, claim.bound(evidence), measured, verdict]
        )
    print(
        render_table(
            ["id", "claim", "paper bound", "measured", "verdict"],
            rows,
            title="Condensed reproduction summary "
            "(full versions: pytest benchmarks/ --benchmark-only -s)",
        )
    )
    failures = [r for r in rows if r[-1] != "PASS"]
    print()
    print(
        f"{len(rows) - len(failures)}/{len(rows)} claims reproduced."
        + ("" if not failures else f"  FAILURES: {failures}")
    )


if __name__ == "__main__":
    main()
