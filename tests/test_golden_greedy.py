"""Golden greedy genomes: the lookahead searcher keeps constructing the
same candidates.

Every greedy candidate is scored on the engine, so a construction that
drifted from the engine's round would only find weaker worst cases and
no score test would notice.  ``tests/golden/greedy_genomes.json`` pins
the fingerprints of the first two candidates
(``ask(random.Random(0), 2)``: the identity and the reversed ``proc``
plan) for every cell of a grid: round_robin, strong_select,
harmonic (T = 2) and decay, on clique-bridge n = 9 and n = 17, gnp
n = 20 and line n = 12, under CR1–CR4 and both start modes, at the
default engine seed.

The tier-1 test checks the clique-bridge n = 9 × CR1/CR4 slice (32
genomes); the ``slow`` test checks the whole grid (256 genomes).

The file is generated once, by ``python tests/test_golden_greedy.py``,
from the code it pins; it is not rewritten to follow a change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.search import SearchSettings
from repro.search.harness import make_space
from repro.search.searchers import GreedyLookaheadSearch

GOLDEN = Path(__file__).parent / "golden" / "greedy_genomes.json"

ALGORITHMS = [
    ("round_robin", {}),
    ("strong_select", {}),
    ("harmonic", {"T": 2}),
    ("decay", {}),
]
GRAPHS = [("clique-bridge", 9), ("clique-bridge", 17), ("gnp", 20), ("line", 12)]
RULES = ["CR1", "CR2", "CR3", "CR4"]
MODES = ["synchronous", "asynchronous"]


def grid() -> List[SearchSettings]:
    return [
        SearchSettings(
            algorithm=algorithm,
            algorithm_params=params,
            graph_kind=graph,
            n=n,
            collision_rule=rule,
            start_mode=mode,
        )
        for algorithm, params in ALGORITHMS
        for graph, n in GRAPHS
        for rule in RULES
        for mode in MODES
    ]


def tier1_slice() -> List[SearchSettings]:
    return [
        cell
        for cell in grid()
        if (cell.graph_kind, cell.n) == ("clique-bridge", 9)
        and cell.collision_rule in ("CR1", "CR4")
    ]


def fingerprints(cell: SearchSettings) -> List[str]:
    searcher = GreedyLookaheadSearch(make_space(cell), cell)
    return [g.fingerprint for g in searcher.ask(random.Random(0), 2)]


def measure(cells: List[SearchSettings]) -> Dict[str, List[str]]:
    return {cell.key: fingerprints(cell) for cell in cells}


PINS: Dict[str, List[str]] = (
    json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
)


def test_grid_is_pinned_whole():
    assert sorted(PINS) == sorted(cell.key for cell in grid())
    assert len(PINS) * 2 == 256


def test_tier1_slice_genomes_unchanged():
    cells = tier1_slice()
    assert len(cells) * 2 == 32
    assert measure(cells) == {cell.key: PINS[cell.key] for cell in cells}


@pytest.mark.slow
def test_full_grid_genomes_unchanged():
    assert measure(grid()) == PINS


if __name__ == "__main__":
    doc = measure(grid())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    sys.stdout.write(
        f"wrote {2 * len(doc)} genome fingerprints for {len(doc)} cells "
        f"to {GOLDEN}\n"
    )
