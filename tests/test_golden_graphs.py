"""Golden graph digests: every shipped graph kind keeps building the same graph.

``tests/golden/graph_digests.json`` maps ``<kind>/n<n>/s<seed>`` to the
sha256 of a canonical JSON document of the built graph: its ``name``,
``n``, ``source`` and the per-node sorted ``reliable_out`` / ``all_out``
lists.  Every kind is pinned at its default parameters for
n ∈ {9, 17, 33} × seeds {0, 1}, plus the benchmark's ``gnp`` n=1000
seed 0 cell.  A generator or ``DualGraph`` change that moves any graph
fails here, and so does a kind registered without a pin.

The file is generated once, by ``python tests/test_golden_graphs.py``,
from the code it pins; it is not rewritten to follow a change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import build_graph
from repro.experiments.registry import GRAPHS
from repro.graphs.dualgraph import DualGraph

GOLDEN = Path(__file__).parent / "golden" / "graph_digests.json"
SIZES = (9, 17, 33)
SEEDS = (0, 1)
BENCHMARK_CELL = ("gnp", 1000, 0)

#: The kinds the package ships, read at collection time: later tests
#: register throwaway kinds in the same process.
SHIPPED_KINDS = GRAPHS.names()


def graph_digest(graph: DualGraph) -> str:
    doc = {
        "name": graph.name,
        "n": graph.n,
        "source": graph.source,
        "reliable_out": [sorted(graph.reliable_out(v)) for v in graph.nodes],
        "all_out": [sorted(graph.all_out(v)) for v in graph.nodes],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cell_id(kind: str, n: int, seed: int) -> str:
    return f"{kind}/n{n}/s{seed}"


def cells(kinds):
    out = [(k, n, s) for k in kinds for n in SIZES for s in SEEDS]
    return out + [BENCHMARK_CELL]


def load_pins() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


PINS = load_pins() if GOLDEN.exists() else {}


def test_every_shipped_kind_is_pinned():
    pinned = {key.split("/")[0] for key in PINS}
    assert pinned == set(SHIPPED_KINDS)
    assert set(PINS) == {cell_id(*c) for c in cells(SHIPPED_KINDS)}


@pytest.mark.parametrize("key", sorted(PINS))
def test_graph_digest_unchanged(key):
    kind, n, seed = key.split("/")
    graph = build_graph(kind, int(n[1:]), int(seed[1:]))
    assert graph_digest(graph) == PINS[key]


if __name__ == "__main__":
    pins = {
        cell_id(*c): graph_digest(build_graph(*c))
        for c in cells(SHIPPED_KINDS)
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(pins)} digests to {GOLDEN}\n")
