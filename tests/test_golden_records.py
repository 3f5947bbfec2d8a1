"""Golden records: the sweep layer keeps producing the same records.

``tests/golden/records.jsonl`` holds one reference-engine record per
line, in key order, serialised exactly as a results file stores it
(``json.dumps(record.to_dict(), sort_keys=True)``).  The corpus covers
every registered algorithm × graph kind pair at n ≤ 33, each cell
rotating the collision rule (CR1–CR4), the start mode, the adversary
kind (``pivot`` on the pivot-layers network, where it is defined) and
the churn kind (none, window, rate); the three sweep-measured cells of
the condensed reproduction (``examples/reproduce_paper.py``) ride
along.  Re-running the corpus on either engine at 1 or 2 workers must
reproduce every record byte for byte, except for the ``engine`` field
and the key's ``/eng-…`` segment.

The file is generated once, by ``python tests/test_golden_records.py``,
from the code it pins; it is not rewritten to follow a change.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import List

import pytest

from repro.core.runner import ALGORITHMS
from repro.experiments import ExperimentSpec, run_sweep
from repro.experiments.registry import GRAPHS

GOLDEN = Path(__file__).parent / "golden" / "records.jsonl"

#: The algorithms and graph kinds the package ships, read at collection
#: time: later tests register throwaway kinds in the same process.
SHIPPED_ALGORITHMS = ALGORITHMS.names()
SHIPPED_KINDS = GRAPHS.names()

#: The corpus axes, spelled out so a registry change cannot move them.
CORPUS_ALGORITHMS = (
    "decay",
    "harmonic",
    "round_robin",
    "strong_select",
    "strong_select_ks",
    "uniform",
)
CORPUS_KINDS = (
    "clique-bridge",
    "clique-bridge-classical",
    "gnp",
    "gray-zone",
    "grid",
    "hard-line",
    "layered-pairs",
    "line",
    "pivot-layers",
    "ring",
)
RULES = ("CR1", "CR2", "CR3", "CR4")
STARTS = ("synchronous", "asynchronous")
ADVERSARIES = ("greedy", "random", "full", "none")
CHURNS = (
    "none",
    ("window", {"count": 2, "start": 3, "length": 4}),
    ("rate", {"crash_rate": 0.05, "recover_rate": 0.5}),
)
SIZES = (9, 16, 12, 8, 33)
#: Rate churn can keep a node down for good, so its cells run to a
#: short explicit cap instead of the algorithm's proven-bound limit.
RATE_CAP = 400

#: The condensed reproduction's sweep-measured claim cells.
CLAIM_CELLS = (
    ExperimentSpec(
        name="thm10-strong-select",
        algorithms=["strong_select"],
        graphs=[("clique-bridge", 33)],
        adversaries=["greedy"],
        seeds=[0],
    ),
    ExperimentSpec(
        name="thm18-harmonic",
        algorithms=["harmonic"],
        graphs=[("clique-bridge", 24)],
        adversaries=["greedy"],
        seeds=[1],
    ),
    ExperimentSpec(
        name="headline-classical",
        algorithms=["round_robin"],
        graphs=[("clique-bridge-classical", 33)],
        adversaries=["none"],
        seeds=[0],
    ),
)


def corpus_specs() -> List[ExperimentSpec]:
    """One single-task spec per algorithm × graph kind cell, plus the
    claim cells."""
    specs = []
    pairs = [(a, k) for a in CORPUS_ALGORITHMS for k in CORPUS_KINDS]
    for i, (algorithm, kind) in enumerate(pairs):
        n = SIZES[(i // 3) % len(SIZES)]
        if kind == "pivot-layers":
            adversary = ("pivot", {"n": n})
        else:
            adversary = ADVERSARIES[(i // 2) % len(ADVERSARIES)]
        churn = CHURNS[i % len(CHURNS)]
        specs.append(
            ExperimentSpec(
                name="golden",
                algorithms=[algorithm],
                graphs=[(kind, n)],
                adversaries=[adversary],
                collision_rules=[RULES[i % len(RULES)]],
                start_modes=[STARTS[(i // 4) % len(STARTS)]],
                churns=[churn],
                seeds=[i % 3],
                max_rounds=RATE_CAP if churn[0] == "rate" else None,
            )
        )
    return specs + list(CLAIM_CELLS)


def record_lines(engine: str, workers: int) -> List[str]:
    """The corpus re-run on ``engine``, as reference-engine lines."""
    specs = [
        dataclasses.replace(spec, engines=(engine,))
        for spec in corpus_specs()
    ]
    lines = []
    for record in run_sweep(specs, workers=workers).records:
        doc = record.to_dict()
        doc["key"] = re.sub(r"/eng-[^/]*$", "", doc["key"])
        doc["engine"] = "reference"
        lines.append(json.dumps(doc, sort_keys=True))
    return sorted(lines)


def load_corpus() -> List[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_corpus_covers_every_algorithm_and_graph_kind():
    docs = [json.loads(line) for line in load_corpus()]
    pairs = {
        (d["algorithm"], d["graph_kind"])
        for d in docs
        if d["sweep"] == "golden"
    }
    assert (set(SHIPPED_ALGORITHMS), set(SHIPPED_KINDS)) == (
        set(CORPUS_ALGORITHMS),
        set(CORPUS_KINDS),
    )
    assert pairs == {
        (a, k) for a in CORPUS_ALGORITHMS for k in CORPUS_KINDS
    }
    assert {d["collision_rule"] for d in docs} == set(RULES)
    assert {d["start_mode"] for d in docs} == set(STARTS)
    assert {d["adversary_kind"] for d in docs} == {*ADVERSARIES, "pivot"}
    assert {d["churn_kind"] for d in docs} == {"none", "window", "rate"}
    assert max(d["n"] for d in docs) <= 33


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_corpus_reproduces(engine, workers):
    assert record_lines(engine, workers) == load_corpus()


if __name__ == "__main__":
    lines = record_lines("reference", 1)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(lines)} records to {GOLDEN}\n")
