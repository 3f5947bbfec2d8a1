"""Golden claim numbers: every paper claim keeps measuring the same figures.

The claim verdicts only say which side of a bound a measurement landed
on, so a change that moves Theorem 2's condensed worst case from 16 to
15 rounds still reads "reached".  ``tests/golden/claims.json`` pins the
numbers themselves:

* ``claims``: for each :data:`~repro.analysis.claims.CLAIMS` entry, in
  print order, its id, the bound label and the condensed producer's
  ``measured`` string;
* ``lemma15``: Lemma 15's busy-round count, bound label and verdict for
  every wake-up pattern ``benchmarks/bench_harmonic.py`` checks (the
  synthetic patterns and the Harmonic executions' own patterns);
* ``lemma1-rr``: round robin's interference-model completion round,
  bound label and verdict at the sizes ``benchmarks/bench_interference.py``
  runs;
* ``theorem2-search``: ``repro search --compare-theorem2``'s numbers for
  the cells of ``docs/SEARCH.md``'s Theorem 2 table (greedy searcher,
  budget 3, search seed 0): the scripted worst case, the
  search's best stall, their ratio, and :data:`THEOREM2`'s bound label
  and verdict on the search's observation.

The file is generated once, by ``python tests/test_golden_claims.py``,
from the code it pins; it is not rewritten to follow a change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro import broadcast
from repro.adversaries import GreedyInterferer
from repro.analysis import busy_round_count, front_loaded_pattern, wakeup_pattern_of
from repro.analysis.claims import (
    CLAIMS,
    LEMMA1_ROUND_ROBIN,
    LEMMA15,
    THEOREM2,
    Observation,
)
from repro.core import make_round_robin_processes, round_robin_bound
from repro.core.harmonic import completion_bound
from repro.graphs import clique_bridge, line, with_complete_unreliable
from repro.interference import InterferenceNetwork, run_equivalence_check
from repro.search import (
    SearchSettings,
    run_search,
    theorem2_comparison,
)
from repro.sim import CollisionRule

GOLDEN = Path(__file__).parent / "golden" / "claims.json"


def condensed_rows() -> List[Dict[str, str]]:
    rows = []
    for claim in CLAIMS:
        assert claim.condensed is not None
        evidence, measured = claim.condensed()
        rows.append(
            {"id": claim.id, "bound": claim.bound(evidence), "measured": measured}
        )
    return rows


def _lemma15_row(pattern: str, evidence) -> Dict[str, Any]:
    n, T, busy = evidence
    return {
        "n": n,
        "T": T,
        "pattern": pattern,
        "busy": busy,
        "bound": LEMMA15.bound(evidence),
        "verdict": LEMMA15.verdict(evidence),
    }


def lemma15_rows() -> List[Dict[str, Any]]:
    """bench_harmonic's synthetic patterns, then its execution patterns."""
    rows = []
    for n in (6, 10, 14):
        for T in (1, 2, 4):
            patterns = {
                "front-loaded": front_loaded_pattern(n, T),
                "staggered": [i * 3 * T for i in range(n)],
                "bursty": [0] * (n // 2) + [5 * T] * (n - n // 2),
            }
            for label, pattern in patterns.items():
                rows.append(
                    _lemma15_row(label, (n, T, busy_round_count(pattern, T)))
                )
    n, T = 24, 6
    for seed in range(4):
        trace = broadcast(
            clique_bridge(n).graph,
            "harmonic",
            adversary=GreedyInterferer(),
            algorithm_params={"T": T},
            seed=seed,
            max_rounds=4 * completion_bound(n, T),
        )
        busy = busy_round_count(wakeup_pattern_of(trace), T)
        rows.append(_lemma15_row(f"execution/s{seed}", (n, T, busy)))
    return rows


def lemma1_round_robin_rows() -> List[Dict[str, Any]]:
    rows = []
    for n in (10, 14, 18):
        net = InterferenceNetwork(with_complete_unreliable(line(n)))
        report = run_equivalence_check(
            net,
            make_round_robin_processes,
            collision_rule=CollisionRule.CR4,
            max_rounds=round_robin_bound(n, n) + 8,
            seed=1,
        )
        evidence = (net, report)
        rows.append(
            {
                "n": n,
                "completion": report.interference_trace.completion_round,
                "bound": LEMMA1_ROUND_ROBIN.bound(evidence),
                "verdict": LEMMA1_ROUND_ROBIN.verdict(evidence),
            }
        )
    return rows


#: The cells of ``docs/SEARCH.md``'s Theorem 2 table, and its search.
THEOREM2_SEARCH_CELLS = [
    (algorithm, n) for algorithm in ("round_robin", "strong_select") for n in (9, 17)
]
THEOREM2_SEARCH_BUDGET = 3


def theorem2_search_rows() -> List[Dict[str, Any]]:
    rows = []
    for algorithm, n in THEOREM2_SEARCH_CELLS:
        result = run_search(
            SearchSettings(algorithm=algorithm, graph_kind="clique-bridge", n=n),
            searcher="greedy",
            budget=THEOREM2_SEARCH_BUDGET,
            seed=0,
        )
        comparison = theorem2_comparison(result)
        observation = Observation(
            algorithm, "clique-bridge", n, result.best.objective
        )
        rows.append(
            {
                "algorithm": algorithm,
                "n": n,
                "scripted": comparison.scripted_worst,
                "search": result.best.objective,
                "ratio": comparison.ratio,
                "bound": THEOREM2.bound(observation),
                "verdict": THEOREM2.verdict(observation),
            }
        )
    return rows


def measure() -> Dict[str, Any]:
    return {
        "claims": condensed_rows(),
        "lemma15": lemma15_rows(),
        "lemma1-rr": lemma1_round_robin_rows(),
        "theorem2-search": theorem2_search_rows(),
    }


PINS: Dict[str, Any] = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def measured() -> Dict[str, Any]:
    return measure()


def test_every_printed_claim_is_pinned_in_order():
    assert [row["id"] for row in PINS["claims"]] == [c.id for c in CLAIMS]


@pytest.mark.parametrize(
    "section", ["claims", "lemma15", "lemma1-rr", "theorem2-search"]
)
def test_claim_numbers_unchanged(measured, section):
    assert measured[section] == PINS[section]


if __name__ == "__main__":
    doc = measure()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    sys.stdout.write(
        f"wrote {len(doc['claims'])} claims, {len(doc['lemma15'])} Lemma 15, "
        f"{len(doc['lemma1-rr'])} Lemma 1 and {len(doc['theorem2-search'])} "
        f"Theorem 2 search rows to {GOLDEN}\n"
    )
