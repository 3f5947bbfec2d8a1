"""The table of paper claims and the consumers that read it.

``repro.analysis.claims`` is the one place a measurement is read
against the paper.  These tests hold the report, the condensed
reproduction and the golden records corpus to it.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.analysis.claims import (
    CLAIMS,
    CLASSICAL_SPEC,
    LEMMA1_ROUND_ROBIN,
    LEMMA15,
    THEOREM2,
    THEOREM10,
    THEOREM18,
    THM10_SPEC,
    THM18_SPEC,
    Observation,
    observe,
    theorem2_observation,
)
from repro.analysis.report import CampaignReport
from repro.core import make_round_robin_processes
from repro.core.harmonic import busy_round_bound, default_T
from repro.experiments import ExperimentSpec, run_sweep
from repro.graphs import line, with_complete_unreliable
from repro.interference import InterferenceNetwork, run_equivalence_check
from repro.lowerbounds.theorem2 import Theorem2Result

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "records.jsonl"


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids)) == 9


def test_strong_select_on_clique_bridge_gets_theorem2_and_theorem10_rows():
    spec = ExperimentSpec(
        name="ss",
        algorithms=["strong_select"],
        graphs=[("clique-bridge", 9)],
        adversaries=["greedy"],
        seeds=[0, 1],
    )
    report = CampaignReport.from_records(run_sweep(spec).records)
    rows = report.reference_rows()
    (cell,) = report.cells.values()
    assert [row[0] for row in rows] == [cell.key, cell.key]
    assert [row[1] for row in rows] == [
        THEOREM2.bound(cell.observation()),
        THEOREM10.bound(cell.observation()),
    ]
    assert "(Thm 2)" in rows[0][1] and "(Thm 10)" in rows[1][1]
    assert [row[3] for row in rows] == ["reached", "holds"]


def test_condensed_theorem18_cell_is_in_scope_and_agrees_with_report():
    records = run_sweep(THM18_SPEC).records
    report = CampaignReport.from_records(records)
    (cell,) = report.cells.values()
    assert cell.harmonic_T == default_T(cell.graph_n)
    (row,) = report.reference_rows()
    assert row[3] == "within"
    evidence, _ = THEOREM18.condensed()
    assert evidence == cell.observation()
    assert THEOREM18.verdict(evidence) == row[3]
    assert THEOREM18.reproduced(evidence)


def test_observation_of_a_capped_cell_has_no_worst_case():
    observation = Observation("strong_select", "line", 8, None, capped=2)
    assert THEOREM10.verdict(observation) == "VIOLATED"
    assert THEOREM2.verdict(
        Observation("round_robin", "clique-bridge", 9, None, capped=1)
    ) == "reached"


@pytest.mark.parametrize("worst", [5, 6, 7])
def test_theorem2_claim_reads_the_driver_strictly(worst):
    # Theorem 2 asserts more than n - 3 rounds: at n = 9 a worst case of
    # exactly 6 does not reach it, as the driver's own reading says.
    result = Theorem2Result(9, {4: worst})
    observation = theorem2_observation("round_robin", result)
    assert THEOREM2.reproduced(observation) is result.bound_holds
    assert result.bound_holds is (worst > 6)


def test_bench_only_claims_stay_out_of_the_printed_table():
    for claim in (LEMMA15, LEMMA1_ROUND_ROBIN):
        assert claim.condensed is None
        assert claim not in CLAIMS
    assert all(claim.condensed is not None for claim in CLAIMS)


def test_lemma15_claim_reads_busy_rounds_against_n_t_h_n():
    bound = busy_round_bound(8, 3)
    assert LEMMA15.bound((8, 3, 0)) == f"busy rounds ≤ {bound} (Lemma 15)"
    assert LEMMA15.reproduced((8, 3, bound))
    assert LEMMA15.verdict((8, 3, bound + 1)) == "fails"


@pytest.mark.parametrize("max_rounds,holds", [(200, True), (3, False)])
def test_round_robin_carry_over_claim(max_rounds, holds):
    # Round robin on a line of 10 needs 9 rounds (bound n·ecc = 90); a
    # run cut off after 3 has no completion round and fails the claim.
    network = InterferenceNetwork(with_complete_unreliable(line(10)))
    report = run_equivalence_check(
        network, make_round_robin_processes, max_rounds=max_rounds, seed=1
    )
    evidence = (network, report)
    assert LEMMA1_ROUND_ROBIN.bound(evidence) == "completes ≤ 90 (Lemma 1)"
    assert LEMMA1_ROUND_ROBIN.reproduced(evidence) is holds


def test_reproduce_paper_prints_every_claim_id(capsys):
    path = ROOT / "examples" / "reproduce_paper.py"
    spec = importlib.util.spec_from_file_location("claims_reproduce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    printed = [
        line.split("|")[1].strip()
        for line in out.splitlines()
        if line.startswith("| ") and ("PASS" in line or "FAIL" in line)
    ]
    assert printed == [claim.id for claim in CLAIMS]
    assert f"{len(CLAIMS)}/{len(CLAIMS)} claims reproduced." in out


def test_golden_corpus_pins_the_condensed_cells():
    corpus = {
        doc["key"]: doc
        for doc in map(json.loads, GOLDEN.read_text().splitlines())
    }
    for spec in (THM10_SPEC, THM18_SPEC, CLASSICAL_SPEC):
        (task,) = spec.tasks()
        observation = observe(spec)
        assert corpus[task.key]["completion_round"] == observation.worst
        assert corpus[task.key]["graph_n"] == observation.n
