"""Experiment E-LEM1 — Lemma 1: dual graphs subsume explicit interference.

We run each algorithm on explicit-interference networks and on their
dual-graph simulations (the Appendix A reduction adversary), checking
observation-for-observation equivalence and that round bounds carry over.
"""

from repro.analysis import render_table
from repro.analysis.claims import LEMMA1, LEMMA1_ROUND_ROBIN
from repro.core import (
    make_harmonic_processes,
    make_round_robin_processes,
    make_strong_select_processes,
    round_robin_bound,
)
from repro.graphs import gnp_dual, with_complete_unreliable, line
from repro.interference import InterferenceNetwork, run_equivalence_check
from repro.sim import CollisionRule

CASES = [
    ("round_robin", make_round_robin_processes),
    ("strong_select", make_strong_select_processes),
    ("harmonic", make_harmonic_processes),
]
RULES = list(CollisionRule)


def run_experiment():
    rows = []
    ok = []
    for name, factory in CASES:
        for rule in RULES:
            net = InterferenceNetwork(gnp_dual(18, seed=4))
            report = run_equivalence_check(
                net, factory, collision_rule=rule, max_rounds=6000, seed=2
            )
            rows.append(
                [
                    name,
                    rule.name,
                    report.interference_trace.num_rounds,
                    report.dual_trace.num_rounds,
                    "yes" if report.equivalent else "NO",
                ]
            )
            ok.append(LEMMA1.reproduced(report))
    return rows, ok


def test_lemma1_equivalence(benchmark, table_out):
    rows, ok = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table_out(
        render_table(
            [
                "algorithm",
                "rule",
                "interference rounds",
                "dual-sim rounds",
                "identical observations",
            ],
            rows,
            title="Lemma 1 (measured): explicit-interference vs dual-graph "
            "simulation",
        )
    )
    assert all(ok)


def test_lemma1_round_bounds_carry_over(benchmark, table_out):
    """Round robin keeps its n·ecc bound in the interference model."""

    def run():
        out = []
        for n in (10, 14, 18):
            net = InterferenceNetwork(with_complete_unreliable(line(n)))
            report = run_equivalence_check(
                net,
                make_round_robin_processes,
                collision_rule=CollisionRule.CR4,
                max_rounds=round_robin_bound(n, n) + 8,
                seed=1,
            )
            out.append((net, report))
        return out

    evidence = benchmark.pedantic(run, rounds=1, iterations=1)
    table_out(
        render_table(
            ["n", "completion (interference)", "dual-graph bound", "equiv"],
            [
                (
                    net.n,
                    report.interference_trace.completion_round,
                    LEMMA1_ROUND_ROBIN.bound((net, report)),
                    LEMMA1.reproduced(report),
                )
                for net, report in evidence
            ],
            title="Lemma 1: round bounds carry over",
        )
    )
    for net, report in evidence:
        assert LEMMA1.reproduced(report)
        assert LEMMA1_ROUND_ROBIN.reproduced((net, report))
