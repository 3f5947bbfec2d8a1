"""Experiment E-THM2 — Theorem 2: the Ω(n) deterministic lower bound.

On the 2-broadcastable clique-bridge network with the proof's adversary
rules, every deterministic algorithm has a bridge-identity choice forcing
more than ``n − 3`` rounds; round robin matches with ``O(n)``.
"""

from repro.analysis import render_table
from repro.analysis.claims import THEOREM2, theorem2_observation
from repro.core import (
    make_round_robin_processes,
    make_strong_select_processes,
)
from repro.lowerbounds import theorem2_lower_bound

NS = [9, 17, 33, 65]

ALGORITHMS = [
    ("round_robin", make_round_robin_processes),
    ("strong_select", lambda n: make_strong_select_processes(n)),
]


def run_experiment():
    results = {}
    for name, factory in ALGORITHMS:
        for n in NS:
            results[(name, n)] = theorem2_lower_bound(factory, n)
    return results


def test_theorem2_lower_bound(benchmark, table_out):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, _ in ALGORITHMS:
        for n in NS:
            res = results[(name, n)]
            observation = theorem2_observation(name, res)
            rows.append(
                [
                    name,
                    n,
                    res.worst_rounds,
                    THEOREM2.bound(observation),
                    res.worst_bridge_uid,
                    THEOREM2.verdict(observation),
                ]
            )
    table_out(
        render_table(
            [
                "algorithm",
                "n",
                "worst-case rounds",
                "Thm 2 bound",
                "worst bridge id",
                "Thm 2 verdict",
            ],
            rows,
            title="Theorem 2 (measured): Ω(n) on 2-broadcastable networks",
        )
    )

    for (name, n), res in results.items():
        # The theorem's claim: a bridge identity forcing more than n - 3
        # rounds.
        assert THEOREM2.reproduced(theorem2_observation(name, res)), (
            name,
            n,
        )
    # Round robin matches the bound to within a constant (the paper's
    # note: O(n) upper bound on constant-diameter networks).
    for n in NS:
        assert results[("round_robin", n)].worst_rounds <= 2 * n


def test_theorem2_scaling_is_linear(benchmark, table_out):
    from repro.analysis import best_fit

    def sweep():
        return [
            theorem2_lower_bound(make_round_robin_processes, n).worst_rounds
            for n in NS
        ]

    ts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = best_fit(NS, ts, log_exponents=(0.0,))
    table_out(f"theorem-2 worst-case growth: {fit.format()}")
    assert 0.8 <= fit.exponent <= 1.2
