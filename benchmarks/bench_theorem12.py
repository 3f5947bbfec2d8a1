"""Experiment E-THM12 — Theorem 12: the Ω(n log n) undirected bound.

The candidate-set construction extends the execution stage by stage; the
paper guarantees ``(n−1)/4`` stages of at least ``log₂(n−1) − 2``
candidate-phase rounds each.  We run the construction against round robin
and Strong Select and report per-stage and total rounds against the
``(n−1)/4 · (log₂(n−1) − 2)`` witness and the ``n log₂ n`` shape.
"""

import math

from repro.analysis import best_fit, render_table
from repro.analysis.claims import THEOREM12
from repro.core import (
    make_round_robin_processes,
    make_strong_select_processes,
)
from repro.lowerbounds import theorem12_construction

NS = [9, 17, 33, 65]


def run_experiment():
    rr = {n: theorem12_construction(make_round_robin_processes, n)
          for n in NS}
    ss = {
        n: theorem12_construction(
            lambda m: make_strong_select_processes(m), n
        )
        for n in [9, 17, 33]
    }
    return rr, ss


def test_theorem12_witness(benchmark, table_out):
    rr, ss = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    runs = [("round_robin", rr), ("strong_select", ss)]
    rows = [
        [
            name,
            n,
            res.total_rounds,
            len(res.stages),
            res.min_early_stage_rounds,
            f"{res.paper_stage_guarantee:.1f}",
            f"{res.paper_total_guarantee:.0f}",
            round(n * math.log2(n)),
        ]
        for name, results in runs
        for n, res in results.items()
    ]
    table_out(
        render_table(
            [
                "algorithm",
                "n",
                "total rounds",
                "stages",
                "min early-stage rounds",
                "stage guarantee",
                "total guarantee",
                "n·log2(n)",
            ],
            rows,
            title="Theorem 12 (measured): the candidate-set construction",
        )
    )

    for name, results in runs:
        for n, res in results.items():
            assert THEOREM12.reproduced(res), (name, n)


def test_theorem12_n_log_n_shape(benchmark, table_out):
    def sweep():
        return [
            theorem12_construction(
                make_round_robin_processes, n
            ).total_rounds
            for n in NS
        ]

    ts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = best_fit(NS, ts)
    table_out(f"theorem-12 witness growth: {fit.format()}")
    # Superlinear (n log n or better against round robin, whose stages
    # cost Θ(n) each giving an n² envelope; the guarantee itself is the
    # n log n floor checked above).
    assert fit.exponent > 1.0
