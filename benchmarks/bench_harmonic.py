"""Experiment E-HARM — Theorems 18/19 and Lemmas 14/15.

Three measured claims:

1. Completion: Harmonic Broadcast finishes within ``2·n·T·H(n)`` w.h.p.
   (Theorem 18) on adversarial duals.
2. Busy rounds: no wake-up pattern induces more than ``n·T·H(n)`` busy
   rounds (Lemma 15) — checked on front-loaded, staggered, and
   trace-extracted patterns.
3. The ``n log² n`` shape: with the paper's ``T = Θ(log n)`` the
   completion rounds grow as ``n·polylog(n)``.
"""

import math

from repro import broadcast
from repro.adversaries import GreedyInterferer
from repro.analysis import (
    CampaignReport,
    best_fit,
    busy_round_count,
    front_loaded_pattern,
    render_table,
    wakeup_pattern_of,
)
from repro.core.harmonic import busy_round_bound, completion_bound
from repro.experiments import ExperimentSpec, SweepRunner
from repro.graphs import clique_bridge

NS = [8, 16, 32, 64]
SEEDS = range(4)
WORKERS = 2


def paper_T(n: int) -> int:
    """The paper's ``T = Θ(log n)`` with a laptop-sized constant."""
    return max(1, math.ceil(2 * math.log(n)))


#: One grid per size — ``T`` and the Theorem-18 round cap scale with n.
COMPLETION_SPECS = [
    ExperimentSpec(
        name=f"harmonic-n{n}",
        algorithms=[("harmonic", {"T": paper_T(n)})],
        graphs=[("clique-bridge", n)],
        adversaries=["greedy"],
        seeds=SEEDS,
        max_rounds=4 * completion_bound(n, paper_T(n)),
    )
    for n in NS
]


def harmonic_rounds(n: int, T: int, seed: int):
    g = clique_bridge(n).graph
    trace = broadcast(
        g,
        "harmonic",
        adversary=GreedyInterferer(),
        algorithm_params={"T": T},
        seed=seed,
        max_rounds=4 * completion_bound(n, T),
    )
    assert trace.completed
    return trace


def run_completion_experiment():
    result = SweepRunner(COMPLETION_SPECS, workers=WORKERS).run()
    assert not result.failures, [r.key for r in result.failures]
    # One report cell per size (each spec is one cell of seeds).
    cells = CampaignReport.from_records(result.records).ordered()
    return {
        cell.n: (cell.harmonic_T, cell.completion.summary())
        for cell in sorted(cells, key=lambda c: c.n)
    }


def test_harmonic_completion_bound(benchmark, table_out):
    results = benchmark.pedantic(
        run_completion_experiment, rounds=1, iterations=1
    )
    rows = []
    for n, (T, summary) in results.items():
        bound = completion_bound(n, T)
        rows.append([n, T, summary.format(), bound])
    table_out(
        render_table(
            ["n", "T", "completion rounds", "bound 2nT·H(n)"],
            rows,
            title="Harmonic Broadcast (measured), greedy interferer, "
            "clique-bridge duals",
        )
    )
    for n, (T, summary) in results.items():
        assert summary.maximum <= completion_bound(n, T)

    # Shape: n · polylog(n).
    ns = list(results)
    means = [results[n][1].mean for n in ns]
    fit = best_fit(ns, means)
    table_out(f"harmonic growth (T=Θ(log n)): {fit.format()}")
    assert 0.7 <= fit.exponent <= 1.6


def test_harmonic_busy_round_lemma(benchmark, table_out):
    def run():
        rows = []
        checks = []
        for n in (6, 10, 14):
            for T in (1, 2, 4):
                patterns = {
                    "front-loaded": front_loaded_pattern(n, T),
                    "staggered": [i * 3 * T for i in range(n)],
                    "bursty": [0] * (n // 2)
                    + [5 * T] * (n - n // 2),
                }
                for label, pattern in patterns.items():
                    count = busy_round_count(pattern, T)
                    bound = busy_round_bound(n, T)
                    rows.append([n, T, label, count, bound])
                    checks.append(count <= bound)
        return rows, checks

    rows, checks = benchmark.pedantic(run, rounds=1, iterations=1)
    table_out(
        render_table(
            ["n", "T", "pattern", "busy rounds", "bound nT·H(n)"],
            rows,
            title="Lemma 15 (measured): busy rounds per wake-up pattern",
        )
    )
    assert all(checks)


def test_harmonic_trace_patterns_respect_lemma15(benchmark, table_out):
    """Wake-up patterns of real executions also satisfy Lemma 15."""

    def run():
        out = []
        for seed in SEEDS:
            n, T = 24, 6
            trace = harmonic_rounds(n, T, seed)
            pattern = wakeup_pattern_of(trace)
            out.append(
                (busy_round_count(pattern, T), busy_round_bound(n, T))
            )
        return out

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    table_out(
        render_table(
            ["busy rounds (execution)", "bound"],
            measured,
            title="Lemma 15 on real execution wake-up patterns",
        )
    )
    for count, bound in measured:
        assert count <= bound
