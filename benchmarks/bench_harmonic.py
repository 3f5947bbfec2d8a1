"""Experiment E-HARM — Theorems 18/19 and Lemmas 14/15.

Three measured claims:

1. Completion: Harmonic Broadcast finishes within ``2·n·T·H(n)`` w.h.p.
   (Theorem 18) on adversarial duals.
2. Busy rounds: no wake-up pattern induces more than ``n·T·H(n)`` busy
   rounds (Lemma 15) — checked on front-loaded, staggered, and
   trace-extracted patterns.
3. The ``n log² n`` shape: with the paper's ``T = Θ(log n)`` the
   completion rounds grow as ``n·polylog(n)`` (bare ``harmonic``: the
   paper's ``T = ⌈12 ln(n/ε)⌉``, inside Theorem 18's scope).
"""

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
from repro.analysis.claims import LEMMA15, THEOREM18
from repro.core.harmonic import completion_bound
from repro.experiments import ExperimentSpec, SweepRunner
from repro.graphs import clique_bridge

NS = [8, 16, 32, 64]
SEEDS = range(4)
WORKERS = 2


#: One cell per size; the round cap is each task's proven-bound limit.
COMPLETION_SPEC = ExperimentSpec(
    name="harmonic",
    algorithms=["harmonic"],
    graphs=[("clique-bridge", n) for n in NS],
    adversaries=["greedy"],
    seeds=SEEDS,
)


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
    result = SweepRunner(COMPLETION_SPEC, workers=WORKERS).run()
    assert not result.failures, [r.key for r in result.failures]
    # One report cell per size, in size order.
    cells = CampaignReport.from_records(result.records).ordered()
    return {cell.n: cell for cell in cells}


def test_harmonic_completion_bound(benchmark, table_out):
    results = benchmark.pedantic(
        run_completion_experiment, rounds=1, iterations=1
    )
    rows = [
        [n, cell.harmonic_T, cell.completion.summary().format(),
         THEOREM18.bound(cell.observation()),
         THEOREM18.verdict(cell.observation())]
        for n, cell in results.items()
    ]
    table_out(
        render_table(
            ["n", "T", "completion rounds", "bound 2nT·H(n)", "Thm 18"],
            rows,
            title="Harmonic Broadcast (measured), greedy interferer, "
            "clique-bridge duals",
        )
    )
    for cell in results.values():
        assert THEOREM18.reproduced(cell.observation()), cell.key

    # Shape: n · polylog(n).
    ns = list(results)
    means = [results[n].completion.mean for n in ns]
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
                    evidence = (n, T, busy_round_count(pattern, T))
                    rows.append(
                        [n, T, label, evidence[2], LEMMA15.bound(evidence),
                         LEMMA15.verdict(evidence)]
                    )
                    checks.append(LEMMA15.reproduced(evidence))
        return rows, checks

    rows, checks = benchmark.pedantic(run, rounds=1, iterations=1)
    table_out(
        render_table(
            ["n", "T", "pattern", "busy rounds", "bound nT·H(n)", "Lemma 15"],
            rows,
            title="Lemma 15 (measured): busy rounds per wake-up pattern",
        )
    )
    assert all(checks)


def test_harmonic_trace_patterns_respect_lemma15(benchmark, table_out):
    """Wake-up patterns of real executions also satisfy Lemma 15."""

    def run():
        n, T = 24, 6
        return [
            (n, T, busy_round_count(
                wakeup_pattern_of(harmonic_rounds(n, T, seed)), T
            ))
            for seed in SEEDS
        ]

    evidence = benchmark.pedantic(run, rounds=1, iterations=1)
    table_out(
        render_table(
            ["busy rounds (execution)", "bound", "Lemma 15"],
            [(e[2], LEMMA15.bound(e), LEMMA15.verdict(e)) for e in evidence],
            title="Lemma 15 on real execution wake-up patterns",
        )
    )
    assert all(LEMMA15.reproduced(e) for e in evidence)
