"""Experiment E-SS — Theorem 10: Strong Select's upper bound.

Strong Select completes within ``X = n/ρ = 12·n·f(n)·2^{s_max}`` rounds
(Theorem 10) on every dual graph under CR4 + asynchronous start.  We
sweep ``n`` on adversarial constant-eccentricity duals, check measured
rounds stay within ``X``, and fit the growth shape.  The Kautz–Singleton
constructive variant (the paper's "Note on Constructive Solutions") is
measured alongside: the theory predicts only a ``√log n`` penalty.
Every bound is read through the Theorem 2 and Theorem 10 claims of
:mod:`repro.analysis.claims`.
"""

import functools

from repro import broadcast
from repro.adversaries import GreedyInterferer
from repro.analysis import best_fit, render_table
from repro.analysis.claims import (
    THEOREM2,
    THEOREM10,
    Observation,
    theorem2_observation,
)
from repro.core.runner import make_processes
from repro.core.strong_select import build_schedule
from repro.graphs import gnp_dual
from repro.lowerbounds import theorem2_lower_bound

NS = [16, 32, 64, 128]


def strong_select_worst(n: int, variant: str):
    """Worst case over bridge-identity placements on the clique-bridge
    dual (the Theorem-2 adversary family) — with a friendly identity
    mapping the instance is trivially easy, so the maximum over
    placements is the honest worst-case measurement."""
    factory = functools.partial(make_processes, variant)
    res = theorem2_lower_bound(factory, n, max_rounds=200 * n)
    return theorem2_observation(variant, res)


def run_experiment():
    existential = {n: strong_select_worst(n, "strong_select") for n in NS}
    constructive = {
        n: strong_select_worst(n, "strong_select_ks") for n in NS
    }
    return existential, constructive


def test_strong_select_bound_and_shape(benchmark, table_out):
    existential, constructive = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    rows = []
    for n in NS:
        sched = build_schedule(n)
        rows.append(
            [
                n,
                existential[n].worst,
                constructive[n].worst,
                sched.round_bound(),
                sched.s_max,
            ]
        )
    table_out(
        render_table(
            [
                "n",
                "rounds (existential SSFs)",
                "rounds (Kautz-Singleton SSFs)",
                "Theorem-10 bound X",
                "s_max",
            ],
            rows,
            title="Strong Select worst case over bridge placements "
            "(Theorem-2 adversary family, CR1 + sync start)",
        )
    )

    for n in NS:
        # Theorem 10, each variant against the X of its own SSFs.
        assert THEOREM10.reproduced(existential[n])
        assert THEOREM10.reproduced(constructive[n])
        # Theorem 2 floor: every deterministic algorithm pays > n - 3.
        assert THEOREM2.reproduced(existential[n])
    # Constructive variant within a small polylog factor of existential.
    for n in NS:
        assert constructive[n].worst <= 8 * existential[n].worst + 64

    fit = best_fit(NS, [existential[n].worst for n in NS])
    table_out(f"strong select growth: {fit.format()}")
    # Subquadratic shape on this constant-diameter adversarial family
    # (the n^{3/2}·polylog bound is the ceiling, Ω(n) the floor).
    assert 0.8 < fit.exponent < 2.0


def test_strong_select_random_duals(benchmark, table_out):
    """Average-case behaviour on random duals: far below the bound."""

    def run():
        out = {}
        for n in NS:
            trace = broadcast(
                gnp_dual(n, seed=1),
                "strong_select",
                adversary=GreedyInterferer(),
                seed=1,
            )
            assert trace.completed
            out[n] = trace.completion_round
        return out

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, rounds[n], build_schedule(n).round_bound()] for n in NS
    ]
    table_out(
        render_table(
            ["n", "rounds (random dual)", "Theorem-10 bound"],
            rows,
            title="Strong Select on random duals",
        )
    )
    for n in NS:
        assert THEOREM10.reproduced(
            Observation("strong_select", "gnp", n, rounds[n])
        )
