"""Experiment E-THM11 — Theorem 11: the directed Ω(n^{3/2}) shape.

On the pivot-layer network (≈√n layers of ≈√n identities; progress gated
by adversarially placed pivots), feedback-free deterministic algorithms
pay ≈ a full identity cycle per layer: total rounds grow like
``n^{3/2}`` for round robin — the scaling [11] proves unavoidable for
every deterministic algorithm, making Strong Select's ``O(n^{3/2}√log
n)`` optimal up to ``O(√log n)`` on directed duals.
"""


from repro.analysis import best_fit, render_table
from repro.analysis.claims import THEOREM11
from repro.core import make_round_robin_processes
from repro.graphs import pivot_layers
from repro.lowerbounds import theorem11_lower_bound

SIDES = [3, 4, 5, 6, 8]  # layers = width = side; n = 1 + side*(side-1)...


def run_experiment():
    results = {}
    for side in SIDES:
        layout = pivot_layers(side, side)
        res = theorem11_lower_bound(
            make_round_robin_processes, layout=layout
        )
        assert res.completed
        results[side] = (layout, res)
    return results


def test_theorem11_shape(benchmark, table_out):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    ns, ts = [], []
    rows = []
    for side, (layout, res) in results.items():
        n = layout.graph.n
        ns.append(n)
        ts.append(res.total_rounds)
        rows.append(
            [
                side,
                n,
                res.total_rounds,
                f"{res.normalized:.3f}",
                round(n**1.5),
            ]
        )
    table_out(
        render_table(
            ["layers=width", "n", "rounds", "rounds/n^1.5", "n^1.5"],
            rows,
            title="Theorem 11 (measured): round robin on pivot layers",
        )
    )

    fit = best_fit(ns, ts, log_exponents=(0.0,))
    table_out(f"growth fit: {fit.format()}")
    # This is a lower-bound witness: the adversary must force at least
    # the n^{3/2} shape (clearly superlinear); forcing more at these
    # small sizes is fine.  Subquadratic sanity-checks the simulation.
    assert fit.exponent > 1.25
    assert fit.exponent < 2.1


def test_theorem11_engine_replay_matches(benchmark):
    # The claim's condensed cell: pivot layers 5 x 5, replayed in the
    # engine; its verdict requires the replay to match round for round.
    evidence, _ = benchmark.pedantic(
        THEOREM11.condensed, rounds=1, iterations=1
    )
    assert THEOREM11.reproduced(evidence)
