"""Experiment T1 — Table 1: deterministic broadcast bounds.

Paper's Table 1 (the cells our model instances exercise):

* classical (``G = G'``), undirected, synchronous start: ``O(n)`` via
  round robin (round robin's ``n·ecc`` is the oblivious stand-in and is
  exactly linear on constant-diameter networks);
* dual graphs: upper bound ``O(n^{3/2} √log n)`` (Strong Select, bold in
  the table) versus lower bounds ``Ω(n log n)`` (Theorem 12, undirected)
  and ``Ω(n^{3/2})`` (Theorem 11 via [11], directed).

This bench regenerates the measured version of each row on a sweep of
``n`` and checks the ordering the table asserts: classical round robin is
linear on constant-diameter networks; Strong Select on adversarial duals
stays within its Theorem-10 bound; the Theorem-12 construction certifies
``≥ (n−1)/4 · (log₂(n−1) − 2)`` rounds.  Both bounds are read through
their claims in :mod:`repro.analysis.claims`.
"""

from repro import broadcast
from repro.adversaries import FixedAssignmentAdversary, GreedyInterferer
from repro.analysis import best_fit, render_table
from repro.analysis.claims import THEOREM10, THEOREM12, Observation
from repro.core import make_round_robin_processes
from repro.core.strong_select import build_schedule
from repro.graphs import clique_bridge, line, with_complete_unreliable
from repro.lowerbounds import theorem12_construction
from repro.sim import CollisionRule, StartMode

NS = [9, 17, 33, 65]


def classical_round_robin_rounds(n: int) -> int:
    """Worst-case identity placement: the bridge gets the last slot.

    Round robin's classical O(n) row is about worst-case ``proc``
    mappings; with the default identity mapping the bridge fires in round
    2 and the measurement is vacuous.
    """
    layout = clique_bridge(n)
    mapping = {layout.source: 0, layout.receiver: n - 1,
               layout.bridge: n - 2}
    free_uids = [u for u in range(1, n - 2)]
    free_nodes = [
        v for v in layout.graph.nodes
        if v not in (layout.source, layout.receiver, layout.bridge)
    ]
    mapping.update(dict(zip(free_nodes, free_uids)))
    trace = broadcast(
        layout.graph.classical_projection(),
        "round_robin",
        adversary=FixedAssignmentAdversary(mapping),
        collision_rule=CollisionRule.CR1,
        start_mode=StartMode.SYNCHRONOUS,
        seed=0,
    )
    assert trace.completed
    return trace.completion_round


def dual_strong_select_rounds(n: int) -> int:
    g = with_complete_unreliable(line(n))
    trace = broadcast(
        g, "strong_select", adversary=GreedyInterferer(), seed=0,
    )
    assert trace.completed
    return trace.completion_round


def run_experiment():
    classical = {}
    dual_upper = {}
    dual_lower = {}
    for n in NS:
        classical[n] = classical_round_robin_rounds(n)
        dual_upper[n] = dual_strong_select_rounds(n)
        dual_lower[n] = theorem12_construction(
            make_round_robin_processes, n
        )
    return classical, dual_upper, dual_lower


def test_table1_rows(benchmark, table_out):
    classical, dual_upper, dual_lower = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    rows = [
        [
            n,
            f"{classical[n]} (O(n): {n})",
            f"{dual_upper[n]} (X={build_schedule(n).round_bound()})",
            f"{dual_lower[n].total_rounds} "
            f"(≥{dual_lower[n].paper_total_guarantee:.0f})",
        ]
        for n in NS
    ]
    table_out(
        render_table(
            [
                "n",
                "classical det. (round robin, SS+U)",
                "dual-graph det. (Strong Select, CR4+AS)",
                "dual Ω(n log n) witness (Thm 12)",
            ],
            rows,
            title="Table 1 (measured): deterministic broadcast",
        )
    )

    for n in NS:
        # Row 1: classical undirected SS round robin is O(n) on the
        # constant-diameter network (within 2n).
        assert classical[n] <= 2 * n
        # Row 2: Strong Select stays within its Theorem-10 bound.
        assert THEOREM10.reproduced(
            Observation("strong_select", "hard-line", n, dual_upper[n])
        )
        # Row 3: the Theorem-12 witness meets the paper's guarantee.
        assert THEOREM12.reproduced(dual_lower[n])
        # Separation: unreliability costs real rounds.
        assert dual_lower[n].total_rounds > classical[n]


def test_table1_classical_linear_fit(benchmark, table_out):
    ns = [9, 17, 33, 65, 129]

    def sweep():
        return [classical_round_robin_rounds(n) for n in ns]

    ts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = best_fit(ns, ts, log_exponents=(0.0,))
    table_out(f"classical round robin fit: {fit.format()}")
    assert 0.8 <= fit.exponent <= 1.2  # linear shape
