"""Experiment E-SEP — the headline model separation (Section 1).

Two curves on the same 2-broadcastable (diameter-2) networks:

* classical model (``G = G'``): deterministic round robin with friendly
  identity placement finishes in O(1)–O(n); randomized Decay in polylog;
* dual graph model: the Theorem-2 adversary forces every deterministic
  algorithm past ``n − 3`` rounds, and Theorem 4 caps randomized success
  probability at ``k/(n−2)``.

The separation factor (dual worst case / classical) must grow with n.
"""

from repro import broadcast
from repro.analysis import CampaignReport, render_table
from repro.core import make_round_robin_processes
from repro.experiments import ExperimentSpec, SweepRunner
from repro.graphs import clique_bridge
from repro.lowerbounds import theorem2_lower_bound
from repro.sim import CollisionRule, StartMode

NS = [9, 17, 33, 65]
SEEDS = range(4)
WORKERS = 2

#: The randomized classical curve as a declarative grid: Decay on the
#: clique-bridge classical projection, every (n, seed) cell in parallel.
CLASSICAL_RAND = ExperimentSpec(
    name="separation-classical-rand",
    algorithms=["decay"],
    graphs=[("clique-bridge-classical", n) for n in NS],
    adversaries=["none"],
    collision_rules=["CR3"],
    seeds=SEEDS,
    max_rounds=40_000,
)


def run_experiment():
    sweep = SweepRunner(CLASSICAL_RAND, workers=WORKERS).run()
    assert not sweep.failures, [r.key for r in sweep.failures]
    classical_rand_by_n = {
        cell.n: cell.completion.summary()
        for cell in CampaignReport.from_records(sweep.records).ordered()
    }

    rows = []
    factors = []
    for n in NS:
        classical_det = broadcast(
            clique_bridge(n).graph.classical_projection(),
            "round_robin",
            collision_rule=CollisionRule.CR1,
            start_mode=StartMode.SYNCHRONOUS,
        ).completion_round
        classical_rand = classical_rand_by_n[n].mean
        dual_det = theorem2_lower_bound(
            make_round_robin_processes, n
        ).worst_rounds
        factor = dual_det / max(1, classical_det)
        factors.append(factor)
        rows.append(
            [
                n,
                classical_det,
                f"{classical_rand:.1f}",
                dual_det,
                f"{factor:.1f}x",
            ]
        )
    return rows, factors


def test_separation(benchmark, table_out):
    rows, factors = benchmark.pedantic(run_experiment, rounds=1,
                                       iterations=1)
    table_out(
        render_table(
            [
                "n",
                "classical det. rounds",
                "classical rand. rounds (mean)",
                "dual det. worst-case rounds",
                "separation",
            ],
            rows,
            title="Model separation on diameter-2 networks "
            "(classical vs dual)",
        )
    )
    # The separation factor grows with n: unreliable links strictly
    # separate the models (the paper's headline).
    assert factors == sorted(factors)
    assert factors[-1] > factors[0] * 3
