"""Ablation benchmarks for the algorithms' design choices.

1. **Participate-once** (Strong Select): the paper's rule bounds the
   window in which stale nodes interfere.  We compare against the
   cycle-forever variant under the greedy interferer.
2. **Harmonic's T constant**: the analysis needs ``T ≥ 12 ln(n/ε)``; we
   sweep smaller constants and watch the completion tail degrade
   relative to the bound.  Each row's Theorem 18 scope comes from the
   claim in :mod:`repro.analysis.claims` (every swept T is below it).
3. **Adversary strength ladder**: none → random(p) → greedy → scripted
   worst case, for both algorithms — quantifying how much of the
   slowdown is adversarial scheduling versus mere link noise.
"""

from repro import broadcast
from repro.adversaries import (
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    RandomDeliveryAdversary,
)
from repro.analysis import render_table, summarize
from repro.analysis.claims import THEOREM18, Observation
from repro.core.harmonic import completion_bound
from repro.graphs import clique_bridge, gnp_dual

N = 32
SEEDS = range(4)


def run_participate_once():
    rows = []
    g = clique_bridge(N).graph
    for label, params in [
        ("participate-once (paper)", {}),
        ("cycle-forever", {"participate_once": False}),
    ]:
        trace = broadcast(
            g,
            "strong_select",
            adversary=GreedyInterferer(),
            algorithm_params=params,
            seed=0,
        )
        assert trace.completed
        total_tx = sum(trace.sender_counts())
        rows.append([label, trace.completion_round, total_tx])
    return rows


def test_ablation_participate_once(benchmark, table_out):
    rows = benchmark.pedantic(run_participate_once, rounds=1, iterations=1)
    table_out(
        render_table(
            ["variant", "completion round", "total transmissions"],
            rows,
            title="Ablation: Strong Select participate-once rule "
            f"(n={N}, clique-bridge dual, greedy interferer)",
        )
    )
    # Both complete; the participate-once variant transmits less overall
    # (nodes fall silent), which is the rule's stated purpose.
    once_tx = rows[0][2]
    forever_tx = rows[1][2]
    assert once_tx <= forever_tx


def run_harmonic_T_sweep():
    rows = []
    g = clique_bridge(N).graph
    for T in (1, 2, 4, 8, 16):
        rounds = []
        for s in SEEDS:
            trace = broadcast(
                g,
                "harmonic",
                adversary=GreedyInterferer(),
                algorithm_params={"T": T},
                seed=s,
                max_rounds=20 * completion_bound(N, T),
            )
            assert trace.completed
            rounds.append(trace.completion_round)
        summary = summarize(rounds)
        bound = completion_bound(N, T)
        observation = Observation(
            "harmonic", "clique-bridge", g.n, summary.maximum, harmonic_T=T
        )
        rows.append(
            [T, summary.format(), bound, f"{summary.maximum / bound:.2f}",
             THEOREM18.verdict(observation)]
        )
    return rows


def test_ablation_harmonic_T(benchmark, table_out):
    rows = benchmark.pedantic(run_harmonic_T_sweep, rounds=1, iterations=1)
    table_out(
        render_table(
            ["T", "completion rounds", "bound 2nT·H(n)",
             "max/bound ratio", "Thm 18"],
            rows,
            title=f"Ablation: Harmonic plateau length T (n={N})",
        )
    )
    # Larger T gives more isolation headroom: the max/bound ratio at the
    # largest T must be comfortably under 1.
    assert float(rows[-1][3]) < 1.0


def run_adversary_ladder():
    rows = []
    g = gnp_dual(N, seed=3)
    ladder = [
        ("none", NoDeliveryAdversary),
        ("full", FullDeliveryAdversary),
        ("random(0.5)", lambda: RandomDeliveryAdversary(0.5, seed=1)),
        ("greedy", GreedyInterferer),
    ]
    for alg in ("strong_select", "harmonic", "round_robin"):
        for label, mk in ladder:
            rounds = []
            for s in SEEDS:
                trace = broadcast(
                    g, alg, adversary=mk(), seed=s,
                    algorithm_params=(
                        {"T": 4} if alg == "harmonic" else {}
                    ),
                )
                assert trace.completed
                rounds.append(trace.completion_round)
            rows.append([alg, label, summarize(rounds).format()])
    return rows


def test_ablation_adversary_ladder(benchmark, table_out):
    rows = benchmark.pedantic(run_adversary_ladder, rounds=1, iterations=1)
    table_out(
        render_table(
            ["algorithm", "adversary", "completion rounds"],
            rows,
            title=f"Ablation: adversary strength ladder (n={N}, random dual)",
        )
    )
    assert len(rows) == 12
