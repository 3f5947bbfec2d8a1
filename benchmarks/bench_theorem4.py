"""Experiment E-THM4 — Theorem 4: the randomized lower bound envelope.

Against the restricted adversary class (identity placement only; fixed
communication rules; CR1), no algorithm's probability of informing the
receiver within ``k`` rounds exceeds ``k/(n−2)``.  We estimate the
adversarial success probability of Harmonic Broadcast and Decay by
Monte-Carlo and chart it against the envelope.
"""

from repro.analysis import render_table
from repro.analysis.claims import THEOREM4
from repro.core import make_decay_processes, make_harmonic_processes
from repro.lowerbounds import theorem4_experiment

N = 14
TRIALS = 60
KS = [1, 2, 4, 6, 8, 10, 11]


def run_experiment():
    harmonic = theorem4_experiment(
        lambda t: make_harmonic_processes(N, T=2), N, trials=TRIALS
    )
    decay = theorem4_experiment(
        lambda t: make_decay_processes(N), N, trials=TRIALS
    )
    return harmonic, decay


def test_theorem4_envelope(benchmark, table_out):
    harmonic, decay = benchmark.pedantic(run_experiment, rounds=1,
                                         iterations=1)
    rows = []
    for k in KS:
        rows.append(
            [
                k,
                f"{harmonic.adversarial_success_probability(k):.3f}",
                f"{decay.adversarial_success_probability(k):.3f}",
                f"{harmonic.envelope(k):.3f}",
            ]
        )
    table_out(
        render_table(
            [
                "k",
                "harmonic: min_i P(informed ≤ k)",
                "decay: min_i P(informed ≤ k)",
                "envelope k/(n-2)",
            ],
            rows,
            title=(
                f"Theorem 4 (measured): n={N}, {TRIALS} trials per bridge "
                "identity, restricted adversary class"
            ),
        )
    )

    # The theorem: success probability within k rounds is at most
    # k/(n-2), read with the claim's Monte-Carlo slack.
    assert THEOREM4.reproduced(harmonic)
    assert THEOREM4.reproduced(decay)

    # Monotonicity sanity: more rounds cannot hurt.
    probs = [harmonic.adversarial_success_probability(k) for k in KS]
    assert probs == sorted(probs)
