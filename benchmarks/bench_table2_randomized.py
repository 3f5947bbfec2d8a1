"""Experiment T2 — Table 2: randomized broadcast bounds.

Paper's Table 2: classical randomized broadcast completes in
``O(D log(n/D) + log² n)`` w.h.p. (Czumaj–Rytter; Decay is our baseline
stand-in with the same constant-diameter polylog behaviour), while the
dual graph model needs ``Ω(n)`` even on diameter-2 networks (Theorem 4)
and Harmonic Broadcast achieves ``O(n log² n)`` (bold cell).

Measured rows on constant-diameter networks, both declared as
:mod:`repro.experiments` grids and executed by one parallel sweep:

* classical: Decay on the clique-bridge classical projection —
  polylogarithmic in ``n``;
* dual: bare Harmonic (the paper's ``T = ⌈12 ln(n/ε)⌉``) on the same
  network against the greedy interferer — grows at least linearly (the
  Theorem 4 effect), within Theorem 18's ``2nT·H(n)``.
"""

from repro.analysis import CampaignReport, best_fit, render_table
from repro.analysis.claims import THEOREM18
from repro.experiments import ExperimentSpec, SweepRunner

NS = [9, 17, 33, 65]
SEEDS = range(5)
WORKERS = 2

CLASSICAL = ExperimentSpec(
    name="table2-classical",
    algorithms=["decay"],
    graphs=[("clique-bridge-classical", n) for n in NS],
    adversaries=["none"],
    collision_rules=["CR3"],
    seeds=SEEDS,
    max_rounds=50_000,
)

DUAL = ExperimentSpec(
    name="table2-dual",
    algorithms=["harmonic"],
    graphs=[("clique-bridge", n) for n in NS],
    adversaries=["greedy"],
    collision_rules=["CR4"],
    seeds=SEEDS,
)


def cells_by_n(records, sweep):
    """``n → report cell`` of one sweep (each sweep here has one cell
    per size)."""
    return {
        cell.n: cell
        for cell in CampaignReport.from_records(records).ordered()
        if cell.sweep == sweep
    }


def run_experiment():
    result = SweepRunner([CLASSICAL, DUAL], workers=WORKERS).run()
    assert not result.failures, [r.key for r in result.failures]
    classical = cells_by_n(result.records, CLASSICAL.name)
    return classical, cells_by_n(result.records, DUAL.name)


def test_table2_rows(benchmark, table_out):
    classical, dual = benchmark.pedantic(run_experiment, rounds=1,
                                         iterations=1)
    rows = [
        [
            n,
            classical[n].completion.summary().format(),
            dual[n].completion.summary().format(),
            dual[n].harmonic_T,
            THEOREM18.bound(dual[n].observation()),
        ]
        for n in NS
    ]
    table_out(
        render_table(
            [
                "n",
                "classical rand. (Decay, CR3)",
                "dual-graph rand. (Harmonic vs greedy, CR4)",
                "T",
                "Harmonic bound 2nT·H(n)",
            ],
            rows,
            title="Table 2 (measured): randomized broadcast "
            f"(diameter-2 networks, {len(list(SEEDS))} seeds)",
        )
    )

    # Classical stays polylog: far below n for large n.
    assert classical[65].completion.mean < 65
    # Dual pays the Ω(n) toll: grows roughly linearly and dominates the
    # classical row at every size.
    for n in NS:
        assert dual[n].completion.mean > classical[n].completion.mean
    assert dual[65].completion.mean / dual[9].completion.mean > 3.0
    # And stays within the Theorem-18 bound.
    for cell in dual.values():
        assert THEOREM18.reproduced(cell.observation()), cell.key


def test_table2_dual_growth_fit(benchmark, table_out):
    def sweep():
        result = SweepRunner(DUAL, workers=WORKERS).run()
        cells = cells_by_n(result.records, DUAL.name)
        return [cells[n].completion.mean for n in NS]

    ts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fit = best_fit(NS, ts)
    table_out(f"dual-graph harmonic growth: {fit.format()}")
    # Shape: at least linear in n (the classical model would be polylog).
    assert fit.exponent > 0.7
