"""Experiment OBS — the telemetry layer's overhead contract.

Two measurements back the contract stated in docs/OBSERVABILITY.md:

* **Enabled-path overhead (the contract: <= 5%).**  Each engine runs
  the reference workload under an enabled in-memory
  ``RecordingTelemetry`` and under the null sink, alternating, best of
  7 each; the on/off ratio must stay <= 1.05 on both engines.  The
  engines count each reception in the branch that resolves it, add
  the counts to the run's tallies once per round and fold them into
  the sink once per run, so a sink adds little to a round; with it
  off, the tallying is one skipped test per round.  The
  fast engine's ratio on the cr4-greedy cell (harmonic T=4, greedy,
  CR4, clique-bridge n=129) is printed too, for information.
* **Primitive throughput.**  Raw calls/s of the disabled ``count()``
  and ``span()`` no-ops.

Every timed pair is also checked for identical completion rounds; the
full trace-byte-equality guarantee lives in ``tests/test_obs.py``.
"""

import gc
import time

import pytest

from repro.analysis import render_table
from repro.core.runner import broadcast
from repro.experiments.registry import build_adversary, build_graph
from repro.obs import NullTelemetry, RecordingTelemetry, use
from repro.sim.collision import CollisionRule

_REPS = 7
_LIMIT = 0.05  # the <=5% enabled-telemetry overhead contract

#: name → (graph kind, n, algorithm, algorithm params, adversary, rule,
#: round cap).  ``line`` is the reference workload: a sparse line keeps
#: rounds cheap, the worst case for fixed per-round instrumentation.
#: ``cr4-greedy`` is perfbench's Theorem 2 cell.
_WORKLOADS = {
    "line": ("line", 200, "round_robin", None, "none", "CR3", None),
    "cr4-greedy": (
        "clique-bridge", 129, "harmonic", {"T": 4}, "greedy", "CR4", 126
    ),
}
_SEED = 1


def _run_once(workload, engine, telemetry):
    """One timed broadcast of ``workload`` on ``engine``."""
    kind, n, algorithm, params, adversary, rule, cap = _WORKLOADS[workload]
    graph = build_graph(kind, n, seed=_SEED)
    adv = build_adversary(adversary, seed=_SEED)
    gc.collect()  # stabilise: no inherited garbage in the timed region
    with use(telemetry):
        started = time.perf_counter()
        trace = broadcast(
            graph,
            algorithm,
            adversary=adv,
            seed=_SEED,
            max_rounds=cap,
            algorithm_params=params,
            engine=engine,
            collision_rule=CollisionRule[rule],
        )
        elapsed = time.perf_counter() - started
    return elapsed, len(trace.rounds)


def _measure(workload, engine):
    """Best-of-reps run times (off, on) plus the round count."""
    times = {"off": [], "on": []}
    rounds = {}
    for _ in range(_REPS):
        # Alternate modes within each rep so drift on a shared box
        # hits both sides equally.
        for mode in ("off", "on"):
            telemetry = (
                RecordingTelemetry()
                if mode == "on"
                else NullTelemetry()
            )
            elapsed, rounds[mode] = _run_once(workload, engine, telemetry)
            times[mode].append(elapsed)
    assert rounds["off"] == rounds["on"]
    return min(times["off"]), min(times["on"]), rounds["off"]


def _row(workload, engine, off, on, rounds):
    return [
        workload,
        engine,
        str(rounds),
        f"{off * 1e3:.2f} ms",
        f"{on * 1e3:.2f} ms",
        f"{on / off:.3f}",
    ]


_HEADER = ["workload", "engine", "rounds", "off", "on", "on/off"]


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_enabled_overhead_within_contract(engine, table_out):
    """An enabled sink costs <= 5% on the reference workload."""
    off, on, rounds = _measure("line", engine)
    table_out(
        render_table(
            _HEADER,
            [_row("line n=200", engine, off, on, rounds)],
            title=(
                f"OBS enabled overhead: {engine} engine "
                f"(contract <= {_LIMIT:.0%})"
            ),
        )
    )
    assert on / off <= 1 + _LIMIT, (
        f"an enabled sink costs {on / off - 1:.1%} on the {engine} "
        f"engine, over the {_LIMIT:.0%} contract "
        "(see docs/OBSERVABILITY.md)"
    )


def test_fast_engine_ratio_on_cr4_greedy(table_out):
    """The fast engine's on/off ratio on the cr4-greedy cell
    (informative: campaigns run this engine)."""
    off, on, rounds = _measure("cr4-greedy", "fast")
    table_out(
        render_table(
            _HEADER,
            [_row("cr4-greedy", "fast", off, on, rounds)],
            title="OBS enabled ratio (informative)",
        )
    )


def test_null_primitives_are_cheap(table_out):
    """The disabled count()/span() no-ops sustain >1M calls/s."""
    null = NullTelemetry()
    calls = 200_000
    rows = []
    rates = {}
    for name, op in (
        ("count", lambda: null.count("x")),
        ("span", lambda: null.span("x").__enter__()),
    ):
        gc.collect()
        started = time.perf_counter()
        for _ in range(calls):
            op()
        elapsed = time.perf_counter() - started
        rate = calls / elapsed if elapsed > 0 else float("inf")
        rates[name] = rate
        rows.append([name, f"{rate / 1e6:.1f}M"])
    table_out(
        render_table(
            ["no-op", "calls/s"],
            rows,
            title="OBS null-sink primitive throughput",
        )
    )
    assert min(rates.values()) > 1e6
