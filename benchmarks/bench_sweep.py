"""Experiment SWEEP — the parallel sweep subsystem's own claims.

Four measured properties of :mod:`repro.experiments` and its storage
layer :mod:`repro.store`:

1. Throughput: fanning a 100-run (algorithm × graph × seed) grid over
   worker processes completes faster than the serial baseline, with
   identical records (the determinism guarantee).
2. Durability: a sweep interrupted mid-run — simulated by truncating
   the JSON-lines results file to a prefix plus a torn final line —
   resumes by key and re-executes only the missing tasks.
3. Batching: grouping a seeds-heavy grid into per-cell batches — one
   graph build, round-cap derivation and engine-topology compilation
   per cell instead of per seed — beats running the same tasks as
   batches of one (:func:`~repro.experiments.runner.execute_task`) by
   ≥ 1.25x in-process, with identical records.
4. Store append throughput: the sharded campaign store's batched flush
   policy (``flush_every=64``) sustains ≥ 1.2x the append rate of the
   single-file JSONL store's historical flush-per-record policy.

Speedup on a laptop is bounded by the core count (and on small shared
boxes by cache/bandwidth contention); the table reports measured wall
times and parallel efficiency rather than assuming an ideal machine.
"""

import itertools
import os
import time

from repro.analysis import render_table
from repro.core.harmonic import completion_bound
from repro.experiments import ExperimentSpec, SweepRunner, execute_task
from repro.experiments.results import RunResult
from repro.store import JsonlStore, ShardedStore, open_store

WORKERS = max(2, min(4, os.cpu_count() or 2))

#: A 100-task grid: 2 plateau lengths × 2 sizes × 25 seeds of randomized
#: Harmonic against the greedy interferer (the package's canonical
#: adversarial workload).
GRID = ExperimentSpec(
    name="sweep-grid",
    algorithms=[("harmonic", {"T": 2}), ("harmonic", {"T": 4})],
    graphs=[("clique-bridge", 33), ("clique-bridge", 65)],
    adversaries=["greedy"],
    seeds=range(25),
    max_rounds=4 * completion_bound(65, 4),
)


def run_scaling_experiment():
    timings = {}
    records = {}
    for workers in (1, WORKERS):
        started = time.perf_counter()
        result = SweepRunner(GRID, workers=workers).run()
        timings[workers] = time.perf_counter() - started
        records[workers] = result.records
        assert not result.failures, [r.key for r in result.failures]
    return timings, records


def test_sweep_parallel_speedup(benchmark, table_out):
    timings, records = benchmark.pedantic(
        run_scaling_experiment, rounds=1, iterations=1
    )
    serial, parallel = timings[1], timings[WORKERS]
    speedup = serial / parallel
    table_out(
        render_table(
            ["workers", "wall seconds", "speedup", "efficiency"],
            [
                [1, f"{serial:.2f}", "1.00x", "100%"],
                [
                    WORKERS,
                    f"{parallel:.2f}",
                    f"{speedup:.2f}x",
                    f"{100 * speedup / WORKERS:.0f}%",
                ],
            ],
            title=f"Sweep scaling: {GRID.size}-run grid "
            f"(harmonic vs greedy, clique-bridge)",
        )
    )
    # The acceptance claim: the fan-out beats the serial baseline.
    assert parallel < serial
    # And parallelism never changes the science: identical records.
    assert records[1] == records[WORKERS]


def test_sweep_resume_after_interrupt(
    benchmark, table_out, sweep_table_out, tmp_path
):
    results_file = tmp_path / "grid.jsonl"

    def full_then_interrupted_run():
        SweepRunner(
            GRID, workers=WORKERS, results_path=str(results_file)
        ).run()
        with open_store(str(results_file), RunResult.from_dict) as store:
            reference = store.claim_keys()

        # Simulate a hard kill mid-run: keep the first half of the
        # records plus a torn final line (a write cut off mid-record).
        lines = results_file.read_text(encoding="utf-8").splitlines()
        kept = lines[: len(lines) // 2]
        results_file.write_text(
            "\n".join(kept) + '\n{"key": "sweep-grid/harm',
            encoding="utf-8",
        )

        resumed = SweepRunner(
            GRID, workers=WORKERS, results_path=str(results_file)
        ).run()
        return reference, len(kept), resumed

    reference, kept, resumed = benchmark.pedantic(
        full_then_interrupted_run, rounds=1, iterations=1
    )
    sweep_table_out(resumed, "Sweep grid after interrupt + resume")
    table_out(
        f"sweep resume: {GRID.size}-task grid interrupted after {kept} "
        f"records -> resumed {resumed.resumed}, re-executed only "
        f"{resumed.executed} (torn final line discarded)"
    )
    # Finished tasks are not re-executed...
    assert resumed.resumed == kept
    assert resumed.executed == GRID.size - kept
    # ...and the resumed sweep reconstructs the exact same records.
    assert {r.key: r for r in resumed.records} == reference
    assert len(resumed.records) == GRID.size


#: 64 cheap cells (2 algorithms × 8 sizes × 2 adversaries × 2 rules) ×
#: 2 seeds: at least 16 dispatch units per worker for up to 4 workers.
CHUNK_GRID = ExperimentSpec(
    name="chunk-grid",
    algorithms=["round_robin", ("harmonic", {"T": 2})],
    graphs=[("line", n) for n in range(6, 14)],
    adversaries=["greedy", "random"],
    collision_rules=["CR1", "CR4"],
    seeds=range(2),
)


def test_sweep_chunked_dispatch_covers_grid(benchmark):
    """Many more dispatch units than workers, one future each, come
    back in completion order without dropping or duplicating a task."""

    def run():
        result = SweepRunner(CHUNK_GRID, workers=WORKERS).run()
        return [r.key for r in result.records]

    keys = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = sorted(t.key for t in CHUNK_GRID.tasks())
    assert keys == expected
    assert len(set(keys)) == CHUNK_GRID.size


#: A seeds-heavy grid for the batching claim: 2 cells × 25 seeds on a
#: large graph (clique-bridge n=129), where per-seed graph construction
#: and topology compilation dominate batches of one.
BATCH_GRID = ExperimentSpec(
    name="sweep-batch",
    algorithms=["round_robin", ("harmonic", {"T": 4})],
    graphs=[("clique-bridge", 129)],
    adversaries=["none"],
    engines=["fast"],
    seeds=range(25),
)


def test_sweep_batching_speedup(benchmark, table_out):
    """Per-cell batching amortises setup: ≥ 1.25x over per-task."""

    def run_both_modes():
        timings = {}
        records = {}
        started = time.perf_counter()
        records["per-task"] = sorted(
            (execute_task(t) for t in BATCH_GRID.tasks()),
            key=lambda r: r.key,
        )
        timings["per-task"] = time.perf_counter() - started
        started = time.perf_counter()
        result = SweepRunner(BATCH_GRID).run()
        timings["batched"] = time.perf_counter() - started
        records["batched"] = result.records
        assert not result.failures, [r.key for r in result.failures]
        return timings, records

    timings, records = benchmark.pedantic(
        run_both_modes, rounds=1, iterations=1
    )
    per_task, batched = timings["per-task"], timings["batched"]
    speedup = per_task / batched
    cells = len({t.cell_key for t in BATCH_GRID.tasks()})
    seeds = BATCH_GRID.size // cells
    table_out(
        render_table(
            ["dispatch", "wall seconds", "speedup"],
            [
                ["per-task", f"{per_task:.2f}", "1.00x"],
                ["batched", f"{batched:.2f}", f"{speedup:.2f}x"],
            ],
            title=f"Sweep batching: {cells} cells × {seeds} seeds "
            f"(clique-bridge n=129, fast engine, in-process)",
        )
    )
    # The acceptance claim: shared per-cell setup pays for itself.
    assert speedup >= 1.25
    # And batching never changes the science: identical records.
    assert records["batched"] == records["per-task"]


#: Synthetic append workload: enough records that flush policy
#: dominates, small enough to run in seconds on any box.
APPEND_RECORDS = 5_000


def _synthetic_record(i):
    completion = 5 + (i % 7)
    return RunResult(
        key=f"bench/round_robin/line:n8/none/CR1-synchronous/s{i}",
        sweep="bench",
        algorithm="round_robin",
        graph_kind="line",
        n=8,
        graph_n=8,
        adversary_kind="none",
        collision_rule="CR1",
        start_mode="synchronous",
        seed=i,
        completed=True,
        completion_round=completion,
        rounds=completion,
        total_transmissions=completion,
        engine="reference",
    )


def test_store_append_throughput(benchmark, table_out, tmp_path):
    """Sharded batched flush beats flush-per-record JSONL by ≥ 1.2x.

    Both stores run with ``fsync`` durability so the comparison is
    commit-for-commit: the single-file store's historical policy makes
    every record durable individually (``flush_every=1``), while the
    sharded campaign default amortises the durable commit across 64
    appends — the flush policy, not the record codec, is the knob
    under test.
    """
    records = [_synthetic_record(i) for i in range(APPEND_RECORDS)]

    def run_both_stores():
        timings = {}
        counts = {}
        stores = {
            # Historical durability contract: one commit per record.
            "jsonl (flush_every=1)": JsonlStore(
                str(tmp_path / "bench.jsonl"),
                RunResult.from_dict,
                fsync=True,
            ),
            # Campaign default: one commit per 64 appends.
            "sharded (flush_every=64)": ShardedStore(
                str(tmp_path / "bench-camp"),
                RunResult.from_dict,
                fsync=True,
            ),
        }
        for label, store in stores.items():
            started = time.perf_counter()
            with store:
                for record in records:
                    store.append(record)
            timings[label] = time.perf_counter() - started
            counts[label] = len(store.claim_keys())
        return timings, counts

    timings, counts = benchmark.pedantic(
        run_both_stores, rounds=1, iterations=1
    )
    jsonl, sharded = timings.values()
    speedup = jsonl / sharded
    table_out(
        render_table(
            ["backend", "wall seconds", "records/s", "speedup"],
            [
                [
                    label,
                    f"{seconds:.2f}",
                    f"{APPEND_RECORDS / seconds:,.0f}",
                    f"{jsonl / seconds:.2f}x",
                ]
                for label, seconds in timings.items()
            ],
            title=f"Store append throughput: {APPEND_RECORDS:,} "
            "records, durable appends, single writer",
        )
    )
    # The acceptance claim: batched flush pays for itself.
    assert speedup >= 1.2
    # And both stores persisted every record, resumable by key.
    assert all(c == APPEND_RECORDS for c in counts.values())


def test_sweep_grid_enumeration():
    """The declared grid is the full cross product, in stable order."""
    tasks = GRID.tasks()
    assert len(tasks) == GRID.size == 100
    combos = {(t.algorithm_params, t.n, t.seed) for t in tasks}
    assert combos == set(
        itertools.product(
            ((("T", 2),), (("T", 4),)), (33, 65), range(25)
        )
    )
    assert [t.key for t in tasks] == [t.key for t in GRID.tasks()]
