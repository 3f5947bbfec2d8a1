"""Command-line interface: run broadcasts and experiments from a shell.

Usage (module form)::

    python -m repro run --graph gnp --n 64 --algorithm harmonic \
        --adversary greedy --seed 7
    python -m repro sweep --graph clique-bridge --algorithm strong_select \
        --sizes 16,32,64 --seeds 0,1,2 --workers 4
    python -m repro sweep --spec examples/specs/tiny_sweep.json \
        --workers 4 --results results/tiny.jsonl
    python -m repro sweep --spec examples/specs/tiny_sweep.json \
        --workers 4 --results results/campaign --store sharded
    python -m repro merge --results results/campaign --out results/all.jsonl
    python -m repro report --results results/campaign
    python -m repro lowerbound --theorem 2 --n 32
    python -m repro lowerbound --theorem 12 --n 33 --algorithm round_robin

Everything the CLI can do is a thin layer over the library API; the CLI
exists so experiments are reproducible from shell history alone.  Every
run goes through :mod:`repro.experiments`: ``repro run`` is one sweep
task, named by the same inline flags as ``repro sweep`` (one builder,
:func:`_inline_spec`), so the same flags give the same task key, the
same key-derived seeds and the same record.
Sweeps fan out over worker processes, and with ``--results`` they
persist each run as a JSON line and resume by key after an
interruption.  The flush cadence is the store backend's own (jsonl:
every record, sharded: every 64); ``--seeds`` is the sweep's seed axis,
and ``repro search --engine`` names ``fast`` or ``reference``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Dict, Optional, Sequence

from repro.analysis import CampaignReport, best_fit, render_table
from repro.core.runner import ALGORITHMS, algorithm_names, make_processes
from repro.sim.engine import ENGINE_NAMES
from repro.sim.faults import REJOIN_POLICIES
from repro.store import STORE_BACKENDS
from repro.experiments import (
    ExperimentSpec,
    SweepRunner,
    adversary_kinds,
    churn_kinds,
    curve_key_of,
    graph_kinds,
    load_specs,
)
from repro.experiments.registry import ADVERSARIES, CHURNS, GRAPHS
from repro.experiments.runner import WorkerLostError, run_task


def _warn_health(health, source: str, noun: str) -> None:
    """Print the unified store-damage warning when there is damage.

    One text for both subsystems and every backend — the
    :class:`~repro.store.base.StoreHealth` satellite of the storage
    redesign.
    """
    message = health.warning(source, noun)
    if message:
        print(message, file=sys.stderr)


def _store_backend(args) -> Optional[str]:
    """The ``--store`` choice, with ``auto`` mapped to detection."""
    return None if args.store == "auto" else args.store


#: ``repro run``'s churn flags, by churn kind: factory param -> flag.
#: ``repro sweep`` has no churn flags.
_CHURN_FLAGS = {
    "rate": {
        "crash_rate": "crash_rate",
        "recover_rate": "recover_rate",
        "rejoin": "rejoin",
    },
    "window": {
        "count": "churn_count",
        "start": "churn_start",
        "length": "churn_length",
        "rejoin": "rejoin",
    },
}


def _inline_spec(args) -> ExperimentSpec:
    """The one-spec grid that the inline flags of ``run`` and ``sweep``
    name.

    ``run`` gives one ``--n`` and ``--seed`` where ``sweep`` gives
    ``--sizes`` and ``--seeds``, so the same flags name the same task
    key, and hence the same record, under both.  An axis ``sweep`` has
    no flag for (``--cr``, ``--churn``) takes the spec default.
    """
    if args.graph not in graph_kinds():
        raise SystemExit(
            f"unknown graph {args.graph!r}; choose from {graph_kinds()}"
        )
    if args.adversary not in adversary_kinds():
        raise SystemExit(
            f"unknown adversary {args.adversary!r}; "
            f"choose from {adversary_kinds()}"
        )
    churn = getattr(args, "churn", "none")
    churn_params = {
        param: getattr(args, flag)
        for param, flag in _CHURN_FLAGS.get(churn, {}).items()
    }
    try:
        if hasattr(args, "sizes"):
            sizes = [int(s) for s in args.sizes.split(",")]
            seeds = [int(s) for s in args.seeds.split(",")]
        else:
            sizes, seeds = [args.n], [args.seed]
        if args.adversary == "pivot" and len(sizes) > 1:
            # The pivot adversary is built per network size; one spec
            # entry cannot cover a size grid.  Spec files can (one
            # adversary entry per size); the inline form takes a single
            # --sizes.
            raise SystemExit(
                "--adversary pivot needs a single --sizes value "
                "(its layout is built per network size); use a spec "
                "file for grids"
            )
        # PivotAdversary is built from the pivot-layers layout of the size.
        params = {"random": {"p": args.p}, "pivot": {"n": sizes[0]}}
        return ExperimentSpec(
            name=f"{args.algorithm}-{args.graph}",
            algorithms=[args.algorithm],
            graphs=[(args.graph, n) for n in sizes],
            adversaries=[(args.adversary, params.get(args.adversary, {}))],
            collision_rules=[getattr(args, "cr", "CR4")],
            engines=[args.engine or "reference"],
            churns=[(churn, churn_params)],
            seeds=seeds,
            max_rounds=args.max_rounds,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_run(args) -> int:
    """Run one task through the sweep's run step under a recording
    telemetry sink; print its trace summary, its phase and counter
    tables, its key and its record."""
    from repro.obs import RecordingTelemetry, perf_document, perf_tables, use

    (task,) = _inline_spec(args).tasks()
    telemetry = RecordingTelemetry()
    try:
        with use(telemetry):
            record, trace = run_task(task)
    except ValueError as exc:
        raise SystemExit(str(exc))
    summary = trace.summary()
    perf = perf_document(telemetry.spans, telemetry.counters)
    if args.json:
        summary.update(key=task.key, record=record.to_dict(), perf=perf)
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            render_table(
                ["quantity", "value"],
                list(summary.items()),
                title=f"{args.algorithm} on {trace.network_name}",
            )
        )
        for table in perf_tables(perf):
            if table:
                print()
                print(table)
        print()
        print(f"key: {task.key}")
        print(f"record: {json.dumps(record.to_dict(), sort_keys=True)}")
    return 0 if trace.completed else 1


def _print_growth_fits(report: CampaignReport) -> None:
    """Fit completion-round growth once per curve: cells that differ
    only in n."""
    curves: Dict[str, Dict[int, float]] = {}
    for cell in report.cells.values():
        if cell.completion.count:
            curve = curve_key_of(cell.key, cell.graph_kind, cell.n)
            curves.setdefault(curve, {})[cell.n] = cell.completion.mean
    for curve, means in sorted(curves.items()):
        if len(means) < 2:
            continue
        sizes = sorted(means)
        fit = best_fit(sizes, [means[n] for n in sizes])
        print(f"growth fit [{curve}]: {fit.format()}")


def cmd_sweep(args) -> int:
    if args.spec:
        try:
            specs = load_specs(args.spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"cannot load spec {args.spec!r}: {exc}")
        if args.engine:
            # An explicit --engine overrides every loaded spec's engine
            # axis (results are engine-independent; only keys change).
            specs = [
                dataclasses.replace(spec, engines=(args.engine,))
                for spec in specs
            ]
        title = f"sweep spec {args.spec}"
    else:
        specs = [_inline_spec(args)]
        title = (
            f"{args.algorithm} on {args.graph}, adversary="
            f"{args.adversary}, seeds={list(specs[0].seeds)}"
        )

    sink = None
    if args.events:
        if not args.results:
            raise SystemExit(
                "--events requires --results: the events.jsonl stream "
                "lives beside the campaign store"
            )
        from repro.obs import JsonlTelemetry, events_path
        from repro.store import detect_backend

        # A directory-shaped campaign keeps its stream *inside* the
        # directory; create it up front so events_path resolves the
        # directory form even on a campaign's very first sweep.
        backend = _store_backend(args) or detect_backend(args.results)
        if backend == "sharded":
            os.makedirs(args.results, exist_ok=True)
        sink = JsonlTelemetry(events_path(args.results))

    try:
        runner = SweepRunner(
            specs,
            workers=args.workers,
            results_path=args.results,
            store=_store_backend(args),
        )
        if sink is not None:
            from repro.obs import use

            try:
                with use(sink):
                    result = runner.run()
            finally:
                sink.close()
        else:
            result = runner.run()
    except (ValueError, WorkerLostError) as exc:
        # Bad worker counts, unknown graph/adversary kinds, duplicate
        # task keys, campaign fingerprint mismatches: user input
        # problems, not crashes.  A twice-lost worker pool names the
        # lost units; the records written so far resume.
        raise SystemExit(str(exc))

    _warn_health(result.health, args.results, "task")
    for record in result.failures:
        print(
            f"warning: {record.key} hit the round cap", file=sys.stderr
        )
    report = CampaignReport.from_records(result.records)
    print(
        report.render(
            title=f"{title} ({result.executed} run, "
            f"{result.resumed} resumed, {result.elapsed:.1f}s, "
            f"workers={args.workers})"
        )
    )
    _print_growth_fits(report)
    return 0 if not result.failures else 1


def cmd_list(args) -> int:
    """Print every registered kind with its one-line description."""
    from repro.search.searchers import SEARCHERS

    sections = [
        ("graphs", "graph kinds", GRAPHS),
        ("adversaries", "adversary kinds", ADVERSARIES),
        ("churns", "churn kinds (fault injection)", CHURNS),
        ("algorithms", "algorithms", ALGORITHMS),
        ("searchers", "searcher kinds (repro search)", SEARCHERS),
    ]
    if args.json:
        doc = {key: reg.descriptions() for key, _, reg in sections}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for _, title, registry in sections:
        print(
            render_table(
                ["kind", "description"],
                [list(row) for row in registry.descriptions().items()],
                title=title,
            )
        )
    return 0


def _search_settings(args) -> "SearchSettings":  # noqa: F821
    from repro.search import SearchSettings

    # Accept underscore spellings of registered hyphenated kinds.  An
    # unknown kind or algorithm is the search's own ValueError.
    kind = args.graph
    if kind not in graph_kinds() and kind.replace("_", "-") in graph_kinds():
        kind = kind.replace("_", "-")
    return SearchSettings(
        algorithm=args.algorithm,
        graph_kind=kind,
        n=args.n,
        collision_rule=args.cr,
        start_mode=args.start_mode,
        seed=args.seed,
        max_rounds=args.max_rounds,
        engine=args.engine,
    )


def cmd_search(args) -> int:
    from repro.search import (
        SearchBudget,
        run_search,
        supports_theorem2,
        theorem2_comparison,
    )

    settings = _search_settings(args)
    try:
        result = run_search(
            settings,
            searcher=args.searcher,
            budget=SearchBudget(
                evaluations=args.budget, batch_size=args.batch_size
            ),
            seed=args.search_seed,
            workers=args.workers,
            results_path=args.results,
            verify=args.verify,
            store=_store_backend(args),
        )
    except (ValueError, WorkerLostError) as exc:
        raise SystemExit(str(exc))

    _warn_health(result.health, args.results, "candidate")
    comparison = None
    if args.compare_theorem2:
        if supports_theorem2(settings):
            comparison = theorem2_comparison(result)
        else:
            print(
                f"warning: --compare-theorem2 skipped: graph kind "
                f"{settings.graph_kind!r} is not in the Theorem-2 "
                "clique-bridge family",
                file=sys.stderr,
            )
    if args.json:
        doc = result.summary()
        if comparison is not None:
            doc["theorem2"] = dataclasses.asdict(comparison)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        rows = result.table_rows()
        if result.replay_verified is not None:
            rows.append(["replay verified", result.replay_verified])
        print(
            render_table(
                ["quantity", "value"],
                rows,
                title=f"adversary search: {args.searcher} vs "
                f"{settings.algorithm} on {settings.graph_kind} "
                f"(n={settings.n}, {settings.collision_rule}, "
                f"{result.executed} run, {result.resumed} resumed, "
                f"{result.elapsed:.1f}s)",
            )
        )
        if comparison is not None:
            print(
                render_table(
                    ["quantity", "value"],
                    comparison.table_rows(),
                    title="search vs Theorem 2",
                )
            )
    return 0 if result.replay_verified is not False else 1


def cmd_merge(args) -> int:
    """Fold a campaign store into one canonical JSONL results file."""
    from repro.store import RawRecord, merge_store, open_store

    try:
        source = open_store(args.results, parse=RawRecord)
        count = merge_store(source, args.out)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    _warn_health(source.health, args.results, "record")
    print(
        f"merged {args.results} -> {args.out}: {count} record(s), "
        "key-sorted (idempotent; resumable by any sweep/search "
        "with --results pointing at the merged file)"
    )
    return 0


def cmd_report(args) -> int:
    """Stream a campaign into the paper-reproduction table set."""
    from repro.experiments import RunResult
    from repro.store import open_store

    try:
        store = open_store(args.results, parse=RunResult.from_dict)
        report = CampaignReport.from_store(store)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    _warn_health(store.health, args.results, "record")
    # Perf panel: present only when the campaign ran with --events (a
    # missing stream is a normal state, not an error).
    from repro.obs import events_path, perf_summary, render_perf_panel

    perf = (
        perf_summary(args.results)
        if events_path(args.results).exists()
        else None
    )
    if args.json:
        doc = report.to_dict()
        if perf is not None:
            doc["perf"] = perf
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report.render(title=f"campaign {args.results}"))
        if perf is not None:
            print()
            print(render_perf_panel(perf))
    if not report.records:
        # A valid-but-empty campaign (e.g. a store opened before its
        # first sweep finished a record) is a normal state, not an
        # error; scripts gating on the exit code must only fail on
        # damage.  The JSON payload already reports records: 0.
        print(
            f"note: {args.results} holds no sweep records yet",
            file=sys.stderr,
        )
    return 1 if store.health.issues else 0


def cmd_progress(args) -> int:
    """Render a campaign's progress from its events.jsonl stream."""
    import time

    from repro.obs import events_path, read_progress

    stream = events_path(args.results)
    if not stream.exists():
        raise SystemExit(
            f"no events stream at {stream}; run the sweep with --events"
        )
    progress = read_progress(args.results)
    if args.json:
        print(json.dumps(progress.to_dict(), indent=2, sort_keys=True))
        return 0
    if not args.follow:
        print(progress.render_line())
        return 0
    # Live tail: rewrite one status line until the campaign finishes.
    while True:
        line = progress.render_line()
        print(f"\r\x1b[2K{line}", end="", flush=True)
        if progress.finished:
            print()
            return 0
        time.sleep(args.interval)
        progress = read_progress(args.results)


def cmd_check(args) -> int:
    """Run the AST invariant checker (see docs/CHECKS.md)."""
    import pathlib

    from repro.check import check_paths

    paths = [pathlib.Path(p) for p in (args.paths or ["src/repro"])]
    try:
        report = check_paths(paths)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    return 0 if report.clean else 1


def cmd_lowerbound(args) -> int:
    from repro.lowerbounds import (
        theorem2_lower_bound,
        theorem11_lower_bound,
        theorem12_construction,
    )
    from repro.lowerbounds.theorem2 import DETERMINISTIC_ALGORITHMS

    if args.algorithm not in DETERMINISTIC_ALGORITHMS:
        raise SystemExit(
            "lower-bound drivers need a deterministic algorithm: "
            f"{sorted(DETERMINISTIC_ALGORITHMS)}"
        )
    factory = functools.partial(make_processes, args.algorithm)

    if args.theorem == 2:
        from repro.analysis.claims import THEOREM2, theorem2_observation

        res = theorem2_lower_bound(factory, args.n)
        observation = theorem2_observation(args.algorithm, res)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["worst-case rounds", res.worst_rounds],
                    ["theorem 2 bound", THEOREM2.bound(observation)],
                    ["worst bridge identity", res.worst_bridge_uid],
                    ["theorem 2 verdict", THEOREM2.verdict(observation)],
                ],
                title=f"Theorem 2 vs {args.algorithm}",
            )
        )
        return 0
    if args.theorem == 11:
        res = theorem11_lower_bound(factory, n=args.n)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["layers x width", f"{res.num_layers} x {res.width}"],
                    ["total rounds", res.total_rounds],
                    ["rounds / n^1.5",
                     f"{res.normalized:.3f}" if res.normalized else "—"],
                ],
                title=f"Theorem 11 vs {args.algorithm}",
            )
        )
        return 0
    if args.theorem == 12:
        n = args.n if args.n % 2 else args.n + 1
        res = theorem12_construction(factory, n)
        print(
            render_table(
                ["quantity", "value"],
                [
                    ["n", res.n],
                    ["certified rounds", res.total_rounds],
                    ["stages", len(res.stages)],
                    ["min early-stage rounds", res.min_early_stage_rounds],
                    ["paper total guarantee",
                     f"{res.paper_total_guarantee:.0f}"],
                ],
                title=f"Theorem 12 vs {args.algorithm}",
            )
        )
        return 0
    raise SystemExit("supported theorems: 2, 11, 12")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Broadcasting in unreliable radio networks — "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one broadcast")
    run.add_argument("--graph", default="gnp", help=f"{graph_kinds()}")
    run.add_argument("--n", type=int, default=32)
    run.add_argument(
        "--algorithm", default="strong_select",
        help=f"{algorithm_names()}"
    )
    run.add_argument(
        "--adversary", default="greedy", help=f"{adversary_kinds()}"
    )
    run.add_argument("--p", type=float, default=0.5,
                     help="delivery probability for --adversary random")
    run.add_argument(
        "--cr", default="CR4", choices=["CR1", "CR2", "CR3", "CR4"],
        help="collision rule",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-rounds", type=int, default=None)
    run.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="reference",
        help="execution engine (fast = bitmask fast path; identical "
        "traces)",
    )
    run.add_argument(
        "--churn", default="none",
        help=f"fault-injection kind: {churn_kinds()} (see `repro "
        "list`); schedules derive deterministically from --seed",
    )
    run.add_argument(
        "--crash-rate", type=float, default=0.02,
        help="per-round crash probability for --churn rate",
    )
    run.add_argument(
        "--recover-rate", type=float, default=0.2,
        help="per-round recovery probability for --churn rate",
    )
    run.add_argument(
        "--rejoin", choices=list(REJOIN_POLICIES), default="uninformed",
        help="recovery policy: uninformed loses the payload on crash "
        "(must be re-informed), informed keeps it (stable storage)",
    )
    run.add_argument(
        "--churn-count", type=int, default=1,
        help="nodes taken down by --churn window",
    )
    run.add_argument(
        "--churn-start", type=int, default=2,
        help="first down round for --churn window",
    )
    run.add_argument(
        "--churn-length", type=int, default=4,
        help="rounds the window nodes stay down",
    )
    run.add_argument("--json", action="store_true")
    run.set_defaults(func=cmd_run)

    # No prefix matching: ``--seed`` must not silently mean ``--seeds``.
    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid (optionally in parallel)",
        allow_abbrev=False,
    )
    sweep.add_argument(
        "--spec", default=None,
        help="JSON spec file (one spec object or a list); overrides the "
        "inline grid flags below",
    )
    sweep.add_argument("--graph", default="gnp")
    sweep.add_argument("--algorithm", default="strong_select")
    sweep.add_argument("--adversary", default="greedy")
    sweep.add_argument("--p", type=float, default=0.5)
    sweep.add_argument("--sizes", default="16,32,64")
    sweep.add_argument("--seeds", default="0,1,2")
    sweep.add_argument("--max-rounds", type=int, default=None)
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (default 1: in-process)",
    )
    sweep.add_argument(
        "--results", default=None,
        help="results file (JSON lines) or campaign directory "
        "(sharded store); existing records are resumed rather than "
        "re-run",
    )
    sweep.add_argument(
        "--store", choices=list(STORE_BACKENDS), default="auto",
        help="result-store backend behind --results (auto: a "
        "directory is a sharded campaign, a file is JSON lines; "
        "see docs/STORAGE.md)",
    )
    sweep.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default=None,
        help="execution engine for every task (overrides the spec "
        "file's engines axis); records are identical either way",
    )
    sweep.add_argument(
        "--events", action="store_true",
        help="write a schema-versioned events.jsonl telemetry stream "
        "beside --results (progress, worker heartbeats, engine "
        "counters; consumed by repro progress and repro report)",
    )
    sweep.set_defaults(func=cmd_sweep)

    lister = sub.add_parser(
        "list",
        help="list registered graph/adversary/algorithm/searcher kinds",
    )
    lister.add_argument(
        "--json", action="store_true",
        help="machine-readable registry listing (kind -> description "
        "per registry) for tooling",
    )
    lister.set_defaults(func=cmd_list)

    search = sub.add_parser(
        "search",
        help="search for a worst-case adversary strategy "
        "(see docs/SEARCH.md)",
    )
    search.add_argument("--graph", default="clique-bridge",
                        help=f"{graph_kinds()}")
    search.add_argument("--n", type=int, default=16)
    search.add_argument(
        "--algorithm", default="round_robin",
        help=f"{algorithm_names()}",
    )
    search.add_argument(
        "--cr", default="CR1", choices=["CR1", "CR2", "CR3", "CR4"],
        help="collision rule the candidates are scored under",
    )
    search.add_argument(
        "--start-mode", default="synchronous",
        choices=["synchronous", "asynchronous"],
        help="start rule (lower-bound constructions use synchronous)",
    )
    search.add_argument(
        "--searcher", default="random",
        help="searcher kind (see `repro list`)",
    )
    search.add_argument(
        "--budget", type=int, default=64,
        help="total candidate evaluations (across resumes)",
    )
    search.add_argument(
        "--batch-size", type=int, default=8,
        help="candidates generated and evaluated per iteration",
    )
    search.add_argument(
        "--seed", type=int, default=0,
        help="cell seed: engine randomness derives from it",
    )
    search.add_argument(
        "--search-seed", type=int, default=0,
        help="seed of the candidate-generation rng",
    )
    search.add_argument("--max-rounds", type=int, default=None)
    search.add_argument(
        "--workers", type=int, default=1,
        help="parallel evaluation processes (default 1: in-process)",
    )
    search.add_argument(
        "--results", default=None,
        help="candidate results file (JSON lines) or campaign "
        "directory; existing evaluations are resumed by key rather "
        "than re-run",
    )
    search.add_argument(
        "--store", choices=list(STORE_BACKENDS), default="auto",
        help="result-store backend behind --results (see "
        "docs/STORAGE.md)",
    )
    search.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="fast",
        help="evaluation engine (CR4 genomes included; reference "
        "forces the baseline); scores are identical either way",
    )
    search.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="replay-certify the best genome through a strict "
        "ReplayAdversary on the reference engine (--no-verify skips)",
    )
    search.add_argument(
        "--compare-theorem2", action="store_true",
        help="on clique-bridge cells, also print the found worst case "
        "next to the scripted-adversary stall, with the Theorem 2 "
        "claim's bound and verdict",
    )
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=cmd_search)

    merge = sub.add_parser(
        "merge",
        help="merge a campaign store into one canonical JSONL file "
        "(see docs/STORAGE.md)",
    )
    merge.add_argument(
        "--results", required=True,
        help="source store: a campaign directory (sharded) or a JSONL "
        "results file",
    )
    merge.add_argument(
        "--out", required=True,
        help="destination JSONL file; existing records there are "
        "kept and updated by key (idempotent, key-sorted, atomic)",
    )
    merge.set_defaults(func=cmd_merge)

    report = sub.add_parser(
        "report",
        help="stream a campaign into the paper-reproduction tables "
        "(completion summaries + Thm 2/10/18 reference bounds)",
    )
    report.add_argument(
        "--results", required=True,
        help="campaign to report on: results file or campaign "
        "directory under any store backend",
    )
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=cmd_report)

    prog = sub.add_parser(
        "progress",
        help="show a campaign's progress from its events.jsonl stream "
        "(written by repro sweep --events)",
    )
    prog.add_argument(
        "results",
        help="the campaign's results file or directory (the stream "
        "lives beside it)",
    )
    prog.add_argument(
        "--json", action="store_true",
        help="machine-readable progress document (done/total, rate, "
        "ETA, per-worker liveness)",
    )
    prog.add_argument(
        "--follow", action="store_true",
        help="keep re-rendering the status line until the campaign "
        "finishes",
    )
    prog.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds for --follow",
    )
    prog.set_defaults(func=cmd_progress)

    check = sub.add_parser(
        "check",
        help="statically check the determinism and stdlib-only "
        "contracts (AST rules, see docs/CHECKS.md)",
    )
    check.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: src/repro)",
    )
    check.set_defaults(func=cmd_check)

    lb = sub.add_parser(
        "lowerbound", help="run an executable lower-bound construction"
    )
    lb.add_argument("--theorem", type=int, required=True,
                    choices=[2, 11, 12])
    lb.add_argument("--n", type=int, default=17)
    lb.add_argument("--algorithm", default="round_robin")
    lb.set_defaults(func=cmd_lowerbound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``).  Point
        # stdout at devnull so the interpreter's flush at exit cannot
        # raise again, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
