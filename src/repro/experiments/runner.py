"""The sweep executor: fan a task grid out over worker processes.

:func:`execute_batch` is the unit of work — a module-level function
taking and returning picklable values, so a worker process can run it
anywhere — and :func:`execute_task` is a batch of one.
:func:`run_task` runs one task through the same cell setup and run
step and also returns its trace; ``repro run`` prints both.
:class:`SweepRunner` expands one or more
:class:`~repro.experiments.spec.ExperimentSpec`\\ s, skips tasks whose
records already sit in the results store (resume-by-key), groups the
remaining tasks into one :class:`~repro.experiments.spec.CellBatch` per
science cell (every axis except the seed), and submits each batch to a
:class:`WorkerPool` as its own future.  Each worker builds a cell's
graph and compiles its engine topology
(:class:`~repro.sim.topology.CompiledTopology`) once
(:func:`compile_cell`), derives its round cap, then runs the cell's
seeds in a tight loop (:func:`cell_engine`) — amortising setup that
otherwise dominates seeds-heavy cells (``benchmarks/bench_sweep.py``
measures the win).  The adversary search
(:mod:`repro.search.evaluate`) runs its candidates through the same
pool, cell setup and run step.

Invariants:

* **Determinism** — each task's engine seed is derived from its science
  key, and the final record list is key-sorted, so the same spec
  produces the identical
  :class:`~repro.experiments.results.SweepResult` records for any
  worker count, completion order, batch split, engine choice, or resume
  history.
* **Batching is pure scheduling** — the per-seed loop inside a batch
  hoists only graph/cap/topology construction, and only when the
  cell's graph kind is seed-independent per
  :func:`~repro.experiments.registry.graph_seed_dependent` (``gnp``-like
  kinds rebuild per seed), so a record never depends on which batch
  its task ran in.  ``tests/test_batching.py`` asserts this.
* **Durable resume** — with ``results_path`` set, each record is
  appended to the sweep's result store (:mod:`repro.store`: a single
  JSON-lines file by default, a sharded campaign directory on request)
  the moment its result reaches the parent process, so an interrupted
  sweep leaves a valid prefix.  Durability cadence is the backend's own
  policy: the default JSONL backend flushes every record, the sharded
  backend every 64.
  *Resume* granularity is per task: pending tasks are filtered by key
  before batches are planned, so whatever a kill left on disk,
  re-running executes exactly the missing seeds.
  *Durability* granularity is the dispatch unit — a batch's records
  reach the parent together when the batch finishes, so a hard kill
  forfeits (and the resume re-runs) the in-flight batches' completed
  seeds, bounded by the batch-splitting cap in ``_plan_units``.  The
  storage layer (:mod:`repro.store`) heals a torn final line — the
  signature of a hard kill mid-write — by skipping (and counting)
  what does not parse on load and starting the next append on a
  fresh line.
* **Worker loss is survived once** — a worker that dies mid-unit
  breaks the pool; :class:`WorkerPool` starts one fresh pool and
  resubmits every unit that has not returned.  A second loss raises
  :class:`WorkerLostError` naming the lost units; the records already
  appended stay on disk, so re-running the same command resumes.
* **Engine transparency** — every collision-rule/adversary combination
  runs on the engine the task names; the engines are proven
  trace-equivalent, so the record is the same either way (only its
  ``engine`` field tells which implementation ran).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from multiprocessing.context import BaseContext
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.adversaries.base import Adversary
from repro.core.runner import make_processes, suggested_round_limit
from repro.obs.telemetry import Stopwatch, Telemetry, current, set_telemetry
from repro.experiments.registry import (
    build_adversary,
    build_churn,
    build_graph,
    graph_seed_dependent,
)
from repro.experiments.results import RunResult, SweepResult
from repro.experiments.spec import (
    CellBatch,
    ExperimentSpec,
    RunTask,
    plan_batches,
)
from repro.sim.collision import CollisionRule
from repro.sim.engine import (
    BroadcastEngine, EngineConfig, ExecutionTrace, StartMode, build_engine,
)
from repro.sim.topology import CompiledTopology, compile_topology
from repro.store import ResultStore, StoreHealth, open_store

#: Called after each finished task with (result, done_count, total).
ProgressCallback = Callable[[RunResult, int, int], None]


class _WorkerStats:
    """Per-process heartbeat state: a clock and a cumulative tally."""

    __slots__ = ("watch", "tasks_done")

    def __init__(self) -> None:
        self.watch = Stopwatch()
        self.tasks_done = 0


#: pid → heartbeat state; cleared on the first heartbeat after a fork
#: so a child never reports the parent's clock or tally as its own.
_WORKER_STATS: Dict[int, _WorkerStats] = {}


def _heartbeat(telemetry: Telemetry, tasks_done: int) -> None:
    """Emit one worker heartbeat (pid, cumulative tasks, tasks/s).

    Called from the worker side after each finished dispatch unit.  The
    trailing ``flush()`` also pushes the engine-counter deltas
    accumulated since the last heartbeat into the sink as a ``stats``
    event, so perf panels can sum per-worker contributions.  A no-op
    without an enabled sink.
    """
    if not telemetry.enabled:
        return
    pid = os.getpid()
    stats = _WORKER_STATS.get(pid)
    if stats is None:
        _WORKER_STATS.clear()  # drop state inherited through fork
        stats = _WORKER_STATS[pid] = _WorkerStats()
    stats.tasks_done += tasks_done
    elapsed = stats.watch.elapsed()
    rate = stats.tasks_done / elapsed if elapsed > 0.0 else 0.0
    telemetry.event(
        "heartbeat", tasks_done=stats.tasks_done, rate=rate
    )
    telemetry.flush()


def _init_worker_telemetry(target: Optional[str]) -> None:
    """Pool initializer: ensure workers have a telemetry sink.

    Fork-started workers inherit the parent's sink (whose pid check
    diverts their writes to a sibling stream, see
    :mod:`repro.obs.jsonl`), so they need nothing here; spawn-started
    workers start with the null default and install their own
    ``worker=True`` sink against the campaign's stream path.
    """
    if target is not None and not current().enabled:
        from repro.obs.jsonl import JsonlTelemetry

        set_telemetry(JsonlTelemetry(target, worker=True))


class _ProgressEmitter:
    """Rate-limited ``progress`` events for the live campaign stream.

    At most ~2 events per second, except that the terminal state
    (``done == total``) always emits — a finished campaign's stream
    must end on the true count.
    """

    _MIN_INTERVAL = 0.5

    def __init__(self, telemetry: Telemetry, total: int) -> None:
        self._telemetry = telemetry
        self._total = total
        self._watch = Stopwatch()
        self._last = -self._MIN_INTERVAL

    def update(self, done: int) -> None:
        """Emit ``done``/total if the rate limit (or the end) allows."""
        if not self._telemetry.enabled:
            return
        now = self._watch.elapsed()
        if done < self._total and now - self._last < self._MIN_INTERVAL:
            return
        self._last = now
        self._telemetry.event(
            "progress", done=done, total=self._total
        )


def compile_cell(cell: Any) -> CompiledTopology:
    """Build a cell's graph and compile its engine topology.

    ``cell`` names ``graph_kind``, ``n``, ``seed`` and ``graph_params``
    (a :class:`~repro.experiments.spec.RunTask` or a search cell).
    """
    telemetry = current()
    with telemetry.span("graph_build"):
        graph = build_graph(
            cell.graph_kind,
            cell.n,
            seed=cell.seed,
            **dict(cell.graph_params),
        )
    with telemetry.span("topology_compile"):
        return compile_topology(graph)


def cell_engine(
    cell: Any,
    topology: CompiledTopology,
    adversary: Adversary,
    config: EngineConfig,
) -> BroadcastEngine:
    """The engine that runs a cell's ``algorithm`` against ``adversary``."""
    processes = make_processes(
        cell.algorithm, topology.graph.n, **dict(cell.algorithm_params)
    )
    return build_engine(
        topology.graph, processes, adversary, config, topology=topology
    )


def _round_cap(task: RunTask, topology: CompiledTopology) -> int:
    """The task's ``max_rounds``, or its algorithm's proven-bound limit
    on the built graph."""
    if task.max_rounds is not None:
        return task.max_rounds
    return suggested_round_limit(task.algorithm, topology.graph)


def _execute_on(
    task: RunTask, topology: CompiledTopology, max_rounds: int
) -> Tuple[RunResult, ExecutionTrace]:
    """Run one task on its cell's compiled topology and round cap."""
    graph = topology.graph
    adversary = build_adversary(
        task.adversary_kind,
        seed=task.derived_seed,
        **dict(task.adversary_params),
    )
    # The churn schedule is built from the task's key-derived seed and
    # its *resolved* round cap, so rate-based schedules cover the whole
    # horizon and are reproducible from the spec alone.
    churn = build_churn(
        task.churn_kind,
        n=graph.n,
        rounds=max_rounds,
        seed=task.derived_seed,
        **dict(task.churn_params),
    )
    config = EngineConfig(
        collision_rule=CollisionRule[task.collision_rule],
        start_mode=StartMode(task.start_mode),
        max_rounds=max_rounds,
        seed=task.derived_seed,
        engine=task.engine,
        churn=churn,
    )
    engine = cell_engine(task, topology, adversary, config)
    with current().span("engine_run"):
        trace = engine.run()
    record = RunResult(
        key=task.key,
        sweep=task.sweep,
        algorithm=task.algorithm,
        graph_kind=task.graph_kind,
        n=task.n,
        graph_n=graph.n,
        adversary_kind=task.adversary_kind,
        collision_rule=task.collision_rule,
        start_mode=task.start_mode,
        seed=task.seed,
        completed=trace.completed,
        completion_round=trace.completion_round,
        rounds=trace.num_rounds,
        total_transmissions=sum(trace.sender_counts()),
        engine=task.engine,
        churn_kind=task.churn_kind,
    )
    return record, trace


def run_task(task: RunTask) -> Tuple[RunResult, ExecutionTrace]:
    """Run one task and return its record together with its trace.

    The same cell setup and run step a sweep dispatches, for callers
    that want the round-by-round trace as well (``repro run``).
    """
    topology = compile_cell(task)
    return _execute_on(task, topology, _round_cap(task, topology))


def execute_task(task: RunTask) -> RunResult:
    """Run one grid cell seed and return its deterministic record.

    A batch of one: the same pipeline every sweep dispatches.
    """
    return execute_batch(CellBatch((task,)))[0]


def execute_batch(batch: CellBatch) -> List[RunResult]:
    """Run one science cell's pending seeds with shared setup.

    When the cell's graph kind is seed-independent
    (:func:`~repro.experiments.registry.graph_seed_dependent`), the
    graph is built, the round cap derived and the engine topology
    compiled exactly once for the whole batch; seed-dependent kinds
    (``gnp``, ``gray-zone``) rebuild all three per seed, so a record
    never depends on the batch its task ran in.
    """
    share = not graph_seed_dependent(batch.tasks[0].graph_kind)
    topology: Optional[CompiledTopology] = None
    results: List[RunResult] = []
    for task in batch.tasks:
        if topology is None or not share:
            topology = compile_cell(task)
            max_rounds = _round_cap(task, topology)
        results.append(_execute_on(task, topology, max_rounds)[0])
    _heartbeat(current(), len(results))
    return results


class SweepRunner:
    """Run one or several specs as a single fanned-out sweep.

    Args:
        specs: One :class:`ExperimentSpec` or a sequence of them (their
            task keys must be disjoint; spec names namespace the keys).
        workers: Worker process count.  ``1`` runs in-process (no pool),
            which is also the fallback when only one dispatch unit is
            pending.
        results_path: Optional results location — a JSON-lines file
            (default backend) or a campaign directory (sharded
            backend).  Existing records are loaded and their
            tasks skipped; new records are appended as they finish, so
            interrupting and re-running resumes where the sweep
            stopped.
        store: Result-store backend name (``"jsonl"`` or
            ``"sharded"``); ``None``/``"auto"`` detects from the
            path (see :func:`repro.store.detect_backend`).
    """

    def __init__(
        self,
        specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
        workers: int = 1,
        results_path: Optional[str] = None,
        store: Optional[str] = None,
    ) -> None:
        """Validate the configuration and store it (see class docs)."""
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        self.specs: List[ExperimentSpec] = list(specs)
        if not self.specs:
            raise ValueError("need at least one spec")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.results_path = results_path
        self.store = store

    def tasks(self) -> List[RunTask]:
        """The combined, ordered task list of all specs."""
        out: List[RunTask] = []
        seen: Dict[str, str] = {}
        for spec in self.specs:
            for task in spec.tasks():
                if task.key in seen:
                    raise ValueError(
                        f"duplicate task key {task.key!r} "
                        f"(specs {seen[task.key]!r} and {spec.name!r})"
                    )
                seen[task.key] = spec.name
                out.append(task)
        return out

    def fingerprint(self, tasks: Optional[List[RunTask]] = None) -> str:
        """A stable campaign fingerprint: hash of the sorted task keys.

        Written into manifest-carrying store backends so a campaign
        directory refuses records from a *different* spec instead of
        silently interleaving two campaigns.  Stable across worker
        counts, batch splits and resume histories by construction.
        """
        if tasks is None:
            tasks = self.tasks()
        keys = sorted(t.key for t in tasks)
        # A fingerprint over non-unique keys would hash colliding tasks
        # into one campaign identity; refuse before any worker runs
        # (externally-assembled task lists bypass the spec-level and
        # ``tasks()`` duplicate checks, so this is the last gate).
        dupes = sorted(
            {k for k, nxt in zip(keys, keys[1:]) if k == nxt}
        )
        if dupes:
            raise ValueError(
                f"non-unique task keys {dupes[:5]}: colliding tasks "
                "would overwrite each other's resume records"
            )
        digest = hashlib.sha256("\n".join(keys).encode("utf-8"))
        return digest.hexdigest()[:16]

    def open_store(
        self, tasks: Optional[List[RunTask]] = None
    ) -> Optional[ResultStore]:
        """The result store behind ``results_path`` (``None`` if unset).

        Opens the path through :func:`repro.store.open_store` with the
        ``store`` backend (``None``: auto-detection) and this sweep's
        spec fingerprint.
        """
        if not self.results_path:
            return None
        return open_store(
            self.results_path,
            parse=RunResult.from_dict,
            backend=self.store,
            fingerprint=self.fingerprint(tasks),
        )

    def run(
        self, progress: Optional[ProgressCallback] = None
    ) -> SweepResult:
        """Execute all pending tasks and return the aggregated result."""
        watch = Stopwatch()
        telemetry = current()
        tasks = self.tasks()
        done: Dict[str, RunResult] = {}
        store = self.open_store(tasks)
        if store is not None:
            with telemetry.span("resume_scan"):
                on_disk = store.claim_keys()
            done = {
                t.key: on_disk[t.key] for t in tasks if t.key in on_disk
            }
        pending = [t for t in tasks if t.key not in done]

        records = dict(done)
        total = len(tasks)
        if telemetry.enabled:
            telemetry.event(
                "campaign_start",
                name=self.specs[0].name,
                total=total,
                resumed=len(done),
                workers=self.workers,
            )
        emitter = _ProgressEmitter(telemetry, total)
        results = self._execute(pending)
        try:
            for result in results:
                records[result.key] = result
                if store is not None:
                    with telemetry.span("store_append"):
                        store.append(result)
                if progress is not None:
                    progress(result, len(records), total)
                emitter.update(len(records))
        finally:
            # Closing the generator now (not when the traceback lets
            # it go) aborts the pool, so an error here stops the grid.
            results.close()
            if store is not None:
                with telemetry.span("store_flush"):
                    store.close()

        elapsed = watch.elapsed()
        if telemetry.enabled:
            telemetry.event(
                "campaign_end",
                done=len(records),
                total=total,
                elapsed=elapsed,
            )
            telemetry.flush()
        health = store.health if store is not None else StoreHealth()
        return SweepResult(
            records=list(records.values()),
            executed=len(pending),
            resumed=len(done),
            elapsed=elapsed,
            health=health,
        )

    def _plan_units(self, pending: Sequence[RunTask]) -> List[CellBatch]:
        """Plan the batched dispatch units for the pending tasks.

        One batch per science cell, except that with a pool in play
        oversized cells are split so the sweep always yields at least
        ~2 dispatch units per worker: a single-cell hundred-seed sweep
        must occupy every worker, not serialise into one batch.  Each
        sub-batch re-runs the cell setup once, so amortisation is
        preserved within sub-batches.
        """
        batches = plan_batches(pending)
        if self.workers <= 1 or not pending:
            return batches
        # ceil-divide: the largest batch size that still yields at
        # least workers * 2 units when cells alone are too few.
        max_size = -(-len(pending) // (self.workers * 2))
        return [
            sub for batch in batches for sub in batch.split(max_size)
        ]

    def _execute(self, pending: Sequence[RunTask]) -> Iterator[RunResult]:
        """Yield one :class:`RunResult` per pending task.

        Results stream back in completion order (a sub-batch's seeds
        stay contiguous); :meth:`run` re-establishes the canonical key
        order, so scheduling never leaks into results.
        """
        units = self._plan_units(pending)
        if self.workers == 1 or len(units) <= 1:
            for unit in units:
                yield from execute_batch(unit)
            return
        # Spawn-started workers re-import everything and would lose the
        # campaign's sink; the initializer hands them its stream path
        # (fork workers inherit the sink and the initializer no-ops).
        sink_path = getattr(current(), "path", None)
        with WorkerPool(
            self.workers,
            initializer=_init_worker_telemetry,
            initargs=(
                str(sink_path) if sink_path is not None else None,
            ),
        ) as pool:
            for _, out in pool.run(
                execute_batch,
                units,
                label=lambda b: f"{b.cell_key} seeds {[t.seed for t in b.tasks]}",
            ):
                yield from out


def pool_context() -> BaseContext:
    """The multiprocessing context every worker pool starts from.

    Prefers fork, so runtime registry entries (``register_graph``,
    ``register_algorithm``, ...) reach the workers; spawn platforms
    (macOS, Windows) re-import the registries and only see
    module-level entries.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerLostError(RuntimeError):
    """Worker processes died twice in one :meth:`WorkerPool.run`."""


class WorkerPool:
    """The one process pool of sweeps and searches.

    :meth:`run` submits each unit as its own future and yields
    ``(index, result)`` pairs in completion order.  The executor starts
    on first use and serves every :meth:`run` until :meth:`close`.  If
    a worker dies (``SIGKILL``, the OOM killer), one fresh executor
    reruns every unit that has not returned; a second loss raises
    :class:`WorkerLostError`.  A consumer that stops early aborts the
    pool: queued units are cancelled and the workers terminated.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ) -> None:
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._executor = None

    def run(
        self,
        fn: Callable[[Any], Any],
        units: Iterable[Any],
        label: Callable[[Any], str],
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, fn(unit))`` per unit; ``label`` names lost ones."""
        # Imported here, so CLI starts and in-process sweeps, which
        # never start a pool, do not pay for these imports (they pull
        # in logging and multiprocessing's queues).
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pending = dict(enumerate(units))
        try:
            for _ in range(2):
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        self.workers,
                        mp_context=pool_context(),
                        initializer=self._initializer,
                        initargs=self._initargs,
                    )
                futures = {}
                try:
                    for index, unit in pending.items():
                        futures[self._executor.submit(fn, unit)] = index
                except BrokenProcessPool:
                    pass  # a worker died mid-submission: rerun the rest
                for future in as_completed(futures):
                    if not isinstance(future.exception(), BrokenProcessPool):
                        yield futures[future], future.result()
                        del pending[futures[future]]
                if not pending:
                    return
                self.close()  # the executor broke: the rerun starts afresh
        except BaseException:
            self.close(abort=True)
            raise
        lost = [label(unit) for unit in pending.values()]
        more = f" and {len(lost) - 5} more" if len(lost) > 5 else ""
        raise WorkerLostError(
            f"worker processes died twice; {len(lost)} unit(s) lost: "
            f"{', '.join(lost[:5])}{more}. Results already written to "
            "a results store stay there; re-running the same command "
            "resumes from them."
        )

    def close(self, abort: bool = False) -> None:
        """Shut the executor down after its running units finish, or
        (``abort``) cancel queued units and terminate the workers."""
        executor, self._executor = self._executor, None
        if executor is not None:
            # Nothing public stops a running unit, so an abort
            # terminates the workers, read from the table ``shutdown``
            # drops.
            procs = list((executor._processes or {}).values()) if abort else []
            executor.shutdown(wait=not abort, cancel_futures=abort)
            for proc in procs:
                proc.terminate()
                proc.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(abort=exc_type is not None)


def run_sweep(
    specs: Union[ExperimentSpec, Sequence[ExperimentSpec]],
    workers: int = 1,
    results_path: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    store: Optional[str] = None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        specs, workers=workers, results_path=results_path, store=store
    ).run(progress=progress)
