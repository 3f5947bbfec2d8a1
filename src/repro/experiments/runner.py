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
science cell (every axis except the seed), and hands the batches to a
:class:`WorkerPool`, which runs them in-process with one worker (or
one unit) and otherwise submits each as its own future.  Each batch
builds its cell's graph and compiles its engine topology
(:class:`~repro.sim.topology.CompiledTopology`) once
(:func:`compile_cell`), derives its round cap (:func:`round_cap`),
then runs the cell's seeds in a tight loop (:func:`cell_engine`, which
builds the engine and its config from the cell) — amortising setup
that otherwise dominates seeds-heavy cells
(``benchmarks/bench_sweep.py`` measures the win).  The adversary
search (:mod:`repro.search`) hands the same pool ``(settings,
genome)`` units, runs them through the same cell setup, round cap and
run step, and resumes and persists them through the same
:class:`StoreSession`.

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
  appended (:class:`StoreSession`) to the sweep's result store
  (:mod:`repro.store`: a single JSON-lines file by default, a sharded
  campaign directory on request) the moment its result reaches the
  parent process, so an interrupted sweep leaves a valid prefix.
  Durability cadence is the backend's own policy: the default JSONL
  backend flushes every record, the sharded backend every 64.
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
* **One telemetry writer** — pool workers record telemetry in memory
  and hand it back with each finished unit (:class:`WorkerPool`); the
  sweep's own process folds it into its sink and emits one
  ``heartbeat`` per unit, so a campaign's ``events.jsonl`` has a single
  writer and a unit rerun after a worker loss is counted once.
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
from repro.obs.telemetry import (
    RecordingTelemetry,
    Stopwatch,
    Telemetry,
    current,
    replay,
    set_telemetry,
)
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
from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule
from repro.sim.engine import (
    BroadcastEngine, EngineConfig, ExecutionTrace, StartMode, build_engine,
)
from repro.sim.faults import ChurnSchedule
from repro.sim.topology import CompiledTopology, compile_topology
from repro.store import ResultStore, StoreHealth, open_store

#: Called after each finished task with (result, done_count, total).
ProgressCallback = Callable[[RunResult, int, int], None]


class _CampaignEvents:
    """A sweep's live ``progress`` and ``heartbeat`` events.

    ``progress`` is rate-limited to ~2 events per second, except that
    the terminal state (``done == total``) always emits — a finished
    campaign's stream must end on the true count.  Each finished
    dispatch unit emits one ``heartbeat`` naming the ``worker`` (pid)
    that ran it, with that worker's cumulative task count and tasks/s
    since the sweep started.
    """

    _MIN_INTERVAL = 0.5

    def __init__(self, telemetry: Telemetry, total: int) -> None:
        self._telemetry = telemetry
        self._total = total
        self._watch = Stopwatch()
        self._last = -self._MIN_INTERVAL
        self._tasks_done: Dict[Optional[int], int] = {}

    def progress(self, done: int) -> None:
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

    def heartbeat(self, worker: Optional[int], tasks: int) -> None:
        """Report one finished unit of ``tasks`` tasks run by ``worker``
        (``None`` only with telemetry off, as the pool yields it).

        The trailing ``flush()`` also writes the counters and spans
        gathered since the last heartbeat as one ``stats`` event, so a
        killed campaign's stream still sums the units that finished.
        """
        if not self._telemetry.enabled:
            return
        done = self._tasks_done[worker] = (
            self._tasks_done.get(worker, 0) + tasks
        )
        elapsed = self._watch.elapsed()
        self._telemetry.event(
            "heartbeat",
            worker=worker,
            tasks_done=done,
            rate=done / elapsed if elapsed > 0.0 else 0.0,
        )
        self._telemetry.flush()


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


def round_cap(cell: Any, graph: DualGraph) -> int:
    """A cell's round cap on its built ``graph``: its ``max_rounds``,
    or its algorithm's proven-bound limit when unset."""
    if cell.max_rounds is not None:
        return cell.max_rounds
    return suggested_round_limit(cell.algorithm, graph)


def cell_engine(
    cell: Any,
    topology: CompiledTopology,
    adversary: Adversary,
    max_rounds: int,
    churn: Optional[ChurnSchedule] = None,
    engine: Optional[str] = None,
    record_receptions: bool = False,
    seed: Optional[int] = None,
) -> BroadcastEngine:
    """The engine that runs a cell's ``algorithm`` against ``adversary``.

    ``cell`` (a :class:`~repro.experiments.spec.RunTask` or a search
    cell) also names the collision rule, start mode and derived seed of
    its :class:`~repro.sim.engine.EngineConfig`, and a task its engine;
    ``engine`` overrides the task's (a search cell names none, so its
    callers pass one), and ``seed``, the cell's derived seed when the
    caller has already derived it, spares a second derivation.
    """
    processes = make_processes(
        cell.algorithm, topology.graph.n, **dict(cell.algorithm_params)
    )
    config = EngineConfig(
        collision_rule=CollisionRule[cell.collision_rule],
        start_mode=StartMode(cell.start_mode),
        max_rounds=max_rounds,
        seed=cell.derived_seed if seed is None else seed,
        record_receptions=record_receptions,
        engine=engine or cell.engine,
        churn=churn,
    )
    return build_engine(
        topology.graph, processes, adversary, config, topology=topology
    )


def _execute_on(
    task: RunTask, topology: CompiledTopology, max_rounds: int
) -> Tuple[RunResult, ExecutionTrace]:
    """Run one task on its cell's compiled topology and round cap."""
    graph = topology.graph
    key, seed = task.key_and_seed()
    adversary = build_adversary(
        task.adversary_kind,
        seed=seed,
        **dict(task.adversary_params),
    )
    # The churn schedule is built from the task's key-derived seed and
    # its *resolved* round cap, so rate-based schedules cover the whole
    # horizon and are reproducible from the spec alone.
    churn = build_churn(
        task.churn_kind,
        n=graph.n,
        rounds=max_rounds,
        seed=seed,
        **dict(task.churn_params),
    )
    engine = cell_engine(
        task, topology, adversary, max_rounds, churn, seed=seed
    )
    with current().span("engine_run"):
        trace = engine.run()
    record = RunResult(
        key=key,
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
    return _execute_on(task, topology, round_cap(task, topology.graph))


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
            max_rounds = round_cap(task, topology.graph)
        results.append(_execute_on(task, topology, max_rounds)[0])
    return results


class StoreSession:
    """How a campaign resumes and persists, for sweeps and searches.

    Wraps the store a campaign opened, or ``None`` when it has no
    results path.  :attr:`claimed` is the resume set, loaded under a
    ``resume_scan`` span; :meth:`append` persists one record under
    ``store_append``; leaving the ``with`` block closes (and so
    flushes) the store under ``store_flush``.  :attr:`health` is the
    store's damage report, clean when there is no store.
    """

    def __init__(self, store: Optional[ResultStore]) -> None:
        self._store = store
        self._telemetry = current()
        self.claimed: Dict[str, Any] = {}
        self.health = StoreHealth() if store is None else store.health
        if store is not None:
            with self._telemetry.span("resume_scan"):
                self.claimed = store.claim_keys()

    def append(self, record: Any) -> None:
        """Persist one finished record (a no-op without a store)."""
        if self._store is not None:
            with self._telemetry.span("store_append"):
                self._store.append(record)

    def __enter__(self) -> "StoreSession":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._store is not None:
            with self._telemetry.span("store_flush"):
                self._store.close()


class SweepRunner:
    """Run one or several specs as a single fanned-out sweep.

    Args:
        specs: One :class:`ExperimentSpec` or a sequence of them (their
            task keys must be disjoint; spec names namespace the keys).
        workers: Worker process count of the sweep's
            :class:`WorkerPool` (:attr:`pool`), which runs the units
            in-process when it is ``1`` or only one unit is pending.
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
        self.pool = WorkerPool(workers)
        self.results_path = results_path
        self.store = store

    def tasks(self, keys: Optional[List[str]] = None) -> List[RunTask]:
        """The combined, ordered task list of all specs.

        Each task's key is derived once, for the duplicate-key check;
        a ``keys`` list receives them, in task order, so the caller
        need not derive them again.
        """
        out: List[RunTask] = []
        seen: Dict[str, str] = {}
        for spec in self.specs:
            for task in spec.tasks():
                key = task.key
                if key in seen:
                    raise ValueError(
                        f"duplicate task key {key!r} "
                        f"(specs {seen[key]!r} and {spec.name!r})"
                    )
                seen[key] = spec.name
                out.append(task)
        if keys is not None:
            keys.extend(seen)
        return out

    def fingerprint(
        self,
        tasks: Optional[List[RunTask]] = None,
        keys: Optional[List[str]] = None,
    ) -> str:
        """A stable campaign fingerprint: hash of the sorted task keys.

        Written into manifest-carrying store backends so a campaign
        directory refuses records from a *different* spec instead of
        silently interleaving two campaigns.  Stable across worker
        counts, batch splits and resume histories by construction.
        ``tasks`` is :meth:`tasks` output, whose keys are already
        unique; ``keys``, when given, are their keys.
        """
        if keys is None:
            if tasks is None:
                tasks = self.tasks()
            keys = [t.key for t in tasks]
        digest = hashlib.sha256("\n".join(sorted(keys)).encode("utf-8"))
        return digest.hexdigest()[:16]

    def open_store(
        self,
        tasks: Optional[List[RunTask]] = None,
        keys: Optional[List[str]] = None,
    ) -> Optional[ResultStore]:
        """The result store behind ``results_path`` (``None`` if unset).

        Opens the path through :func:`repro.store.open_store` with the
        ``store`` backend (``None``: auto-detection) and this sweep's
        spec fingerprint (of ``tasks`` or their ``keys``).
        """
        if not self.results_path:
            return None
        return open_store(
            self.results_path,
            parse=RunResult.from_dict,
            backend=self.store,
            fingerprint=self.fingerprint(tasks, keys),
        )

    def run(
        self, progress: Optional[ProgressCallback] = None
    ) -> SweepResult:
        """Execute all pending tasks and return the aggregated result."""
        watch = Stopwatch()
        telemetry = current()
        # Each task's key is derived once, here, and handed to every
        # step of planning that needs it.
        keys: List[str] = []
        tasks = self.tasks(keys)
        session = StoreSession(self.open_store(keys=keys))
        claimed = session.claimed
        records: Dict[str, Any] = {}
        pending: List[RunTask] = []
        pending_keys: List[str] = []
        for key, task in zip(keys, tasks):
            if key in claimed:
                records[key] = claimed[key]
            else:
                pending.append(task)
                pending_keys.append(key)
        resumed = len(records)
        total = len(tasks)
        if telemetry.enabled:
            telemetry.event(
                "campaign_start",
                name=self.specs[0].name,
                total=total,
                resumed=resumed,
                workers=self.pool.workers,
            )
        events = _CampaignEvents(telemetry, total)
        results = self._execute(pending, pending_keys, events)
        with session:
            try:
                for result in results:
                    records[result.key] = result
                    session.append(result)
                    if progress is not None:
                        progress(result, len(records), total)
                    events.progress(len(records))
            finally:
                # Closing the generator now (not when the traceback
                # lets it go) aborts the pool, so an error here stops
                # the grid.
                results.close()

        elapsed = watch.elapsed()
        if telemetry.enabled:
            telemetry.event(
                "campaign_end",
                done=len(records),
                total=total,
                elapsed=elapsed,
            )
            telemetry.flush()
        return SweepResult(
            records=list(records.values()),
            executed=len(pending),
            resumed=resumed,
            elapsed=elapsed,
            health=session.health,
        )

    def _plan_units(
        self,
        pending: Sequence[RunTask],
        keys: Optional[Sequence[str]] = None,
    ) -> List[CellBatch]:
        """Plan the batched dispatch units for the pending tasks (whose
        keys are ``keys``, when the caller has them).

        One batch per science cell, except that with a pool in play
        oversized cells are split so the sweep always yields at least
        ~2 dispatch units per worker: a single-cell hundred-seed sweep
        must occupy every worker, not serialise into one batch.  Each
        sub-batch re-runs the cell setup once, so amortisation is
        preserved within sub-batches.
        """
        batches = plan_batches(pending, keys)
        workers = self.pool.workers
        if workers <= 1 or not pending:
            return batches
        # ceil-divide: the largest batch size that still yields at
        # least workers * 2 units when cells alone are too few.
        max_size = -(-len(pending) // (workers * 2))
        return [
            sub for batch in batches for sub in batch.split(max_size)
        ]

    def _execute(
        self,
        pending: Sequence[RunTask],
        keys: Sequence[str],
        events: _CampaignEvents,
    ) -> Iterator[RunResult]:
        """Yield one :class:`RunResult` per pending task (keys ``keys``).

        Results stream back in completion order (a sub-batch's seeds
        stay contiguous); :meth:`run` re-establishes the canonical key
        order, so scheduling never leaks into results.  Each finished
        unit sends one heartbeat through ``events``.
        """
        units = self._plan_units(pending, keys)
        with self.pool as pool:
            for _, out, worker in pool.run(
                execute_batch,
                units,
                label=lambda b: f"{b.cell_key} seeds {[t.seed for t in b.tasks]}",
            ):
                events.heartbeat(worker, len(out))
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


def _start_worker(record: bool) -> None:
    """Pool initializer: replace the sink a worker inherited.

    A forked worker inherits the parent's sink object, a spawned one
    the null default; either way it now records in memory when the
    parent's sink is enabled (``record``), and discards otherwise.
    """
    set_telemetry(RecordingTelemetry() if record else None)


def _recorded(
    fn: Callable[[Any], Any], unit: Any
) -> Tuple[Any, int, Telemetry]:
    """Run one unit in a worker; return its result, the worker's pid
    and the telemetry recorded since the worker's last unit returned
    (its start-up included, for the first)."""
    result = fn(unit)
    recording = set_telemetry(RecordingTelemetry())
    return result, os.getpid(), recording


class WorkerLostError(RuntimeError):
    """Worker processes died twice in one :meth:`WorkerPool.run`."""


class WorkerPool:
    """The one dispatch path of sweeps and searches.

    :meth:`run` yields ``(index, result, worker)`` for each unit.  With
    one worker, or at most one unit, it runs the units in the calling
    process, in order, and ``worker`` is that process's pid; no
    executor starts.  Otherwise it submits each unit as its own future
    and yields in completion order.  The executor starts on first use
    and serves every :meth:`run` until :meth:`close`.  If a worker dies
    (``SIGKILL``, the OOM killer), one fresh executor reruns every unit
    that has not returned; a second loss raises
    :class:`WorkerLostError`.  A consumer that stops early aborts the
    pool: queued units are cancelled and the workers terminated.

    Workers never write telemetry.  When the sink installed as the
    executor starts is enabled, each worker records in memory and every
    returned unit carries what it recorded, which :meth:`run` folds
    into that sink (:func:`~repro.obs.telemetry.replay`) and ``worker``
    names the worker's pid; otherwise ``worker`` is ``None``.  Only
    returned units are folded, so a unit rerun after a worker loss is
    counted once.
    """

    _sink: Telemetry

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor = None

    def run(
        self,
        fn: Callable[[Any], Any],
        units: Iterable[Any],
        label: Callable[[Any], str],
    ) -> Iterator[Tuple[int, Any, Optional[int]]]:
        """Yield ``(index, fn(unit), worker)`` per unit; ``label`` names
        lost ones."""
        pending = dict(enumerate(units))
        if self.workers == 1 or len(pending) <= 1:
            for index, unit in pending.items():
                yield index, fn(unit), os.getpid()
            return
        # Imported here, so CLI starts and in-process runs, which never
        # start an executor, do not pay for these imports (they pull in
        # logging and multiprocessing's queues).
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        try:
            for _ in range(2):
                if self._executor is None:
                    self._sink = current()
                    self._executor = ProcessPoolExecutor(
                        self.workers,
                        mp_context=pool_context(),
                        initializer=_start_worker,
                        initargs=(self._sink.enabled,),
                    )
                record = self._sink.enabled
                call = (_recorded, fn) if record else (fn,)
                futures = {}
                try:
                    for index, unit in pending.items():
                        futures[self._executor.submit(*call, unit)] = index
                except BrokenProcessPool:
                    pass  # a worker died mid-submission: rerun the rest
                for future in as_completed(futures):
                    if isinstance(future.exception(), BrokenProcessPool):
                        continue
                    index, result = futures[future], future.result()
                    worker = None
                    if record:
                        result, worker, recording = result
                        replay(recording, self._sink)
                    yield index, result, worker
                    del pending[index]
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
