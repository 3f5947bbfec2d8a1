"""Declarative experiment grids.

An :class:`ExperimentSpec` names every axis of a sweep — algorithms,
graph families with sizes, adversaries, collision rules, start modes,
engines and seeds — and expands to the cross product as a deterministic,
ordered list of :class:`RunTask`\\ s.  Tasks are frozen tuples of
primitives, so they pickle cheaply across ``multiprocessing`` workers.

Invariants the rest of the subsystem builds on:

* **Stable keys** — :attr:`RunTask.key` names every input that can
  change the outcome; it is the resume-by-key handle (the same spec
  always yields the same keys in the same order), so a results file
  written by one run is a valid resume point for any later run of the
  same spec.
* **Key-derived seeds** — each task's engine seed is
  ``crc32(science_key)``: derived, not assigned, so no two grid cells
  share an RNG stream even when they share a sweep seed, and the
  derivation is independent of worker count, completion order and
  resume history (``zlib.crc32`` is stable across processes and Python
  versions, unlike ``hash``).
* **Engine neutrality** — the ``engine`` axis selects an
  *implementation* (reference or bitmask fast path), not an experiment
  input.  It is part of :attr:`RunTask.key` (records of different
  engines never collide in a results file) but excluded from
  :attr:`RunTask.science_key`, which seeds the run — so the same grid
  cell produces the identical trace under either engine, a property
  ``tests/test_fast_engine_equivalence.py`` asserts.

* **Cell grouping** — :attr:`RunTask.cell_key` names every axis
  *except* the seed.  :func:`plan_batches` groups an ordered task list
  into one :class:`CellBatch` per cell so the runner's batched path can
  build each cell's graph and compiled engine topology once and run
  all of its seeds against them; batching is pure scheduling and never
  changes keys, seeds or records.

Specs serialise to/from JSON (``to_dict`` / ``from_dict`` /
:func:`load_specs`) so sweeps are reproducible from a committed file and
shell history alone; the format is documented field by field in
``docs/SWEEP_SPECS.md``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.collision import CollisionRule
from repro.sim.engine import ENGINE_NAMES, StartMode

Params = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Optional[Union[dict, Params]]) -> Params:
    if not params:
        return ()
    if isinstance(params, tuple):
        return params
    return tuple(sorted(params.items()))


def _fmt_params(params: Params) -> str:
    if not params:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in params)
    return f"({inner})"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm axis entry: a registered name plus factory params."""

    name: str
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``harmonic(T=4)``."""
        return f"{self.name}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class GraphSpec:
    """One graph axis entry: a registered kind, a size and params."""

    kind: str
    n: int
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``line:n16``."""
        return f"{self.kind}:n{self.n}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary axis entry: a registered kind plus params."""

    kind: str = "none"
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``random(p=0.5)``."""
        return f"{self.kind}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class ChurnSpec:
    """One fault-injection axis entry: a registered kind plus params.

    ``kind="none"`` (the default) is the failure-free run; other kinds
    are resolved by :mod:`repro.experiments.registry` into a
    :class:`~repro.sim.faults.ChurnSchedule` built from the task's
    derived seed, so the schedule is reproducible from the spec alone.
    """

    kind: str = "none"
    params: Params = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def label(self) -> str:
        """Human-readable axis label, e.g. ``rate(crash_rate=0.02)``."""
        return f"{self.kind}{_fmt_params(self.params)}"


@dataclass(frozen=True)
class RunTask:
    """One fully-specified execution: a single cell of the sweep grid.

    Everything is a primitive (or tuple of primitives), so tasks pickle
    across process boundaries without dragging live objects along.
    """

    sweep: str
    algorithm: str
    algorithm_params: Params
    graph_kind: str
    n: int
    graph_params: Params
    adversary_kind: str
    adversary_params: Params
    collision_rule: str
    start_mode: str
    seed: int
    max_rounds: Optional[int] = None
    engine: str = "reference"
    churn_kind: str = "none"
    churn_params: Params = ()

    def _key_parts(self) -> List[str]:
        """The key segments behind :attr:`science_key`.

        :attr:`key` appends the engine and :attr:`cell_key` strips the
        seed, so a new grid axis lands in every key flavour by
        construction.  Only the ``cap`` and ``eng-`` segments may follow
        the seed; :func:`cell_key_of` relies on that to drop the seed.
        """
        parts = [
            self.sweep,
            f"{self.algorithm}{_fmt_params(self.algorithm_params)}",
            f"{self.graph_kind}:n{self.n}"
            f"{_fmt_params(self.graph_params)}",
            f"{self.adversary_kind}"
            f"{_fmt_params(self.adversary_params)}",
            f"{self.collision_rule}-{self.start_mode}",
        ]
        # The churn segment appears only for fault-injected tasks, so
        # every key of every pre-churn sweep is unchanged and old
        # results files remain valid resume points.
        if self.churn_kind != "none":
            parts.append(
                f"churn-{self.churn_kind}"
                f"{_fmt_params(self.churn_params)}"
            )
        parts.append(f"s{self.seed}")
        if self.max_rounds is not None:
            parts.append(f"cap{self.max_rounds}")
        return parts

    @property
    def science_key(self) -> str:
        """The key of the *experiment inputs* only — engine excluded.

        Two tasks differing only in ``engine`` share a science key and
        therefore a derived seed: the engine is an implementation
        choice, proven trace-equivalent, and must not change results.
        """
        return "/".join(self._key_parts())

    @property
    def key(self) -> str:
        """Stable identifier used for persistence and resume.

        Every input that can change the outcome is part of the key —
        including an explicit round cap, so editing ``max_rounds`` in a
        spec invalidates old records instead of silently resuming them.
        The engine is appended only when it is not the reference engine,
        keeping keys (and results files) from older sweeps valid.
        """
        return self.key_and_seed()[0]

    def key_and_seed(self) -> Tuple[str, int]:
        """:attr:`key` and :attr:`derived_seed` from one derivation of
        :attr:`science_key`, for callers that need both."""
        science_key = self.science_key
        key = science_key
        if self.engine != "reference":
            key = f"{science_key}/eng-{self.engine}"
        return key, zlib.crc32(science_key.encode("utf-8"))

    @property
    def cell_key(self) -> str:
        """The task's *science cell*: every key input except the seed.

        Tasks sharing a cell key differ only in their sweep seed, so a
        worker can build the cell's graph, round cap and compiled
        engine topology once and run all of the cell's seeds against
        them (:func:`plan_batches` /
        :func:`repro.experiments.runner.execute_batch`).  This is a
        grouping handle only — persistence and resume stay keyed by
        the per-seed :attr:`key`.  It is :func:`cell_key_of` of
        :attr:`key`, the one definition reports use for stored keys too.
        """
        return cell_key_of(self.key)

    @property
    def derived_seed(self) -> int:
        """Engine seed derived from the task's science key.

        ``zlib.crc32`` is stable across processes and Python versions
        (unlike ``hash``), so the derivation is reproducible no matter
        how the grid is partitioned over workers.  Deriving from
        :attr:`science_key` rather than :attr:`key` makes the seed —
        and hence the run — independent of the engine choice.
        """
        return self.key_and_seed()[1]


#: A key's seed segment: ``/s<seed>``, followed by nothing but the
#: optional ``/cap<M>`` and ``/eng-<name>`` segments.
_SEED_SEGMENT = re.compile(r"/s-?\d+(?=(?:/cap\d+)?(?:/eng-[^/]*)?$)")


def cell_key_of(key: str) -> str:
    """The science cell of a task key: the key without its seed segment.

    This is the only definition of a cell: :attr:`RunTask.cell_key`
    calls it, so records fold into exactly the cells the runner
    batched.  A key with no seed segment is its own cell.
    """
    return _SEED_SEGMENT.sub("", key, count=1)


def algorithm_label_of(key: str, sweep: str) -> str:
    """The algorithm segment of a key or cell key of sweep ``sweep``:
    the :attr:`AlgorithmSpec.label`, e.g. ``harmonic(T=4)``."""
    return key[len(sweep) + 1:].split("/", 1)[0]


def curve_key_of(cell_key: str, graph_kind: str, n: int) -> str:
    """The growth curve of a cell: its key without the ``:n<N>`` size.

    Cells sharing a curve key differ only in the network size, so
    their completion rounds trace one growth curve.
    """
    return cell_key.replace(f"/{graph_kind}:n{n}", f"/{graph_kind}", 1)


@dataclass(frozen=True)
class CellBatch:
    """All pending tasks of one science cell, dispatched as one unit.

    The tasks share every grid axis except the seed (checked at
    construction unless the cell is given), in their original spec
    order.  A batch is a frozen tuple of primitives like the tasks
    themselves, so it pickles cheaply to ``multiprocessing`` workers,
    where :func:`repro.experiments.runner.execute_batch` builds the
    cell's shared setup once and runs the seed loop against it.
    """

    tasks: Tuple[RunTask, ...]
    #: The science cell every task shares.  Left empty, it is derived
    #: from the tasks, which must then all share it; :func:`plan_batches`
    #: and :meth:`split` pass the cell they grouped the tasks by.
    cell_key: str = ""

    def __post_init__(self) -> None:
        """Freeze the task tuple; derive the cell key if not given,
        rejecting mixed-cell batches."""
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValueError("a batch needs at least one task")
        if self.cell_key:
            return
        cells = {t.cell_key for t in self.tasks}
        if len(cells) != 1:
            raise ValueError(
                f"batch mixes science cells: {sorted(cells)}"
            )
        object.__setattr__(self, "cell_key", cells.pop())

    def split(self, max_size: int) -> List["CellBatch"]:
        """Chop the batch into sub-batches of at most ``max_size`` tasks.

        A sweep with fewer cells than workers would otherwise collapse
        onto too few dispatch units and serialise; sub-batches trade a
        few repeated per-cell setups for full worker occupancy (each
        sub-batch still amortises setup over its own seeds).  Task
        order is preserved across the returned batches.
        """
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        return [
            CellBatch(self.tasks[i:i + max_size], self.cell_key)
            for i in range(0, len(self.tasks), max_size)
        ]

    def __len__(self) -> int:
        return len(self.tasks)


def plan_batches(
    tasks: Sequence[RunTask], keys: Optional[Sequence[str]] = None
) -> List[CellBatch]:
    """Group an ordered task list into one :class:`CellBatch` per cell.

    Batches appear in the order their cells first appear in ``tasks``,
    and each batch keeps its tasks in input order — so for a freshly
    expanded spec every batch is the cell's seed axis in seed order,
    while a resumed sweep yields batches holding only the missing
    seeds.  ``keys``, when given, are the tasks' keys in the same order
    (a caller that derived them passes them on instead of paying for a
    second derivation).  Keys are not re-checked for uniqueness here:
    that is decided where tasks come in (the spec's per-axis duplicate
    check and :meth:`repro.experiments.runner.SweepRunner.tasks`).
    """
    if keys is None:
        keys = [t.key for t in tasks]
    groups: Dict[str, List[RunTask]] = {}
    for key, task in zip(keys, tasks):
        groups.setdefault(cell_key_of(key), []).append(task)
    return [CellBatch(tuple(group), cell) for cell, group in groups.items()]


def _coerce_entry(entry, cls, field: str, noun: str):
    """One named axis entry (algorithm, adversary or churn) as ``cls``.

    Accepts an instance, a bare name, a ``(name, params)`` pair or a
    spec-file dict keyed by ``field`` (``"name"`` or ``"kind"``) with
    optional ``"params"``.
    """
    if isinstance(entry, cls):
        return entry
    if isinstance(entry, str):
        return cls(entry)
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return cls(entry[0], _freeze_params(entry[1]))
    if isinstance(entry, dict):
        return cls(entry[field], _freeze_params(entry.get("params")))
    raise TypeError(f"cannot interpret {noun} entry {entry!r}")


def _coerce_graph(entry) -> List[GraphSpec]:
    if isinstance(entry, GraphSpec):
        return [entry]
    if isinstance(entry, (tuple, list)) and len(entry) in (2, 3):
        kind, n = entry[0], entry[1]
        params = _freeze_params(entry[2] if len(entry) == 3 else None)
        return [GraphSpec(kind, int(n), params)]
    if isinstance(entry, dict):
        params = _freeze_params(entry.get("params"))
        sizes = entry.get("sizes", [entry["n"]] if "n" in entry else None)
        if sizes is None:
            raise ValueError(
                f"graph entry {entry!r} needs 'n' or 'sizes'"
            )
        return [GraphSpec(entry["kind"], int(n), params) for n in sizes]
    raise TypeError(f"cannot interpret graph entry {entry!r}")


def _coerce_rule(entry) -> str:
    if isinstance(entry, CollisionRule):
        return entry.name
    name = str(entry).upper()
    if name not in CollisionRule.__members__:
        raise ValueError(
            f"unknown collision rule {entry!r}; "
            f"known: {list(CollisionRule.__members__)}"
        )
    return name


def _coerce_mode(entry) -> str:
    if isinstance(entry, StartMode):
        return entry.value
    value = str(entry).lower()
    StartMode(value)  # raises ValueError on unknown modes
    return value


def _coerce_engine(entry) -> str:
    value = str(entry).lower()
    if value not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {entry!r}; known: {list(ENGINE_NAMES)}"
        )
    return value


def _coerce_seeds(entry) -> Tuple[int, ...]:
    if isinstance(entry, dict):
        start = int(entry.get("start", 0))
        count = int(entry["count"])
        return tuple(range(start, start + count))
    if isinstance(entry, int):
        return (entry,)
    return tuple(int(s) for s in entry)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep grid.

    The task list is the cross product
    ``algorithms × graphs × adversaries × collision_rules × start_modes
    × engines × churns × seeds`` in that (deterministic) nesting order.

    Axis entries accept light-weight shorthands::

        ExperimentSpec(
            name="demo",
            algorithms=["round_robin", ("harmonic", {"T": 4})],
            graphs=[("clique-bridge", n) for n in (9, 17, 33)],
            adversaries=["greedy"],
            seeds=range(5),
        )

    ``max_rounds=None`` lets each task fall back to the algorithm's
    proven-bound limit (:func:`repro.core.runner.suggested_round_limit`).

    ``engines`` selects the execution engine implementation per task:
    ``"reference"`` or ``"fast"`` (the bitmask engine) — results are
    identical either way.
    """

    name: str
    algorithms: Tuple[AlgorithmSpec, ...]
    graphs: Tuple[GraphSpec, ...]
    adversaries: Tuple[AdversarySpec, ...] = (AdversarySpec("none"),)
    collision_rules: Tuple[str, ...] = ("CR4",)
    start_modes: Tuple[str, ...] = ("asynchronous",)
    engines: Tuple[str, ...] = ("reference",)
    churns: Tuple[ChurnSpec, ...] = (ChurnSpec("none"),)
    seeds: Tuple[int, ...] = (0,)
    max_rounds: Optional[int] = None

    #: The grid axes, outermost first: the nesting order of :meth:`tasks`.
    _AXES = (
        "algorithms", "graphs", "adversaries", "collision_rules",
        "start_modes", "engines", "churns", "seeds",
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "algorithms",
            tuple(
                _coerce_entry(a, AlgorithmSpec, "name", "algorithm")
                for a in self.algorithms
            ),
        )
        graphs: List[GraphSpec] = []
        for entry in self.graphs:
            graphs.extend(_coerce_graph(entry))
        object.__setattr__(self, "graphs", tuple(graphs))
        object.__setattr__(
            self,
            "adversaries",
            tuple(
                _coerce_entry(a, AdversarySpec, "kind", "adversary")
                for a in self.adversaries
            ),
        )
        object.__setattr__(
            self,
            "collision_rules",
            tuple(_coerce_rule(r) for r in self.collision_rules),
        )
        object.__setattr__(
            self,
            "start_modes",
            tuple(_coerce_mode(m) for m in self.start_modes),
        )
        object.__setattr__(
            self,
            "engines",
            tuple(_coerce_engine(e) for e in self.engines),
        )
        object.__setattr__(
            self,
            "churns",
            tuple(
                _coerce_entry(c, ChurnSpec, "kind", "churn")
                for c in self.churns
            ),
        )
        object.__setattr__(self, "seeds", _coerce_seeds(self.seeds))
        if not all(getattr(self, axis) for axis in self._AXES):
            raise ValueError(
                "spec needs at least one entry on every axis "
                f"({', '.join(self._AXES)})"
            )
        # Repeated axis entries expand to tasks with identical keys, so
        # they would overwrite each other's records and make a resumed
        # sweep report completion after running only the unique cells.
        # Reject them at construction with the offending entries named.
        for axis in self._AXES:
            self._reject_duplicates(axis, getattr(self, axis))

    def _reject_duplicates(self, axis, entries) -> None:
        """Raise if an axis repeats an entry (keys would collide)."""
        seen: set = set()
        dupes: List[str] = []
        for entry in entries:
            if entry in seen:
                dupes.append(str(getattr(entry, "label", entry)))
            seen.add(entry)
        if dupes:
            raise ValueError(
                f"spec {self.name!r}: duplicate {axis} "
                f"entries {dupes} — repeated entries collapse onto "
                "one resume key and silently shrink the sweep"
            )

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of tasks the grid expands to."""
        return math.prod(len(getattr(self, axis)) for axis in self._AXES)

    def tasks(self) -> List[RunTask]:
        """Expand the grid to its ordered task list."""
        grid = itertools.product(*(getattr(self, a) for a in self._AXES))
        return [
            RunTask(
                sweep=self.name,
                algorithm=alg.name,
                algorithm_params=alg.params,
                graph_kind=graph.kind,
                n=graph.n,
                graph_params=graph.params,
                adversary_kind=adv.kind,
                adversary_params=adv.params,
                collision_rule=rule,
                start_mode=mode,
                seed=seed,
                max_rounds=self.max_rounds,
                engine=engine,
                churn_kind=churn.kind,
                churn_params=churn.params,
            )
            for alg, graph, adv, rule, mode, engine, churn, seed in grid
        ]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-serialisable document (see ``from_dict``)."""
        return {
            "name": self.name,
            "algorithms": [
                {"name": a.name, "params": dict(a.params)}
                for a in self.algorithms
            ],
            "graphs": [
                {"kind": g.kind, "n": g.n, "params": dict(g.params)}
                for g in self.graphs
            ],
            "adversaries": [
                {"kind": a.kind, "params": dict(a.params)}
                for a in self.adversaries
            ],
            "collision_rules": list(self.collision_rules),
            "start_modes": list(self.start_modes),
            "engines": list(self.engines),
            "churns": [
                {"kind": c.kind, "params": dict(c.params)}
                for c in self.churns
            ],
            "seeds": list(self.seeds),
            "max_rounds": self.max_rounds,
        }

    _FIELDS = ("name",) + _AXES + ("max_rounds",)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a JSON document, rejecting unknown fields."""
        unknown = sorted(set(doc) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {unknown}; known: "
                f"{list(cls._FIELDS)}"
            )
        return cls(
            name=doc["name"],
            algorithms=doc["algorithms"],
            graphs=doc["graphs"],
            adversaries=doc.get("adversaries", ["none"]),
            collision_rules=doc.get("collision_rules", ["CR4"]),
            start_modes=doc.get("start_modes", ["asynchronous"]),
            engines=doc.get("engines", ["reference"]),
            churns=doc.get("churns", ["none"]),
            seeds=doc.get("seeds", [0]),
            max_rounds=doc.get("max_rounds"),
        )


def load_specs(path: str) -> List[ExperimentSpec]:
    """Load one spec or a list of specs from a JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = [doc]
    return [ExperimentSpec.from_dict(d) for d in doc]
