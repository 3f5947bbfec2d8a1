"""Per-layer spans, recorded from outside the program.

The traced run wraps the public functions and methods each ``src/repro``
package exposes to the sweep pipeline, times every call, and folds the
spans into self times (a span's duration minus the spans nested in it).
Nothing in the program changes: the wrappers are installed for the traced
pass and removed after it.

A method is wrapped on the class whose ``__dict__`` holds it, never on a
class that merely inherits it.  The engines pick fast paths by method
identity (``type(p).on_reception is Process.on_reception``,
``type(a).resolve_cr4 is Adversary.resolve_cr4``); replacing the
function where it lives keeps every such identity test answering as it
did, so the traced run executes the same paths as the untraced one.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

_END = object()


class Tracer:
    """Span aggregates by name: calls, total, self time, ``None`` results."""

    def __init__(self) -> None:
        # Child-time accumulators of the open spans; [0] is the root.
        self._inner: List[float] = [0.0]
        self.stats: Dict[str, List[float]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def _slot(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def calls(self, name: str) -> int:
        """Calls made to the spans named ``name``."""
        return int(self._slot(name)[0])

    def self_s(self, name: str) -> float:
        """Self seconds of the spans named ``name``."""
        return self._slot(name)[2]

    def nones(self, name: str) -> int:
        """Calls of ``name`` that returned ``None``."""
        return int(self._slot(name)[3])

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        slot = self._slot(name)
        inner = self._inner
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = inner.pop()
                inner[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
            if result is None:
                slot[3] += 1
            return result

        return traced

    def timed_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every step runs in a span.

        Creating the generator is not timed; consuming it is, one
        ``next`` at a time, so the consumer's own work between items
        stays outside the span.
        """
        slot = self._slot(name)
        inner = self._inner
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            items = iter(fn(*args, **kwargs))
            while True:
                inner.append(0.0)
                start = clock()
                try:
                    item = next(items, _END)
                finally:
                    elapsed = clock() - start
                    child = inner.pop()
                    inner[-1] += elapsed
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += elapsed - child
                if item is _END:
                    return
                yield item

        return traced

    def patch(
        self, owner: Any, attr: str, name: str, iterator: bool = False
    ) -> None:
        """Replace ``owner.attr`` (a function it defines) with a span."""
        raw = vars(owner)[attr]
        wrap = self.timed_iter if iterator else self.timed
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(wrap(name, raw.__func__))
        else:
            wrapped = wrap(name, raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_defining(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` where it is defined, for ``base`` and subclasses.

        Each class's method is looked up along its MRO and wrapped on
        the first class that defines it; abstract declarations are left
        alone.
        """
        owners: Dict[type, None] = {}
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for klass in cls.__mro__:
                if attr in vars(klass):
                    owners[klass] = None
                    break
        for klass in owners:
            if getattr(vars(klass)[attr], "__isabstractmethod__", False):
                continue
            self.patch(klass, attr, name)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer) -> None:
    """Wrap the calls the sweep pipeline makes into each layer.

    The runner binds ``build_graph``, ``compile_topology``,
    ``build_engine``, ``make_processes``, ``plan_batches`` and
    ``execute_batch`` as module globals, so those names are wrapped in
    the runner's namespace, where its calls look them up.
    """
    from repro.adversaries.base import Adversary
    from repro.analysis.report import CampaignReport
    from repro.experiments import runner
    from repro.sim.engine import BroadcastEngine
    from repro.sim.process import Process
    from repro.store.sharded import ShardedStore

    for attr, name in (
        ("build_graph", "graphs.build"),
        ("compile_topology", "sim.compile"),
        ("build_engine", "sim.engine_setup"),
        ("make_processes", "core.make_processes"),
        ("plan_batches", "experiments.plan"),
        ("execute_batch", "experiments.unit"),
    ):
        tracer.patch(runner, attr, name)
    tracer.patch(runner.SweepRunner, "run", "experiments.run")
    tracer.patch(runner.SweepRunner, "tasks", "experiments.plan")
    tracer.patch(runner.SweepRunner, "fingerprint", "experiments.plan")
    tracer.patch(BroadcastEngine, "run", "sim.engine")
    tracer.patch_defining(Process, "decide_send", "core.decide")
    tracer.patch_defining(Process, "deliver", "core.receive")
    tracer.patch_defining(Adversary, "choose_deliveries", "adversaries.choose")
    tracer.patch_defining(Adversary, "resolve_cr4", "adversaries.resolve_cr4")
    tracer.patch(ShardedStore, "append", "store.append")
    tracer.patch(ShardedStore, "flush", "store.flush")
    tracer.patch(ShardedStore, "close", "store.close")
    tracer.patch(ShardedStore, "claim_keys", "store.scan")
    tracer.patch(ShardedStore, "iter_records", "store.iter", iterator=True)
    for attr in ("from_store", "render", "to_dict"):
        tracer.patch(CampaignReport, attr, "analysis.report")


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    tasks: int,
    store_bytes: int,
    records: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name.

    ``counters`` are the engine counters of the pass's
    ``RecordingTelemetry``; ``tasks``, ``store_bytes`` and ``records``
    are what the pass executed, left on disk and folded into reports.
    """
    t = tracer
    consults = t.calls("adversaries.resolve_cr4")
    return {
        "graphs.build_s": t.self_s("graphs.build"),
        "graphs.build_calls": t.calls("graphs.build"),
        "sim.compile_s": t.self_s("sim.compile"),
        "sim.compile_calls": t.calls("sim.compile"),
        "sim.engine_setup_s": t.self_s("sim.engine_setup"),
        "sim.engine_self_s": t.self_s("sim.engine"),
        "sim.rounds": counters.get("engine.rounds", 0),
        "sim.senders": counters.get("engine.senders", 0),
        "sim.delivered": counters.get("engine.delivered", 0),
        "sim.collisions": counters.get("engine.collisions", 0),
        "sim.cr4_consults": counters.get("engine.cr4_consults", 0),
        "sim.cr4_fallbacks": counters.get("engine.cr4_fallbacks", 0),
        "core.decide_s": t.self_s("core.decide"),
        "core.decide_calls": t.calls("core.decide"),
        "core.receive_s": t.self_s("core.receive"),
        "core.make_processes_s": t.self_s("core.make_processes"),
        "adversaries.choose_s": t.self_s("adversaries.choose"),
        "adversaries.choose_calls": t.calls("adversaries.choose"),
        "adversaries.resolve_cr4_s": t.self_s("adversaries.resolve_cr4"),
        "adversaries.resolve_cr4_calls": consults,
        "adversaries.cr4_silence_ratio": (
            t.nones("adversaries.resolve_cr4") / consults if consults else 0.0
        ),
        "experiments.self_s": (
            t.self_s("experiments.run") + t.self_s("experiments.unit")
        ),
        "experiments.plan_s": t.self_s("experiments.plan"),
        "experiments.tasks": tasks,
        "experiments.units": t.calls("experiments.unit"),
        "store.append_s": t.self_s("store.append"),
        "store.appends": t.calls("store.append"),
        "store.flush_s": t.self_s("store.flush") + t.self_s("store.close"),
        "store.flushes": t.calls("store.flush"),
        "store.scan_s": t.self_s("store.scan"),
        "store.iter_s": t.self_s("store.iter"),
        "store.bytes": store_bytes,
        "analysis.report_s": t.self_s("analysis.report"),
        "analysis.records": records,
        "trace.overhead_ratio": overhead_ratio,
    }
