"""High-level convenience API: run a named algorithm on a network.

This is the entry point most downstream users want::

    from repro import broadcast
    from repro.graphs import gnp_dual
    from repro.adversaries import GreedyInterferer

    trace = broadcast(gnp_dual(64, seed=1), "harmonic",
                      adversary=GreedyInterferer(), seed=7)
    print(trace.completion_round)

Algorithms are registered by name; ``make_processes`` exposes the factory
directly for callers that need to customise processes before running.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.adversaries.base import Adversary
from repro.core.decay import make_decay_processes
from repro.core.harmonic import (
    completion_bound,
    default_T,
    make_harmonic_processes,
)
from repro.core.round_robin import (
    make_round_robin_processes,
    round_robin_bound,
)
from repro.core.ssf import kautz_singleton_ssf
from repro.core.strong_select import (
    build_schedule,
    make_strong_select_processes,
)
from repro.core.uniform import make_uniform_processes
from repro.graphs.dualgraph import DualGraph
from repro.sim.engine import EngineConfig, build_engine
from repro.sim.process import Process
from repro.sim.trace import ExecutionTrace

_T = TypeVar("_T")


class Registry(Generic[_T]):
    """Named, parameterised factories of one kind of component.

    Every axis of a sweep (algorithms, graphs, adversaries, churns) and
    every searcher is resolved by name through one instance.  ``what``
    is the noun the error texts name (``"algorithm"``, ``"graph
    kind"``, ...), so the unknown-kind, already-registered and
    bad-parameters messages are formatted here and nowhere else.
    ``entries`` maps each built-in kind to ``(factory, description)``.
    """

    def __init__(
        self,
        what: str,
        entries: Mapping[str, Tuple[Callable[..., _T], str]],
    ) -> None:
        self.what = what
        self._factories: Dict[str, Callable[..., _T]] = {}
        self._descriptions: Dict[str, str] = {}
        for kind, (factory, description) in entries.items():
            self.register(kind, factory, description)

    def names(self) -> List[str]:
        """The registered kinds, sorted."""
        return sorted(self._factories)

    def descriptions(self) -> Dict[str, str]:
        """One-line description per registered kind (may be empty)."""
        return {kind: self._descriptions[kind] for kind in self.names()}

    def register(
        self, kind: str, factory: Callable[..., _T], description: str = ""
    ) -> None:
        """Register ``factory`` under ``kind``.

        ``description`` is the one-liner ``repro list`` prints.  A taken
        name is rejected and keeps its original factory.
        """
        if kind in self._factories:
            raise ValueError(f"{self.what} {kind!r} already registered")
        self._factories[kind] = factory
        self._descriptions[kind] = description

    def build(self, kind: str, *args: Any, **params: Any) -> _T:
        """Call the factory of ``kind`` with ``args`` and ``params``.

        Parameters that do not fit the factory become a ``ValueError``
        naming the kind (a user-input problem the CLI reports cleanly)
        instead of a ``TypeError`` traceback.  A misfit surfaces either
        at the call itself or one frame down, when a registered wrapper
        forwards ``**params`` to the function it wraps (``lambda n,
        seed, **kw: gnp_dual(n, seed=seed, **kw)``), so only a
        ``TypeError`` raised within those two frames is converted.  One
        raised deeper is a bug in the factory and propagates unchanged.
        """
        try:
            factory = self._factories[kind]
        except KeyError:
            raise ValueError(
                f"unknown {self.what} {kind!r}; known: {self.names()}"
            ) from None
        try:
            return factory(*args, **params)
        except TypeError as exc:
            tb = exc.__traceback__
            inner = tb.tb_next if tb is not None else None
            if inner is not None and inner.tb_next is not None:
                raise
            raise ValueError(
                f"bad parameters for {self.what} {kind!r}: {exc}"
            ) from exc


#: The algorithms, by name: factories ``factory(n, **params)``
#: returning the n processes; :func:`make_processes` builds them.
ALGORITHMS: Registry[List[Process]] = Registry(
    "algorithm",
    {
        "strong_select": (
            make_strong_select_processes,
            "deterministic Strong Select (Section 5)",
        ),
        "strong_select_ks": (
            lambda n, **kw: make_strong_select_processes(
                n, ssf_builder=kautz_singleton_ssf, **kw
            ),
            "Strong Select on Kautz singleton SSFs",
        ),
        "harmonic": (
            make_harmonic_processes,
            "randomized Harmonic Broadcast (Section 6)",
        ),
        "round_robin": (
            make_round_robin_processes,
            "uids transmit in fixed rotation",
        ),
        "decay": (make_decay_processes, "classical Decay baseline"),
        "uniform": (
            make_uniform_processes,
            "transmit each round with probability 1/n",
        ),
    },
)

#: The registered algorithm names.
algorithm_names = ALGORITHMS.names
#: Register a custom algorithm ``factory(n, **params)`` under a name.
register_algorithm = ALGORITHMS.register


def make_processes(
    algorithm: str, n: int, **params: Any
) -> List[Process]:
    """Instantiate the processes of a registered algorithm."""
    return ALGORITHMS.build(algorithm, n, **params)


def suggested_round_limit(algorithm: str, network: DualGraph) -> int:
    """A safe ``max_rounds`` derived from each algorithm's proven bound.

    Strong Select gets its Theorem-10 bound ``X = n/ρ``; Harmonic gets
    twice the Theorem-18 bound (the theorem is w.h.p., not worst-case);
    round robin gets ``n·ecc``; Decay, which has no dual-graph guarantee,
    gets a generous ``4·n·log²n + n·ecc``-ish allowance.
    """
    n = network.n
    ecc = network.source_eccentricity
    if algorithm.startswith("strong_select"):
        return build_schedule(n).round_bound() + 1
    if algorithm == "harmonic":
        return 2 * completion_bound(n, default_T(n)) + 1
    if algorithm == "round_robin":
        return round_robin_bound(n, ecc) + 1
    log2n = max(1.0, math.log2(n))
    if algorithm == "uniform":
        # Expected Θ(n) rounds per frontier layer at probability 1/n,
        # with a log factor of headroom for the tail.
        return int(12 * n * (ecc + log2n) * log2n) + 1
    return int(4 * n * log2n * log2n + n * ecc) + 1


def broadcast(
    network: DualGraph,
    algorithm: str = "strong_select",
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    algorithm_params: Optional[dict] = None,
    **config_kwargs: Any,
) -> ExecutionTrace:
    """Run a named broadcast algorithm on a network and return its trace.

    Args:
        network: The dual graph to broadcast on.
        algorithm: A registered algorithm name (see
            :func:`algorithm_names`).
        adversary: The adversary controlling unreliable links (default:
            never delivers on them).
        seed: Master seed for the processes' randomness.
        max_rounds: Execution cap (default: derived from the algorithm's
            proven bound via :func:`suggested_round_limit`).
        algorithm_params: Extra keyword arguments for the process factory
            (e.g. ``{"T": 8}`` for Harmonic).
        **config_kwargs: Forwarded to
            :class:`~repro.sim.engine.EngineConfig` (e.g.
            ``collision_rule=CollisionRule.CR1``,
            ``start_mode=StartMode.SYNCHRONOUS``, ``engine="fast"``).
    """
    processes = make_processes(
        algorithm, network.n, **(algorithm_params or {})
    )
    if max_rounds is None:
        max_rounds = suggested_round_limit(algorithm, network)
    config = EngineConfig(
        seed=seed, max_rounds=max_rounds, **config_kwargs
    )
    engine = build_engine(network, processes, adversary, config)
    return engine.run()
