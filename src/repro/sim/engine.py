"""The synchronous-round execution engine (Section 2.1 semantics).

An execution of an algorithm on a network ``(G, G')`` proceeds in
synchronous rounds ``1, 2, …``.  Each round:

1. Every *active* process decides whether to transmit.
2. A transmission from node ``v`` reaches all of ``v``'s ``G``
   out-neighbours, an adversary-chosen subset of its ``G'``-only
   out-neighbours, and ``v`` itself.
3. Arrivals at each node are resolved into a single observation by the
   collision rule in force (CR1–CR4; CR4 consults the adversary).
4. Observations are delivered and processes update state.

:meth:`BroadcastEngine._step` runs this round for every engine.  A
subclass supplies only the phases that differ: ``_decide_senders``
(phase 1) and ``_resolve`` (phases 3 and 4, which also tallies the
round's telemetry counters for :meth:`BroadcastEngine.run` to fold).

Start rules: under *synchronous start* every process is active from round
1; under *asynchronous start* a process activates on its first actual
message reception (receiving ``⊥``/``⊤`` does not wake a sleeping
process, matching "activates each process the first time it receives a
message").

The broadcast payload (:data:`~repro.sim.messages.PAYLOAD`) is delivered
to the source process before round 1.  A process that transmits without
holding the payload sends a ``None``-payload message (such transmissions
convey information and cause collisions but do not inform — this is
exactly the behaviour the Theorem 12 construction exploits).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.adversaries.base import Adversary, AdversaryView, NoDeliveryAdversary
from repro.graphs.dualgraph import DualGraph
from repro.sim.collision import CollisionRule, resolve_reception
from repro.sim.faults import ChurnSchedule
from repro.obs.telemetry import current as _current_telemetry
from repro.sim.messages import (
    COLLISION,
    Message,
    Reception,
    SILENCE,
    carries_payload,
    source_input,
)
from repro.sim.process import Process, ProcessContext
from repro.sim.topology import CompiledTopology, compile_topology
from repro.sim.trace import ExecutionTrace, RoundRecord


class StartMode(enum.Enum):
    """When processes begin executing (Section 2.1)."""

    #: Every process begins in round 1.
    SYNCHRONOUS = "synchronous"
    #: A process is activated by its first message reception.
    ASYNCHRONOUS = "asynchronous"


#: Names accepted by :attr:`EngineConfig.engine` / :func:`build_engine`.
ENGINE_NAMES = ("reference", "fast")


@dataclass
class EngineConfig:
    """Execution parameters.

    Attributes:
        collision_rule: CR1–CR4 (default CR4, the weakest — the paper's
            upper bounds assume it).
        start_mode: Synchronous or asynchronous start (default
            asynchronous, again the weakest).
        max_rounds: Safety bound on execution length; the engine stops and
            marks the trace incomplete if broadcast has not finished.
        seed: Master seed; each process gets an independent deterministic
            PRNG derived from it.
        stop_when_informed: Stop as soon as every process holds the
            payload (the broadcast problem's success condition).
        record_receptions: Keep per-node observations in the trace
            (memory-heavy; intended for tests and small runs).
        engine: Which execution engine implementation to use:
            ``"reference"`` (this module's :class:`BroadcastEngine`, the
            semantic ground truth) or ``"fast"`` (the bitmask engine in
            :mod:`repro.sim.fast_engine`).  Both produce bit-identical
            traces — see
            ``tests/test_fast_engine_equivalence.py`` and
            ``tests/test_engine_fuzz.py``.
        churn: Optional :class:`~repro.sim.faults.ChurnSchedule` of
            crash/recovery fault-injection events, applied identically
            by every engine at the top of each round (before send
            decisions).  ``None`` (the default) runs failure-free.
    """

    collision_rule: CollisionRule = CollisionRule.CR4
    start_mode: StartMode = StartMode.ASYNCHRONOUS
    max_rounds: int = 1_000_000
    seed: int = 0
    stop_when_informed: bool = True
    record_receptions: bool = False
    engine: str = "reference"
    churn: Optional[ChurnSchedule] = None


class BroadcastEngine:
    """Runs one algorithm on one network under one adversary.

    Args:
        network: The dual graph.
        processes: Exactly ``network.n`` process automata with distinct
            uids.  The adversary chooses which node each occupies.
        adversary: The adversary (default: never delivers on unreliable
            links).
        config: Execution parameters.
        topology: Optional pre-compiled
            :class:`~repro.sim.topology.CompiledTopology` for
            ``network``; compiled on construction when omitted.  The
            batched sweep path compiles one topology per science cell
            and shares it across every seed.  Must have been compiled
            from this exact ``network`` object.
    """

    #: The engine the ``engine_run`` telemetry event names.
    engine_name = "reference"
    #: The ``engine.*`` counters :meth:`_resolve` tallies while a sink
    #: is enabled; :meth:`run` folds them into the sink once per run.
    counter_names: Tuple[str, ...] = (
        "engine.rounds",
        "engine.senders",
        "engine.delivered",
        "engine.collisions",
        "engine.silences",
        "engine.crashed_drops",
        "engine.cr4_consults",
    )

    def __init__(
        self,
        network: DualGraph,
        processes: Sequence[Process],
        adversary: Optional[Adversary] = None,
        config: Optional[EngineConfig] = None,
        topology: Optional[CompiledTopology] = None,
    ) -> None:
        if topology is not None and topology.graph is not network:
            raise ValueError(
                "topology was compiled for a different graph object"
            )
        uids = [p.uid for p in processes]
        if len(set(uids)) != len(uids):
            raise ValueError("process uids must be distinct")
        if len(processes) != network.n:
            raise ValueError(
                f"need exactly {network.n} processes, got {len(processes)}"
            )
        self.network = network
        self.adversary = adversary if adversary is not None else NoDeliveryAdversary()
        self.config = config if config is not None else EngineConfig()
        # Telemetry is captured at construction (the process-wide sink
        # at that moment); it only observes — counters/events never
        # feed trace state, so enabling a sink cannot change a trace.
        self._telemetry = _current_telemetry()
        self._tallies: Dict[str, int] = dict.fromkeys(self.counter_names, 0)

        by_uid = {p.uid: p for p in processes}
        proc_map = self.adversary.assign_processes(network, uids)
        if sorted(proc_map) != list(network.nodes) or sorted(
            proc_map.values()
        ) != sorted(uids):
            raise ValueError("adversary returned an invalid proc mapping")
        #: node → process
        self.process_at: Dict[int, Process] = {
            node: by_uid[uid] for node, uid in proc_map.items()
        }
        #: node → process uid
        self.proc_map = dict(proc_map)

        seed, n = self.config.seed, network.n
        self._contexts: Dict[int, ProcessContext] = {
            node: ProcessContext.seeded(seed, p.uid, n)
            for node, p in self.process_at.items()
        }
        self._active: set = set()
        self._round = 0
        self._started = False
        self.trace = ExecutionTrace(
            network_name=network.name,
            n=network.n,
            proc=dict(proc_map),
            informed_round={v: None for v in network.nodes},
        )

        # Hot-path precomputation: the per-round loops index these flat
        # sequences instead of going through DualGraph accessor calls.
        # A shared CompiledTopology holds them (one derivation per sweep
        # cell instead of one per engine); without one, compile it here.
        if topology is None:
            topology = compile_topology(network)
        self._topology: CompiledTopology = topology
        self._reliable_out_seq: List[tuple] = topology.reliable_out_seq
        self._unreliable_only_seq: List[FrozenSet[int]] = (
            topology.unreliable_only_seq
        )
        # The informed set and its frozenset snapshot for AdversaryView,
        # rebuilt only in rounds where the set actually changed.
        self._informed_set: set = set()
        self._informed_view: FrozenSet[int] = frozenset()
        self._informed_dirty = False
        self._active_sorted: List[int] = []
        # Fault injection (config.churn): currently-crashed nodes plus
        # the was-it-active-at-crash memory the "informed" rejoin
        # policy needs to resume a node where it stopped.
        self._crashed: set = set()
        self._crash_was_active: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _insert_active(self, node: int) -> None:
        """Add ``node`` to the active set (bookkeeping only, no hook).

        Subclasses extend this (and :meth:`_deactivate`) to keep their
        own active-set representations — the fast engine's bitmask — in
        sync with the base sets.
        """
        self._active.add(node)
        insort(self._active_sorted, node)

    def _deactivate(self, node: int) -> None:
        """Remove ``node`` from the active set (no process hook runs)."""
        self._active.discard(node)
        idx = bisect_left(self._active_sorted, node)
        if idx < len(self._active_sorted) and (
            self._active_sorted[idx] == node
        ):
            del self._active_sorted[idx]

    def _activate(self, node: int) -> None:
        if node in self._active:
            return
        self._insert_active(node)
        self.process_at[node].on_activate(self._contexts[node])

    def _mark_informed(self, node: int, round_number: int) -> None:
        self.trace.informed_round[node] = round_number
        self._informed_set.add(node)
        self._informed_dirty = True

    # ------------------------------------------------------------------
    # Fault injection (config.churn)
    # ------------------------------------------------------------------
    def _crash_node(self, node: int) -> None:
        """Take ``node`` down: no sends, no receptions, no progress.

        Under the ``"uninformed"`` rejoin policy the crash also wipes
        volatile state — payload custody is revoked (the trace's
        ``informed_round`` entry reverts to ``None``) so completion
        stays honest: a run only completes while every node actually
        holds the payload.
        """
        was_active = node in self._active
        self._crash_was_active[node] = was_active
        if was_active:
            self._deactivate(node)
        self._crashed.add(node)
        churn = self.config.churn
        if churn is not None and churn.rejoin == "uninformed":
            if node in self._informed_set:
                self._informed_set.discard(node)
                self._informed_dirty = True
                self.trace.informed_round[node] = None
            self.process_at[node].on_crash()

    def _recover_node(self, node: int, rnd: int) -> None:
        """Bring ``node`` back up at the top of round ``rnd``.

        ``"informed"`` rejoin resumes a node that was active at crash
        time exactly where it stopped (no re-activation hook); every
        other case is a fresh join — activated immediately under
        synchronous start, or left asleep until a message wakes it
        under asynchronous start (the model's normal wake rule).
        """
        self._crashed.discard(node)
        was_active = self._crash_was_active.pop(node, False)
        churn = self.config.churn
        if churn is not None and churn.rejoin == "informed" and was_active:
            self._insert_active(node)
        elif self.config.start_mode is StartMode.SYNCHRONOUS:
            # on_activate must observe the recovery round on every
            # engine; phase 1 has not advanced the contexts yet.
            self._contexts[node].round_number = rnd
            self._activate(node)

    def _apply_churn(self, rnd: int):
        """Apply round ``rnd``'s schedule events; returns the tuples
        recorded in the round's :class:`~repro.sim.trace.RoundRecord`
        (crashes before recoveries, matching schedule validation)."""
        churn = self.config.churn
        if churn is None:
            return (), ()
        crashed = churn.crashes.get(rnd, ())
        for node in crashed:
            self._crash_node(node)
        recovered = churn.recoveries.get(rnd, ())
        for node in recovered:
            self._recover_node(node, rnd)
        return crashed, recovered

    def _setup(self) -> None:
        churn = self.config.churn
        if churn is not None:
            churn.validate_for(self.network)
            for node in churn.initial_down:
                self._crash_node(node)
        source = self.network.source
        source_proc = self.process_at[source]
        source_proc.on_broadcast_input(source_input(source_proc.uid))
        self._mark_informed(source, 0)
        if self.config.start_mode is StartMode.SYNCHRONOUS:
            for node in self.network.nodes:
                if node not in self._crashed:
                    self._activate(node)
        else:
            # The environment input activates the source.
            self._activate(source)
        self.adversary.on_execution_start(self.network, self.proc_map)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _informed_nodes(self) -> FrozenSet[int]:
        if self._informed_dirty:
            self._informed_view = frozenset(self._informed_set)
            self._informed_dirty = False
        return self._informed_view

    def _decide_senders(self, rnd: int) -> Dict[int, Message]:
        """Phase 1: advance every context and collect the round's senders.

        Every context (sleeping ones included, so activation mid-round
        observes the right round) advances first.  The returned mapping's
        insertion order is ascending node order — the fast engine relies
        on this to reconstruct identical CR4 arrival lists.
        """
        for ctx in self._contexts.values():
            ctx.round_number = rnd
        senders: Dict[int, Message] = {}
        for node in self._active_sorted:
            msg = self.process_at[node].decide_send(self._contexts[node])
            if msg is not None:
                senders[node] = msg
        return senders

    def _adversary_view(self, rnd: int, senders: Dict[int, Message]
                        ) -> AdversaryView:
        """Phase 2 (view): what the adversary observes this round.

        The view shares the engine's live senders mapping (adversaries
        must treat it as read-only); the informed snapshot comes from the
        incrementally maintained cache.
        """
        return AdversaryView(
            round_number=rnd,
            network=self.network,
            topology=self._topology,
            senders=senders,
            informed=self._informed_nodes(),
        )

    def _validated_deliveries(
        self, view: AdversaryView, senders: Dict[int, Message]
    ) -> Dict[int, FrozenSet[int]]:
        """Phase 2 (choice): adversary-chosen unreliable deliveries.

        Every returned target is checked to be a legal unreliable-only
        out-neighbour of an actual sender.
        """
        raw = self.adversary.choose_deliveries(view)
        deliveries: Dict[int, FrozenSet[int]] = {}
        for sender, targets in raw.items():
            if sender not in senders:
                raise ValueError(
                    f"adversary delivered for non-sender node {sender}"
                )
            targets = frozenset(targets)
            illegal = targets - self._unreliable_only_seq[sender]
            if illegal:
                raise ValueError(
                    f"adversary chose illegal targets {sorted(illegal)} "
                    f"for sender {sender}"
                )
            deliveries[sender] = targets
        return deliveries

    def _step(self) -> RoundRecord:
        """One round of Section 2.1: churn, decisions, the adversary's
        deliveries, then :meth:`_resolve`; appends the round's record."""
        self._round += 1
        rnd = self._round
        crashed_now, recovered_now = self._apply_churn(rnd)
        senders = self._decide_senders(rnd)
        view = self._adversary_view(rnd, senders)
        deliveries = self._validated_deliveries(view, senders)
        receptions, newly_informed, newly_active = self._resolve(
            rnd, senders, deliveries, view
        )
        record = RoundRecord(
            round_number=rnd,
            senders=senders,
            unreliable_deliveries=deliveries,
            newly_informed=tuple(newly_informed),
            newly_active=tuple(newly_active),
            receptions=receptions,
            crashed=crashed_now,
            recovered=recovered_now,
        )
        self.trace.rounds.append(record)
        return record

    def _resolve(
        self,
        rnd: int,
        senders: Dict[int, Message],
        deliveries: Dict[int, FrozenSet[int]],
        view: AdversaryView,
    ) -> Tuple[Optional[Dict[int, Reception]], List[int], List[int]]:
        """Phases 3 and 4: arrivals, resolution and delivery.

        Returns the round's recorded receptions (``None`` unless
        recording), the newly informed and the newly active nodes, in
        ascending node order.  Each outcome is counted in the branch
        that decides it and, while a sink is enabled, added to the
        run's tallies once per round.
        """
        network = self.network
        recording = self.config.record_receptions

        # Phase 3: arrivals (only nodes actually reached get a list).
        arrivals: Dict[int, List[Message]] = {}
        setdefault = arrivals.setdefault
        for sender, msg in senders.items():
            # A sender's message reaches itself.
            setdefault(sender, []).append(msg)
            for target in self._reliable_out_seq[sender]:
                setdefault(target, []).append(msg)
            for target in deliveries.get(sender, ()):
                setdefault(target, []).append(msg)

        # Phase 4: resolution and delivery.  Without reception recording
        # only nodes that are awake or reached need resolving (a sleeping
        # node with no arrivals observes nothing by definition); with
        # recording on, every node's observation goes into the record.
        consults = 0

        def cr4(node: int, msgs: List[Message]) -> Optional[Message]:
            nonlocal consults
            consults += 1
            return self.adversary.resolve_cr4(view, node, msgs)

        if recording:
            candidates: Sequence[int] = network.nodes
        elif len(self._active_sorted) == network.n:
            candidates = self._active_sorted
        else:
            touched = set(self._active_sorted)
            touched.update(arrivals)
            candidates = sorted(touched)

        no_arrivals: List[Message] = []
        newly_informed: List[int] = []
        newly_active: List[int] = []
        receptions: Optional[Dict[int, Reception]] = (
            {} if recording else None
        )
        informed_round = self.trace.informed_round
        rule = self.config.collision_rule
        crashed_set = self._crashed
        delivered = collisions = silences = drops = 0
        for node in candidates:
            if node in crashed_set:
                # A crashed radio hears nothing and is never consulted
                # for — arrivals at its position dissolve (recorded as
                # silence), and no message can wake it.
                if node in arrivals:
                    drops += 1
                if receptions is not None:
                    receptions[node] = SILENCE
                continue
            own_message = senders.get(node)
            node_arrivals = arrivals.get(node, no_arrivals)
            if own_message is None and not node_arrivals:
                # Fast path: a non-sender nothing reached hears silence
                # under every collision rule.
                reception = SILENCE
                is_message = False
                silences += 1
            else:
                reception = resolve_reception(
                    rule,
                    node,
                    own_message is not None,
                    own_message,
                    node_arrivals,
                    cr4_resolver=cr4,
                )
                # The cheap spelling of Reception.is_message.
                is_message = reception.message is not None
                if is_message:
                    delivered += 1
                elif reception is COLLISION:
                    collisions += 1
                else:
                    silences += 1
            if receptions is not None:
                receptions[node] = reception
            if node not in self._active:
                if is_message:
                    newly_active.append(node)
                    self._activate(node)
                else:
                    continue  # sleeping processes observe nothing
            self.process_at[node].deliver(self._contexts[node], reception)
            if informed_round[node] is None and carries_payload(reception):
                self._mark_informed(node, rnd)
                newly_informed.append(node)

        if self._telemetry.enabled:
            tallies = self._tallies
            tallies["engine.rounds"] += 1
            tallies["engine.senders"] += len(senders)
            tallies["engine.delivered"] += delivered
            tallies["engine.collisions"] += collisions
            tallies["engine.silences"] += silences
            tallies["engine.crashed_drops"] += drops
            tallies["engine.cr4_consults"] += consults
        return receptions, newly_informed, newly_active

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ExecutionTrace:
        """Execute until broadcast completes or ``max_rounds`` elapse."""
        if not self._started:
            self._setup()
            self._started = True
        while self._round < self.config.max_rounds:
            self._step()
            if self.config.stop_when_informed and self._all_informed():
                break
        self.trace.completed = self._all_informed()
        telemetry = self._telemetry
        if telemetry.enabled:
            for name, value in self._tallies.items():
                telemetry.count(name, value)
            self._tallies = dict.fromkeys(self.counter_names, 0)
            telemetry.event(
                "engine_run",
                engine=self.engine_name,
                n=self.network.n,
                rounds=self._round,
                completed=self.trace.completed,
            )
        return self.trace

    def _all_informed(self) -> bool:
        return len(self._informed_set) == self.network.n


def build_engine(
    network: DualGraph,
    processes: Sequence[Process],
    adversary: Optional[Adversary] = None,
    config: Optional[EngineConfig] = None,
    topology: Optional[CompiledTopology] = None,
) -> BroadcastEngine:
    """Instantiate the engine selected by ``config.engine``.

    ``"reference"`` yields :class:`BroadcastEngine`; ``"fast"`` yields
    :class:`repro.sim.fast_engine.FastBroadcastEngine` (a subclass whose
    traces are bit-identical — the two are interchangeable wherever an
    engine is consumed).  ``topology``
    optionally shares one pre-compiled
    :class:`~repro.sim.topology.CompiledTopology` across engines
    built on the same graph.
    """
    config = config if config is not None else EngineConfig()
    if config.engine == "reference":
        return BroadcastEngine(
            network, processes, adversary, config, topology=topology
        )
    if config.engine == "fast":
        from repro.sim.fast_engine import FastBroadcastEngine

        return FastBroadcastEngine(
            network, processes, adversary, config, topology=topology
        )
    raise ValueError(
        f"unknown engine {config.engine!r}; known: {list(ENGINE_NAMES)}"
    )


def run_broadcast(
    network: DualGraph,
    processes: Sequence[Process],
    adversary: Optional[Adversary] = None,
    **config_kwargs,
) -> ExecutionTrace:
    """One-call convenience wrapper: build an engine and run it.

    Keyword arguments are forwarded to :class:`EngineConfig`; pass
    ``engine="fast"`` to select the bitmask engine.
    """
    config = EngineConfig(**config_kwargs)
    engine = build_engine(network, processes, adversary, config)
    return engine.run()
