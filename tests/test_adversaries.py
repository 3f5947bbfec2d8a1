"""Unit tests for the adversary implementations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_graph
from repro.adversaries import (
    FixedAssignmentAdversary,
    FullDeliveryAdversary,
    GreedyInterferer,
    NoDeliveryAdversary,
    PivotAdversary,
    RandomDeliveryAdversary,
    ReplayAdversary,
)
from repro.adversaries.base import AdversaryView
from repro.core.runner import broadcast
from repro.experiments.registry import ADVERSARIES, build_adversary
from repro.graphs import (
    DualGraph,
    gnp_dual,
    line,
    pivot_layers,
    with_complete_unreliable,
)
from repro.interference.reduction import InterferenceSimulationAdversary
from repro.obs import RecordingTelemetry, use
from repro.search.genome import GenomeCR4Adversary
from repro.sim import (
    CollisionRule,
    Message,
    ScriptedProcess,
    compile_topology,
    run_broadcast,
)


def view_for(network, senders, informed=frozenset([0]), rnd=1):
    return AdversaryView(
        round_number=rnd,
        network=network,
        topology=compile_topology(network),
        senders=senders,
        informed=frozenset(informed),
    )


def msg(sender):
    return Message("p", sender, 1)


class TestSimpleAdversaries:
    def test_no_delivery_empty(self):
        g = with_complete_unreliable(line(4))
        adv = NoDeliveryAdversary()
        assert adv.choose_deliveries(view_for(g, {0: msg(0)})) == {}

    def test_full_delivery_covers_all_unreliable(self):
        g = with_complete_unreliable(line(4))
        adv = FullDeliveryAdversary()
        out = adv.choose_deliveries(view_for(g, {0: msg(0)}))
        assert out[0] == g.unreliable_only_out(0)

    def test_random_delivery_p0_never(self):
        g = with_complete_unreliable(line(4))
        adv = RandomDeliveryAdversary(p=0.0)
        assert adv.choose_deliveries(view_for(g, {0: msg(0)})) == {}

    def test_random_delivery_p1_always(self):
        g = with_complete_unreliable(line(4))
        adv = RandomDeliveryAdversary(p=1.0)
        out = adv.choose_deliveries(view_for(g, {0: msg(0)}))
        assert out[0] == g.unreliable_only_out(0)

    def test_random_delivery_deterministic_given_seed(self):
        g = with_complete_unreliable(line(10))
        outs = []
        for _ in range(2):
            adv = RandomDeliveryAdversary(p=0.5, seed=3)
            outs.append(
                adv.choose_deliveries(view_for(g, {0: msg(0)}))
            )
        assert outs[0] == outs[1]

    def test_random_delivery_validation(self):
        with pytest.raises(ValueError):
            RandomDeliveryAdversary(p=1.5)
        with pytest.raises(ValueError):
            RandomDeliveryAdversary(p=0.5, cr4_mode="bogus")

    def test_cr4_modes(self):
        adv_silence = RandomDeliveryAdversary(0.5, cr4_mode="silence")
        adv_first = RandomDeliveryAdversary(0.5, cr4_mode="first")
        g = with_complete_unreliable(line(4))
        v = view_for(g, {})
        arrivals = [msg(3), msg(1)]
        assert adv_silence.resolve_cr4(v, 2, arrivals) is None
        assert adv_first.resolve_cr4(v, 2, arrivals).sender == 1

def sorted_generator_deliveries(rng, p, view):
    """Random deliveries as drawn before the compiled sorted tuples: one
    ``sorted(...)`` per sender per call, coins in that order."""
    out = {}
    for sender in sorted(view.senders):
        targets = frozenset(
            t
            for t in sorted(view.network.unreliable_only_out(sender))
            if rng.random() < p
        )
        if targets:
            out[sender] = targets
    return out


class TestRandomDeliveryStream:
    @pytest.mark.parametrize("p, seed", [(0.5, 7), (0.1, 0), (1.0, 3)])
    def test_deliveries_match_sorted_generator(self, p, seed):
        g = gnp_dual(60, seed=2)
        topology = compile_topology(g)
        adv = RandomDeliveryAdversary(p=p, seed=seed)
        reference = random.Random(seed)
        picker = random.Random(11)
        for rnd in range(1, 21):
            chosen = picker.sample(range(g.n), picker.randint(0, 30))
            view = AdversaryView(
                round_number=rnd,
                network=g,
                topology=topology,
                senders={v: msg(v) for v in chosen},
                informed=frozenset(chosen),
            )
            expected = sorted_generator_deliveries(reference, p, view)
            assert adv.choose_deliveries(view) == expected
        # Same number of coins drawn, so the streams stay in step.
        assert adv._rng.getstate() == reference.getstate()

    def test_sorted_tuples_match_unreliable_only_out(self):
        g = gnp_dual(60, seed=2)
        topology = compile_topology(g)
        assert topology.unreliable_sorted == [
            tuple(sorted(g.unreliable_only_out(v))) for v in g.nodes
        ]

    def test_sorted_tuples_built_on_first_read(self):
        g = gnp_dual(60, seed=2)
        topology = compile_topology(g)
        assert topology._unreliable_sorted is None
        view = AdversaryView(
            round_number=1,
            network=g,
            topology=topology,
            senders={0: msg(0)},
            informed=frozenset([0]),
        )
        NoDeliveryAdversary().choose_deliveries(view)
        GreedyInterferer().choose_deliveries(view)
        assert topology._unreliable_sorted is None
        RandomDeliveryAdversary(p=0.5).choose_deliveries(view)
        first = topology._unreliable_sorted
        assert first is not None
        assert topology.unreliable_sorted is first


class TestFixedAssignmentAdversary:
    def test_installs_mapping(self):
        from repro.adversaries import FixedAssignmentAdversary
        from repro.sim import BroadcastEngine, EngineConfig

        g = line(4)
        mapping = {0: 3, 1: 2, 2: 1, 3: 0}
        procs = [ScriptedProcess(i, range(1, 50)) for i in range(4)]
        engine = BroadcastEngine(
            g, procs, FixedAssignmentAdversary(mapping),
            EngineConfig(max_rounds=10),
        )
        trace = engine.run()
        assert trace.proc == mapping
        assert trace.completed

    def test_rejects_non_bijection(self):
        from repro.adversaries import FixedAssignmentAdversary
        from repro.sim import BroadcastEngine, EngineConfig

        g = line(3)
        procs = [ScriptedProcess(i, [1]) for i in range(3)]
        with pytest.raises(ValueError):
            BroadcastEngine(
                g, procs,
                FixedAssignmentAdversary({0: 0, 1: 0, 2: 1}),
                EngineConfig(max_rounds=5),
            )

    def test_delegates_to_inner_adversary(self):
        from repro.adversaries import (
            FixedAssignmentAdversary,
            FullDeliveryAdversary,
        )

        g = with_complete_unreliable(line(4))
        mapping = {v: v for v in g.nodes}
        adv = FixedAssignmentAdversary(mapping, FullDeliveryAdversary())
        out = adv.choose_deliveries(view_for(g, {0: msg(0)}))
        assert out[0] == g.unreliable_only_out(0)

    def test_no_inner_means_no_deliveries(self):
        from repro.adversaries import FixedAssignmentAdversary

        g = with_complete_unreliable(line(4))
        adv = FixedAssignmentAdversary({v: v for v in g.nodes})
        assert adv.choose_deliveries(view_for(g, {0: msg(0)})) == {}
        assert adv.resolve_cr4(view_for(g, {}), 1, [msg(0), msg(2)]) is None


class TestGreedyInterferer:
    def test_collides_single_reliable_arrival(self):
        # Line with complete G': node 2 would receive node 1's lone
        # message; sender 0 holds an unreliable edge to 2 and must be
        # told to use it.
        g = with_complete_unreliable(line(4))
        adv = GreedyInterferer()
        out = adv.choose_deliveries(
            view_for(g, {0: msg(0), 1: msg(1)}, informed={0, 1})
        )
        assert 2 in out.get(0, frozenset())

    def test_ignores_informed_nodes(self):
        g = with_complete_unreliable(line(4))
        adv = GreedyInterferer()
        out = adv.choose_deliveries(
            view_for(g, {0: msg(0), 1: msg(1)}, informed={0, 1, 2, 3})
        )
        assert out == {}

    def test_powerless_against_lone_sender(self):
        g = with_complete_unreliable(line(4))
        adv = GreedyInterferer()
        out = adv.choose_deliveries(view_for(g, {1: msg(1)}, informed={0, 1}))
        assert out == {}  # no second sender to interfere with

    def test_slows_broadcast_on_line(self):
        g = with_complete_unreliable(line(6))
        base = run_broadcast(
            g,
            [ScriptedProcess(i, range(1, 100)) for i in range(6)],
            adversary=NoDeliveryAdversary(),
            max_rounds=50,
        )
        attacked = run_broadcast(
            g,
            [ScriptedProcess(i, range(1, 100)) for i in range(6)],
            adversary=GreedyInterferer(),
            max_rounds=50,
        )
        assert not attacked.completed or (
            attacked.completion_round >= base.completion_round
        )


def set_based_greedy(view):
    """The greedy interferer's set-probe search, kept as the oracle for
    the mask algebra of :meth:`GreedyInterferer.choose_deliveries`."""
    network = view.network
    senders = sorted(view.senders)
    reliable_arrivals = {}
    for s in senders:
        for t in network.reliable_out(s):
            reliable_arrivals[t] = reliable_arrivals.get(t, 0) + 1
    for s in senders:
        reliable_arrivals[s] = reliable_arrivals.get(s, 0) + 1
    chosen = {}
    for u in network.nodes:
        if u in view.informed:
            continue
        if reliable_arrivals.get(u, 0) != 1:
            continue
        for w in senders:
            if u in network.unreliable_only_out(w):
                chosen.setdefault(w, set()).add(u)
                break
    return {w: frozenset(ts) for w, ts in chosen.items()}


@st.composite
def greedy_views(draw):
    """A view on a random directed dual graph, with random senders (in
    random insertion order) and a random informed set."""
    n = draw(st.integers(min_value=2, max_value=20))
    tree = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v)
        for v in range(1, n)
    ]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    extra_reliable = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    extra_unreliable = draw(
        st.sets(st.sampled_from(pairs), max_size=4 * n)
    )
    reliable = set(tree) | extra_reliable
    graph = DualGraph(n, sorted(reliable), sorted(reliable | extra_unreliable))
    nodes = st.sampled_from(range(n))
    senders = draw(st.lists(nodes, unique=True))
    informed = draw(st.sets(nodes))
    return view_for(graph, {s: msg(s) for s in senders}, informed=informed)


@given(view=greedy_views())
@settings(max_examples=300, deadline=None)
def test_mask_greedy_matches_set_oracle(view):
    """Same mapping, same key order, as the set-probe search."""
    got = GreedyInterferer().choose_deliveries(view)
    assert list(got.items()) == list(set_based_greedy(view).items())


def run_cr4(graph, adversary_factory, max_rounds=60):
    """Harmonic under CR4 on both engines: each engine's trace and
    telemetry counters."""
    traces, counters = {}, {}
    for engine in ("reference", "fast"):
        telemetry = RecordingTelemetry()
        with use(telemetry):
            traces[engine] = broadcast(
                graph,
                "harmonic",
                adversary=adversary_factory(),
                seed=0,
                engine=engine,
                collision_rule=CollisionRule.CR4,
                max_rounds=max_rounds,
            )
        counters[engine] = telemetry.counters
    return traces, counters


class DeliverLowest:
    """A real CR4 resolver, for mixing into adversaries that have none."""

    def resolve_cr4(self, view, node, arrivals):
        return min(arrivals, key=lambda m: m.sender)


class TestCR4Silence:
    """``cr4_always_silent``: inferred per class and honoured."""

    #: Registered kinds whose class defines a real resolver.
    CONSULTED = {"random"}

    @pytest.mark.parametrize("kind", ADVERSARIES.names())
    def test_registered_kinds_pin_the_shortcut(self, kind):
        """Every registered kind at its defaults, on the Theorem 2 cell:
        a kind keeping the base resolver takes the fast engine's CR4
        silence shortcut, a kind with a resolver is consulted."""
        graph = corpus_graph("clique-bridge", 17)
        params = {"n": graph.n} if kind == "pivot" else {}
        traces, counters = run_cr4(
            graph, lambda: build_adversary(kind, seed=0, **params)
        )
        fast = counters["fast"]
        consults = fast.get("engine.cr4_consults", 0)
        # Every fast-engine consult rebuilds the arrival list in the
        # reference engine's order, so it counts as a fallback too.
        assert fast.get("engine.cr4_fallbacks", 0) == consults
        if kind in self.CONSULTED:
            assert consults > 0
        else:
            assert consults == 0
        assert traces["fast"].rounds == traces["reference"].rounds
        # The reference engine consults on every CR4 collision at a
        # non-sender; only the two unselective kinds meet none here.
        if kind not in ("none", "full"):
            assert counters["reference"]["engine.cr4_consults"] > 0

    def test_inferred_per_class(self):
        for cls in (
            RandomDeliveryAdversary,
            FixedAssignmentAdversary,
            ReplayAdversary,
            GenomeCR4Adversary,
            InterferenceSimulationAdversary,
        ):
            assert cls.cr4_always_silent is False
        for cls in (GreedyInterferer, PivotAdversary, NoDeliveryAdversary):
            assert cls.cr4_always_silent is True

    def test_a_class_body_cannot_declare_silence(self):
        class Claims(NoDeliveryAdversary):
            cr4_always_silent = True

            def resolve_cr4(self, view, node, arrivals):
                return arrivals[0]

        assert Claims.cr4_always_silent is False

    def test_a_mixed_in_resolver_counts(self):
        class Mixed(DeliverLowest, NoDeliveryAdversary):
            pass

        assert Mixed.cr4_always_silent is False

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: type(
                "Resolving", (FixedAssignmentAdversary,),
                {"resolve_cr4": DeliverLowest.resolve_cr4},
            )({v: v for v in range(17)}, GreedyInterferer()),
            lambda: type(
                "Resolving", (RandomDeliveryAdversary,),
                {"resolve_cr4": DeliverLowest.resolve_cr4},
            )(0.5),
            lambda: type(
                "Resolving", (DeliverLowest, GreedyInterferer), {}
            )(),
        ],
        ids=["fixed-subclass", "random-subclass", "greedy-mixin"],
    )
    def test_subclass_resolver_is_consulted_on_both_engines(self, factory):
        """A resolver defined below a parent whose resolver may answer
        silence, or mixed in, is consulted by the fast engine as by the
        reference engine, and the two traces agree."""
        graph = corpus_graph("clique-bridge", 17)
        traces, counters = run_cr4(graph, factory)
        assert type(factory()).cr4_always_silent is False
        assert counters["fast"]["engine.cr4_consults"] > 0
        assert traces["fast"].rounds == traces["reference"].rounds
        assert traces["fast"].informed_round == (
            traces["reference"].informed_round
        )


class TestPivotAdversary:
    def test_withholds_for_lone_nonpivot(self):
        layout = pivot_layers(3, 3)
        adv = PivotAdversary(layout)
        non_pivot = layout.layers[1][1]
        out = adv.choose_deliveries(
            view_for(layout.graph, {non_pivot: msg(non_pivot)},
                     informed=set(layout.layers[0]) | set(layout.layers[1]))
        )
        assert out == {}

    def test_blankets_when_pivot_contends(self):
        layout = pivot_layers(3, 3)
        adv = PivotAdversary(layout)
        pivot = layout.layers[1][0]
        other = layout.layers[1][1]
        out = adv.choose_deliveries(
            view_for(
                layout.graph,
                {pivot: msg(pivot), other: msg(other)},
                informed=set(layout.layers[0]) | set(layout.layers[1]),
            )
        )
        assert set(layout.layers[2]) <= set(out[other])

    def test_lone_pivot_progress_not_blocked(self):
        layout = pivot_layers(3, 3)
        adv = PivotAdversary(layout)
        pivot = layout.layers[1][0]
        out = adv.choose_deliveries(
            view_for(layout.graph, {pivot: msg(pivot)},
                     informed=set(layout.layers[0]) | set(layout.layers[1]))
        )
        assert out == {}  # reliable edges handle the delivery
