"""Unit tests for the DualGraph structure and its invariants."""

import itertools
import random

import pytest

from repro.graphs import clique_bridge, gnp_dual, line, with_complete_unreliable
from repro.graphs.dualgraph import DualGraph, DualGraphError


class TestConstruction:
    def test_reliable_subset_enforced(self):
        # Undirected input: the message lists the first five missing
        # directed edges, both directions of each, sorted.
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(DualGraphError, match="subset") as info:
            DualGraph(5, path, [(0, 1)], undirected=True)
        assert str(info.value).endswith(
            "missing from E': [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4)]"
        )

    def test_reachability_enforced(self):
        with pytest.raises(DualGraphError, match="unreachable"):
            DualGraph(3, [(0, 1)])  # node 2 unreachable

    def test_self_loops_rejected(self):
        with pytest.raises(DualGraphError, match="self-loop"):
            DualGraph(2, [(0, 0), (0, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DualGraphError, match="out of range"):
            DualGraph(2, [(0, 5)])

    def test_source_out_of_range(self):
        with pytest.raises(DualGraphError, match="source"):
            DualGraph(2, [(0, 1)], source=4)

    def test_empty_graph_rejected(self):
        with pytest.raises(DualGraphError):
            DualGraph(0, [])

    def test_singleton_graph_ok(self):
        g = DualGraph(1, [])
        assert g.n == 1
        assert g.source_eccentricity == 0

    def test_default_all_edges_is_reliable(self):
        g = DualGraph(3, [(0, 1), (1, 2)])
        assert g.is_classical

    def test_undirected_flag_symmetrises(self):
        g = DualGraph(3, [(0, 1), (1, 2)], undirected=True)
        assert (1, 0) in g.reliable_edges()
        assert g.is_undirected

    def test_directed_is_not_undirected(self):
        g = DualGraph(3, [(0, 1), (1, 2)])
        assert not g.is_undirected


class TestNeighbourhoods:
    def test_reliable_and_unreliable_split(self):
        g = DualGraph(3, [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)])
        assert g.reliable_out(0) == {1}
        assert g.unreliable_only_out(0) == {2}
        assert g.all_out(0) == {1, 2}

    def test_edge_sets_roundtrip(self):
        edges = {(0, 1), (1, 2), (0, 2)}
        g = DualGraph(3, [(0, 1), (1, 2)], edges)
        assert g.all_edges() == edges
        assert g.reliable_edges() == {(0, 1), (1, 2)}


class TestMetrics:
    def test_distances_on_path(self):
        g = DualGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert [g.distance_from_source(v) for v in range(4)] == [0, 1, 2, 3]
        assert g.source_eccentricity == 3

    def test_nonzero_source(self):
        g = DualGraph(3, [(1, 0), (1, 2)], source=1)
        assert g.distance_from_source(0) == 1
        assert g.distance_from_source(1) == 0


class TestDerived:
    def test_classical_projection_drops_unreliable(self):
        g = DualGraph(3, [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)])
        proj = g.classical_projection()
        assert proj.is_classical
        assert proj.all_edges() == {(0, 1), (1, 2)}

    def test_classical_union_promotes_unreliable(self):
        g = DualGraph(3, [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)])
        union = g.classical_union()
        assert union.is_classical
        assert union.reliable_edges() == {(0, 1), (1, 2), (0, 2)}


def per_node(graph):
    """The same graph rebuilt from its per-node out-sets."""
    return DualGraph.from_out_sets(
        [graph.reliable_out(v) for v in graph.nodes],
        [graph.all_out(v) for v in graph.nodes],
        source=graph.source,
        name=graph.name,
    )


def edge_built(graph):
    """The same graph rebuilt from its edge sets."""
    return DualGraph(
        graph.n,
        graph.reliable_edges(),
        graph.all_edges(),
        source=graph.source,
        name=graph.name,
    )


def adjacency(graph):
    return (
        graph.n,
        graph.source,
        graph.name,
        [graph.reliable_out(v) for v in graph.nodes],
        [graph.all_out(v) for v in graph.nodes],
        [graph.unreliable_only_out(v) for v in graph.nodes],
        [graph.distance_from_source(v) for v in graph.nodes],
        graph.is_undirected,
    )


def edge_built_gnp(n, p_reliable, p_unreliable, seed):
    """``gnp_dual`` as undirected edge tuple sets with a tuple probe, the
    construction the per-node draw loop replaced."""
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    reliable = {(min(u, v), max(u, v)) for u, v in tree}
    unreliable = set()
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) in reliable:
            continue
        if rng.random() < p_reliable:
            reliable.add((u, v))
        elif rng.random() < p_unreliable:
            unreliable.add((u, v))
    return DualGraph(
        n,
        reliable,
        itertools.chain(reliable, unreliable),
        undirected=True,
        name=f"gnp-dual(n={n},pr={p_reliable},pu={p_unreliable},seed={seed})",
    )


class TestPerNodeConstruction:
    """``DualGraph.from_out_sets`` runs the edge constructor's checks."""

    @pytest.mark.parametrize(
        "edge_args, node_args, text",
        [
            (
                (2, [(0, 5)]),
                ([{5}, set()],),
                "edge (0, 5) out of range",
            ),
            (
                (3, [(0, 1), (1, -1), (1, 2)]),
                ([{1}, {-1, 2}, set()],),
                "edge (1, -1) out of range",
            ),
            (
                (2, [(0, 1)], [(0, 1), (4, 0)]),
                ([{1}, set()], [{1}, set(), set(), set(), {0}]),
                "edge (4, 0) out of range",
            ),
            (
                (2, [(0, 0), (0, 1)]),
                ([{0, 1}, set()],),
                "self-loop (0, 0) not allowed",
            ),
            (
                (3, [(0, 1), (1, 2), (2, 2), (1, 1)]),
                ([{1}, {1, 2}, {2}],),
                "self-loop (1, 1) not allowed",
            ),
            (
                (3, [(0, 1), (1, 2)], [(0, 1)]),
                ([{1}, {2}, set()], [{1}, set(), set()]),
                "reliable edges must be a subset of all edges; "
                "missing from E': [(1, 2)]",
            ),
            (
                (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, 1)], 0, True),
                (
                    [{1}, {0, 2}, {1, 3}, {2, 4}, {3}],
                    [{1}, {0}, set(), set(), set()],
                ),
                "reliable edges must be a subset of all edges; "
                "missing from E': [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4)]",
            ),
            (
                (3, [(0, 1)]),
                ([{1}, set(), set()],),
                "nodes [2] unreachable from source 0 in the reliable graph G",
            ),
            (
                (2, [(0, 1)], None, 4),
                ([{1}, set()], None, 4),
                "source 4 out of range for n=2",
            ),
            ((0, []), ([],), "need at least one node, got n=0"),
        ],
        ids=[
            "out-of-range",
            "negative",
            "tail-out-of-range",
            "self-loop",
            "lowest-self-loop",
            "subset",
            "subset-undirected",
            "unreachable",
            "source",
            "empty",
        ],
    )
    def test_same_error_text(self, edge_args, node_args, text):
        with pytest.raises(DualGraphError) as by_edges:
            DualGraph(*edge_args)
        with pytest.raises(DualGraphError) as by_nodes:
            DualGraph.from_out_sets(*node_args)
        assert str(by_edges.value) == str(by_nodes.value) == text

    @pytest.mark.parametrize(
        "build",
        [
            lambda: line(9),
            lambda: with_complete_unreliable(line(9)),
            lambda: clique_bridge(17).graph,
            lambda: gnp_dual(33, seed=0),
            lambda: gnp_dual(33, seed=1),
        ],
        ids=["line", "line-complete", "clique-bridge", "gnp-s0", "gnp-s1"],
    )
    def test_both_paths_give_equal_adjacency(self, build):
        graph = build()
        assert adjacency(per_node(graph)) == adjacency(edge_built(graph))
        assert adjacency(per_node(graph)) == adjacency(graph)

    def test_default_all_out_is_reliable(self):
        g = DualGraph.from_out_sets([{1}, {0, 2}, {1}])
        assert g.is_classical
        assert g.is_undirected
        expected = DualGraph(3, [(0, 1), (1, 2)], undirected=True)
        assert g.all_edges() == expected.all_edges()

    def test_asymmetric_sets_are_directed(self):
        g = DualGraph.from_out_sets([{1}, {2}, set()])
        assert not g.is_undirected

    @pytest.mark.parametrize(
        "n, p_reliable, p_unreliable, seed",
        [
            (2, 0.1, 0.2, 0),
            (9, 0.1, 0.2, 0),
            (60, 0.1, 0.2, 1),
            (60, 0.0, 1.0, 2),
            (60, 1.0, 0.0, 3),
            (60, 0.3, 0.5, 4),
        ],
    )
    def test_gnp_dual_matches_edge_tuple_construction(
        self, n, p_reliable, p_unreliable, seed
    ):
        graph = gnp_dual(n, p_reliable, p_unreliable, seed=seed)
        reference = edge_built_gnp(n, p_reliable, p_unreliable, seed)
        assert adjacency(graph) == adjacency(reference)
