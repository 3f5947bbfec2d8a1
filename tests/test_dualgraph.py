"""Unit tests for the DualGraph structure and its invariants."""

import pytest

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
