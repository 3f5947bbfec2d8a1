"""Unit tests for the paper-specific network constructions."""

import pytest

from repro.graphs import (
    clique_bridge,
    layered_pairs,
    pivot_layers,
    pivot_layers_for_n,
)


class TestCliqueBridge:
    def test_roles(self):
        layout = clique_bridge(8)
        g = layout.graph
        assert g.n == 8
        assert layout.source == 0
        assert layout.receiver == 7
        assert layout.bridge in layout.clique
        assert layout.receiver not in layout.clique

    def test_receiver_reachable_only_through_bridge(self):
        layout = clique_bridge(8)
        g = layout.graph
        r = layout.receiver
        assert {u for u in g.nodes if r in g.reliable_out(u)} == {
            layout.bridge
        }

    def test_two_broadcastable(self):
        layout = clique_bridge(8)
        assert layout.graph.source_eccentricity == 2

    def test_g_prime_complete(self):
        layout = clique_bridge(6)
        g = layout.graph
        for v in g.nodes:
            assert g.all_out(v) == frozenset(set(g.nodes) - {v})

    def test_clique_is_complete(self):
        layout = clique_bridge(7)
        g = layout.graph
        for u in layout.clique:
            assert set(layout.clique) - {u} <= set(g.reliable_out(u))

    def test_custom_bridge_position(self):
        layout = clique_bridge(8, bridge=3)
        assert layout.bridge == 3
        g, r = layout.graph, layout.receiver
        assert {u for u in g.nodes if r in g.reliable_out(u)} == {3}

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            clique_bridge(2)

    def test_bridge_cannot_be_source_or_receiver(self):
        with pytest.raises(ValueError):
            clique_bridge(8, bridge=0)
        with pytest.raises(ValueError):
            clique_bridge(8, bridge=7)


class TestLayeredPairs:
    def test_layer_structure(self):
        layout = layered_pairs(9)
        assert layout.layers == ((0,), (1, 2), (3, 4), (5, 6), (7, 8))
        assert layout.num_layers == 5

    def test_complete_layered_reliable_graph(self):
        layout = layered_pairs(9)
        g = layout.graph
        # Within-layer edge.
        assert 2 in g.reliable_out(1)
        # Consecutive layers fully connected.
        assert {3, 4} <= set(g.reliable_out(1))
        # Non-consecutive layers not reliably connected.
        assert 5 not in g.reliable_out(1)

    def test_g_prime_complete(self):
        layout = layered_pairs(9)
        g = layout.graph
        assert 8 in g.all_out(0)

    def test_odd_n_required(self):
        with pytest.raises(ValueError):
            layered_pairs(8)
        with pytest.raises(ValueError):
            layered_pairs(3)

    def test_eccentricity_is_layer_count(self):
        layout = layered_pairs(11)
        assert layout.graph.source_eccentricity == layout.num_layers - 1


class TestPivotLayers:
    def test_shape(self):
        layout = pivot_layers(4, 3)
        assert layout.graph.n == 1 + 3 * 3
        assert layout.num_layers == 4
        assert layout.width == 3

    def test_reliable_edges_leave_through_pivot_only(self):
        layout = pivot_layers(3, 3)
        g = layout.graph
        pivot = layout.layers[1][0]
        non_pivot = layout.layers[1][1]
        assert set(g.reliable_out(pivot)) == set(layout.layers[2])
        assert g.reliable_out(non_pivot) == frozenset()

    def test_blanket_unreliable_edges(self):
        layout = pivot_layers(3, 2)
        g = layout.graph
        non_pivot = layout.layers[1][1]
        # Unreliable edges to every later layer.
        assert set(layout.layers[2]) <= set(g.all_out(non_pivot))

    def test_directed(self):
        assert not pivot_layers(3, 2).graph.is_undirected

    def test_all_reachable(self):
        layout = pivot_layers(5, 4)
        g = layout.graph
        assert all(g.distance_from_source(v) is not None for v in g.nodes)

    def test_eccentricity_matches_layers(self):
        layout = pivot_layers(5, 4)
        assert layout.graph.source_eccentricity == 4

    def test_for_n_sizes(self):
        layout = pivot_layers_for_n(100)
        assert layout.graph.n >= 100
        assert abs(layout.width - 10) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pivot_layers(1, 3)
        with pytest.raises(ValueError):
            pivot_layers(3, 0)
