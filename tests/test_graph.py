import pickle
import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chroma import Graph, build_graph, color_count, is_proper, random_graph
from chroma.graph import graph_from_endpoints
from chroma.search import _START_KEY, dsatur_start

from conftest import (brute_conflicted, brute_conflicts, colored_graphs,
                      conflict_count, conflicted_vertices, edge_lists, graphs,
                      max_degree)


class TestBuildGraph:
    def test_triangle(self, k3):
        assert k3.vertex_count == 3
        assert k3.edge_count == 3
        assert k3.neighbor_masks == (0b110, 0b101, 0b011)
        assert k3.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1)])
        assert g.edge_count == 1
        # the edges are read once, so a one-shot generator will do
        assert build_graph(4, (edge for edge in [(0, 1), (0, 1)])) == g

    @pytest.mark.parametrize("edges,edge_count,adjacency", [
        ([(0, 1), (1, 0)], 1, ((1,), (0,), (), ())),
        ([(1, 0), (0, 1), (1, 0), (3, 2), (2, 3), (0, 1), (2, 0)], 3,
         ((1, 2), (0,), (0, 3), (2,))),
    ])
    def test_reversed_duplicate_collapses(self, edges, edge_count, adjacency):
        g = build_graph(4, edges)
        assert g.edge_count == edge_count
        assert g.adjacency == adjacency

    @pytest.mark.parametrize("edges,pair", [
        ([(0, 7)], "(0, 7)"),
        ([(0, 1), (1, 0), (0, 1), (2, 5), (1, 1), (9, 0)], "(2, 5)"),
    ])
    def test_out_of_range_names_pair(self, edges, pair):
        with pytest.raises(ValueError, match=re.escape(f"edge {pair} out of range")):
            build_graph(3, edges)

    @pytest.mark.parametrize("edges,pair", [
        ([(1, 1)], "(1, 1)"),
        ([(0, 1), (1, 0), (0, 1), (2, 2), (1, 1), (0, 7)], "(2, 2)"),
    ])
    def test_self_loop_rejected(self, edges, pair):
        with pytest.raises(ValueError, match=re.escape(f"self-loop {pair}")):
            build_graph(3, edges)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            build_graph(-1, [])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.vertex_count == 0
        assert g.edge_count == 0

    @given(edge_lists(max_n=10))
    def test_invariants(self, drawn):
        n, edges = drawn
        masks = build_graph(n, edges).neighbor_masks
        for u, mask in enumerate(masks):
            assert not mask >> u & 1, "no self-loop"
            assert 0 <= mask < 1 << n
            for v in range(n):
                assert (mask >> v & 1) == (masks[v] >> u & 1), "symmetry"

    @given(edge_lists(min_n=2, max_n=10), st.randoms(use_true_random=False))
    def test_edge_order_insensitive(self, drawn, rnd):
        n, edges = drawn
        shuffled = list(edges)
        rnd.shuffle(shuffled)
        assert build_graph(n, edges) == build_graph(n, shuffled)


def reference_graph(n, edges):
    """(masks, edge count) read off a literal set of unordered pairs."""
    pairs = {frozenset(edge) for edge in edges}
    masks = tuple(sum(1 << u for u in range(n) if frozenset((u, v)) in pairs)
                  for v in range(n))
    return masks, len(pairs)


class TestNeighborMasks:
    @settings(deadline=None)
    @given(edge_lists(max_n=40))
    # duplicates in both orientations, and a vertex past the first int digit
    @example((4, [(1, 0), (0, 1), (1, 0), (3, 2), (2, 3), (0, 1), (2, 0)]))
    @example((40, [(0, 39), (39, 0), (31, 30), (30, 31), (30, 31)]))
    def test_equal_a_set_of_pairs_reference(self, drawn):
        n, edges = drawn
        g = graph_from_endpoints(n, [u for u, _ in edges], [v for _, v in edges])
        assert (g.neighbor_masks, g.edge_count) == reference_graph(n, edges)
        assert build_graph(n, edges) == g

    @staticmethod
    def assert_adjacency_view_matches(g):
        masks = g.neighbor_masks
        assert len(masks) == len(g.adjacency) == g.vertex_count
        for v, neighbors in enumerate(g.adjacency):
            assert [u for u in range(g.vertex_count) if masks[v] >> u & 1] == list(neighbors)

    @given(graphs())
    def test_bit_set_exactly_for_neighbors(self, g):
        self.assert_adjacency_view_matches(g)

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.neighbor_masks == () and g.adjacency == ()

    def test_seventy_vertices(self):
        self.assert_adjacency_view_matches(random_graph(70, 0.5, seed=4))

    def test_masks_are_the_field(self):
        g = build_graph(3, [(0, 1)])
        assert [f.name for f in fields(Graph)] == ["vertex_count", "neighbor_masks"]
        assert vars(g) == {"vertex_count": 3, "neighbor_masks": (0b010, 0b001, 0b000)}
        # equality and hashing follow the masks
        same = Graph(3, (0b010, 0b001, 0b000))
        assert same == g and hash(same) == hash(g)
        assert build_graph(3, [(1, 2)]) != g
        # the adjacency view is built on first read, then kept
        assert g.adjacency is g.adjacency == ((1,), (0,), ())

    @pytest.mark.parametrize("warm", [False, True])
    def test_equality_hash_and_pickling_ignore_the_cache(self, warm):
        g = random_graph(70, 0.3, seed=2)
        if warm:
            assert len(g.adjacency) == 70
            start = dsatur_start(g)
        fresh = random_graph(70, 0.3, seed=2)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        restored = pickle.loads(pickle.dumps(g))
        assert restored == g
        assert hash(restored) == hash(g)
        assert restored.neighbor_masks == g.neighbor_masks
        if warm:  # the DSatur start travels with the graph
            assert vars(restored)[_START_KEY] == start
        self.assert_adjacency_view_matches(restored)


class TestProperness:
    def test_distinct_triangle(self, k3):
        assert is_proper(k3, [0, 1, 2])

    def test_monochromatic_edge(self):
        g = build_graph(2, [(0, 1)])
        assert not is_proper(g, [0, 0])

    def test_length_mismatch(self, k3):
        with pytest.raises(ValueError, match="length"):
            is_proper(k3, [0, 1])
        with pytest.raises(ValueError, match="length"):
            conflict_count(k3, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="length"):
            conflicted_vertices(k3, [])


class TestConflicts:
    def test_all_monochromatic(self, k3):
        assert conflict_count(k3, [0, 0, 0]) == 3

    def test_single_conflict(self, k3):
        assert conflict_count(k3, [0, 0, 1]) == 1
        assert conflicted_vertices(k3, [0, 0, 1]) == {0, 1}

    def test_proper_has_no_conflicted(self, k3):
        assert conflicted_vertices(k3, [0, 1, 2]) == set()

    @given(colored_graphs())
    def test_matches_bruteforce_recount(self, drawn):
        _, edges, g, colors = drawn
        assert conflict_count(g, colors) == brute_conflicts(edges, colors)
        assert conflicted_vertices(g, colors) == brute_conflicted(edges, colors)

    @given(colored_graphs(max_color=3))
    def test_is_proper_matches_a_recount_of_the_raw_edges(self, drawn):
        _, edges, g, colors = drawn
        assert is_proper(g, colors) == (brute_conflicts(edges, colors) == 0)

    @given(colored_graphs())
    def test_properness_equivalences(self, drawn):
        _, _, g, colors = drawn
        proper = is_proper(g, colors)
        assert proper == (conflict_count(g, colors) == 0)
        assert proper == (not conflicted_vertices(g, colors))

    @given(colored_graphs(), st.randoms(use_true_random=False))
    def test_invariant_under_color_renaming(self, drawn, rnd):
        _, _, g, colors = drawn
        values = sorted(set(colors))
        renamed_values = list(values)
        rnd.shuffle(renamed_values)
        mapping = dict(zip(values, renamed_values))
        renamed = [mapping[c] for c in colors]
        assert conflict_count(g, renamed) == conflict_count(g, colors)

    @given(colored_graphs())
    def test_bounded_by_edge_count(self, drawn):
        _, _, g, colors = drawn
        assert conflict_count(g, colors) <= g.edge_count

    @given(edge_lists(max_n=10))
    def test_monochromatic_coloring_conflicts_everywhere(self, drawn):
        n, edges = drawn
        g = build_graph(n, edges)
        assert conflict_count(g, [0] * n) == g.edge_count


class TestColorCount:
    def test_distinct(self):
        assert color_count([0, 1, 2]) == 3

    def test_constant(self):
        assert color_count([5, 5, 5]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            color_count([])


class TestMaxDegree:
    def test_triangle(self, k3):
        assert max_degree(k3) == 2

    def test_edgeless(self):
        assert max_degree(build_graph(4, [])) == 0

    @given(edge_lists(max_n=10))
    def test_matches_direct_scan(self, drawn):
        n, edges = drawn
        g = build_graph(n, edges)
        degrees = [len(g.adjacency[v]) for v in range(n)]
        assert max_degree(g) == (max(degrees) if degrees else 0)
