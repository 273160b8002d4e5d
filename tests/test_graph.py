import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import GraphError, build_graph, color_count, is_proper, random_graph

from conftest import (brute_conflicted, brute_conflicts, colored_graphs,
                      conflict_count, conflicted_vertices, edge_lists, graphs,
                      max_degree)


class TestBuildGraph:
    def test_triangle(self, k3):
        assert k3.vertex_count == 3
        assert k3.edge_count == 3
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
        with pytest.raises(GraphError, match=re.escape(f"edge {pair} out of range")):
            build_graph(3, edges)

    @pytest.mark.parametrize("edges,pair", [
        ([(1, 1)], "(1, 1)"),
        ([(0, 1), (1, 0), (0, 1), (2, 2), (1, 1), (0, 7)], "(2, 2)"),
    ])
    def test_self_loop_rejected(self, edges, pair):
        with pytest.raises(GraphError, match=re.escape(f"self-loop {pair}")):
            build_graph(3, edges)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            build_graph(-1, [])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.vertex_count == 0
        assert g.edge_count == 0

    @given(edge_lists(max_n=10))
    def test_invariants(self, drawn):
        n, edges = drawn
        g = build_graph(n, edges)
        for u, neighbors in enumerate(g.adjacency):
            assert list(neighbors) == sorted(set(neighbors)), "sorted, no duplicates"
            assert u not in neighbors
            for v in neighbors:
                assert u in g.adjacency[v], "symmetry"
        assert g.edge_count * 2 == sum(len(a) for a in g.adjacency)

    @given(edge_lists(min_n=2, max_n=10), st.randoms(use_true_random=False))
    def test_edge_order_insensitive(self, drawn, rnd):
        n, edges = drawn
        shuffled = list(edges)
        rnd.shuffle(shuffled)
        assert build_graph(n, edges) == build_graph(n, shuffled)


class TestNeighborMasks:
    @staticmethod
    def assert_masks_match(g):
        masks = g.neighbor_masks
        assert len(masks) == g.vertex_count
        for v, neighbors in enumerate(g.adjacency):
            assert [u for u in range(g.vertex_count) if masks[v] >> u & 1] == list(neighbors)

    @given(graphs())
    def test_bit_set_exactly_for_neighbors(self, g):
        self.assert_masks_match(g)

    def test_empty_graph(self):
        assert build_graph(0, []).neighbor_masks == ()

    def test_seventy_vertices(self):
        self.assert_masks_match(random_graph(70, 0.5, seed=4))

    def test_built_lazily_and_cached(self):
        g = random_graph(20, 0.5, seed=1)
        assert "neighbor_masks" not in vars(g)
        assert g.neighbor_masks is g.neighbor_masks

    @pytest.mark.parametrize("built", [False, True])
    def test_equality_hash_and_pickling_ignore_the_cache(self, built):
        g = random_graph(70, 0.3, seed=2)
        if built:
            assert len(g.neighbor_masks) == 70
        fresh = random_graph(70, 0.3, seed=2)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        restored = pickle.loads(pickle.dumps(g))
        assert restored == g
        assert hash(restored) == hash(g)
        self.assert_masks_match(restored)


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
