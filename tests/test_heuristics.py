import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chroma.heuristics as heuristics_module
from chroma import (build_graph, chromatic_lower_bound, chromatic_number_exact,
                    color_count, dsatur, is_proper, load_instance, max_degree,
                    random_bipartite_graph, random_coloring, random_graph)
from chroma.heuristics import _clique_number

from conftest import dsjc_path, graphs


class TestRandomColoring:
    def test_single_color_forced(self, k3):
        assert random_coloring(k3, 1, seed=9) == [0, 0, 0]

    def test_deterministic_per_seed(self, k3):
        assert random_coloring(k3, 3, seed=5) == random_coloring(k3, 3, seed=5)

    def test_zero_palette_rejected(self, k3):
        with pytest.raises(ValueError):
            random_coloring(k3, 0, seed=1)

    @given(st.integers(1, 6), st.integers(0, 2**64 - 1))
    def test_colors_within_palette(self, k, seed):
        g = build_graph(5, [(0, 1), (2, 3)])
        assert all(0 <= c < k for c in random_coloring(g, k, seed))

    def test_uniform_frequencies_within_five_sigma(self):
        # 10^4 seeds x 100 vertices at k=10: per-color count is
        # Binomial(10^6, 1/10), sigma = sqrt(n p (1-p)) = 300
        g = random_graph(100, 0.1, seed=3)
        k = 10
        counts = [0] * k
        for seed in range(10_000):
            for c in random_coloring(g, k, seed):
                counts[c] += 1
        expected = 100 * 10_000 / k
        sigma = math.sqrt(100 * 10_000 * (1 / k) * (1 - 1 / k))
        for c, count in enumerate(counts):
            assert abs(count - expected) < 5 * sigma, (c, count)


class TestDsatur:
    def test_clique_needs_all_colors(self, k4):
        coloring = dsatur(k4)
        assert is_proper(k4, coloring)
        assert color_count(coloring) == 4

    def test_odd_cycle_needs_three(self, c5):
        coloring = dsatur(c5)
        assert is_proper(c5, coloring)
        assert color_count(coloring) == 3

    def test_bipartite_is_colored_exactly(self):
        for seed in range(20):
            g = random_bipartite_graph(8, 8, 0.5, seed=seed)
            coloring = dsatur(g)
            assert is_proper(g, coloring)
            assert color_count(coloring) == 2
            assert chromatic_number_exact(g)[0] == 2

    def test_edgeless_uses_one_color(self):
        g = build_graph(6, [])
        assert dsatur(g) == [0] * 6

    def test_empty_graph(self):
        assert dsatur(build_graph(0, [])) == []

    def test_deterministic(self, petersen):
        assert dsatur(petersen) == dsatur(petersen)

    @given(graphs(max_n=30))
    def test_always_proper_within_greedy_bound(self, g):
        coloring = dsatur(g)
        assert is_proper(g, coloring)
        if g.vertex_count:
            assert color_count(coloring) <= max_degree(g) + 1

    @given(graphs(min_n=1, max_n=9))
    @settings(deadline=None)
    def test_never_beats_the_chromatic_number(self, g):
        chi, _ = chromatic_number_exact(g)
        assert color_count(dsatur(g)) >= chi

    def test_proper_on_sparse_dsjc_benchmark(self):
        g = load_instance(dsjc_path("DSJC125.1")).graph
        assert is_proper(g, dsatur(g))

    def test_dense_dsjc_benchmark_respects_best_known_floor(self):
        record = load_instance(dsjc_path("DSJC125.9"))
        coloring = dsatur(record.graph)
        assert is_proper(record.graph, coloring)
        assert color_count(coloring) >= record.best_known_colors == 44


def brute_clique_number(g) -> int:
    """Largest s with an s-vertex clique, scanning s upward; cliques are
    closed under subsets, so the first size with none ends the scan."""
    adjacency = [set(a) for a in g.adjacency]

    def has_clique(size):
        return any(all(v in adjacency[u] for u, v in itertools.combinations(vs, 2))
                   for vs in itertools.combinations(range(g.vertex_count), size))

    size = 0
    while has_clique(size + 1):
        size += 1
    return size


def complete_graph(n):
    return build_graph(n, itertools.combinations(range(n), 2))


def groetzsch_graph():
    """Mycielski's graph of C5: 11 vertices, triangle-free, 4-chromatic."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    apex = [(5 + i, 10) for i in range(5)]
    return build_graph(11, cycle + shadows + apex)


class TestCliqueLowerBound:
    """The clique number, and the trivial bound above the vertex limit."""

    def test_empty_graph(self):
        assert _clique_number(build_graph(0, [])) == 0

    @pytest.mark.parametrize("n", [1, 5, 16, 17, 40])
    def test_edgeless(self, n):
        assert _clique_number(build_graph(n, [])) == 1

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_complete_graph(self, n):
        assert _clique_number(complete_graph(n)) == n

    @pytest.mark.parametrize("n", [17, 30])
    def test_an_edge_above_the_vertex_limit(self, n):
        assert chromatic_lower_bound(complete_graph(n), n) == 2

    def test_five_cycle(self, c5):
        assert _clique_number(c5) == 2

    @pytest.mark.parametrize("side", [8, 15])
    def test_bipartite(self, side):
        for seed in range(10):
            g = random_bipartite_graph(side, side, 0.5, seed=seed)
            assert g.edge_count > 0
            assert _clique_number(g) == 2

    @given(graphs(min_n=1, max_n=16))
    @settings(deadline=None)
    def test_exact_up_to_the_vertex_limit(self, g):
        omega = _clique_number(g)
        assert omega == brute_clique_number(g)
        assert omega <= chromatic_number_exact(g)[0]


class TestChromaticLowerBound:
    @pytest.mark.parametrize("n", [17, 40])
    def test_edgeless_above_the_vertex_limit(self, n):
        assert chromatic_lower_bound(build_graph(n, []), 1) == 1

    def test_five_cycle_is_exact(self, c5):
        assert chromatic_lower_bound(c5, 3) == 3

    def test_triangle_free_four_chromatic(self):
        g = groetzsch_graph()
        assert g.edge_count == 20
        assert _clique_number(g) == 2
        upper = color_count(dsatur(g))
        assert chromatic_lower_bound(g, upper) == 4

    def test_clique_reaching_upper_skips_the_exact_search(self, k4, monkeypatch):
        calls = []
        exact = heuristics_module.chromatic_number_exact
        monkeypatch.setattr(heuristics_module, "chromatic_number_exact",
                            lambda g: calls.append(g) or exact(g))
        assert chromatic_lower_bound(k4, 4) == 4
        assert calls == []
        assert chromatic_lower_bound(complete_graph(3), 4) == 3
        assert len(calls) == 1

    @given(graphs(min_n=1, max_n=16), st.data())
    @settings(deadline=None)
    def test_between_clique_and_chromatic_number(self, g, data):
        upper = data.draw(st.integers(1, g.vertex_count), label="upper")
        omega = brute_clique_number(g)
        chi = chromatic_number_exact(g)[0]
        bound = chromatic_lower_bound(g, upper)
        assert omega <= bound <= chi
        if upper > omega:
            assert bound == chi


class TestExactOracle:
    def test_triangle(self, k3):
        assert chromatic_number_exact(k3)[0] == 3

    def test_edgeless(self):
        chi, witness = chromatic_number_exact(build_graph(5, []))
        assert chi == 1
        assert witness == [0] * 5

    def test_petersen_is_three_chromatic(self, petersen):
        chi, witness = chromatic_number_exact(petersen)
        assert chi == 3
        assert is_proper(petersen, witness)
        # independent check: exhaust all 2^10 bicolorings
        for assignment in itertools.product((0, 1), repeat=10):
            assert not is_proper(petersen, list(assignment))

    def test_witness_is_proper_and_tight(self, k4):
        chi, witness = chromatic_number_exact(k4)
        assert chi == 4
        assert is_proper(k4, witness)
        assert color_count(witness) == chi

    def test_refuses_large_graphs(self):
        g = build_graph(17, [])
        with pytest.raises(ValueError, match="refuses 17"):
            chromatic_number_exact(g)
        assert chromatic_number_exact(g, limit=17)[0] == 1

    @given(graphs(min_n=2, max_n=8), st.data())
    @settings(deadline=None)
    def test_monotone_under_edge_addition(self, g, data):
        non_edges = [
            (u, v)
            for u in range(g.vertex_count)
            for v in range(u + 1, g.vertex_count)
            if v not in g.adjacency[u]
        ]
        assume(non_edges)
        u, v = data.draw(st.sampled_from(non_edges))
        edges = [(a, b) for a in range(g.vertex_count) for b in g.adjacency[a] if a < b]
        bigger = build_graph(g.vertex_count, edges + [(u, v)])
        assert chromatic_number_exact(bigger)[0] >= chromatic_number_exact(g)[0]
