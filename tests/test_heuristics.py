import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chroma.heuristics as heuristics_module
from chroma import (build_graph, chromatic_lower_bound, chromatic_number_exact,
                    color_count, dsatur, is_proper, load_instance, random_graph)
from chroma.heuristics import _clique_number

from conftest import (dsjc_path, graphs, hub_graphs, max_degree,
                      random_bipartite_graph)


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

    # graphs where most choices are ties, broken by the lowest index
    def test_complete(self):
        assert dsatur(complete_graph(5)) == [0, 1, 2, 3, 4]

    def test_even_cycle(self):
        assert dsatur(cycle_graph(6)) == [0, 1, 0, 1, 0, 1]

    def test_odd_cycle(self):
        assert dsatur(cycle_graph(7)) == [0, 1, 0, 1, 0, 1, 2]

    def test_petersen(self, petersen):
        assert dsatur(petersen) == [0, 1, 0, 1, 2, 1, 0, 2, 2, 1]

    def test_complete_bipartite(self):
        g = build_graph(7, [(u, v) for u in range(3) for v in range(3, 7)])
        assert dsatur(g) == [0, 0, 0, 1, 1, 1, 1]

    def test_saturation_outranks_a_degree_gap_above_half_of_n(self):
        # after vertex 0, saturated 1 (uncolored degree 1) must come before
        # unsaturated 3 (uncolored degree 6 of n = 9); 3 first gives [0, 1, 2, 0, 1, ...]
        rest = range(4, 9)
        g = build_graph(9, [(0, 1), (1, 2), (2, 3)] + [(0, v) for v in rest]
                        + [(3, v) for v in rest])
        assert dsatur(g) == [0, 1, 0, 1, 2, 2, 2, 2, 2]

    @given(graphs(max_n=30))
    def test_uses_exactly_the_first_k_colors(self, g):
        coloring = dsatur(g)
        assert set(coloring) == set(range(color_count(coloring)))

    @given(graphs(max_n=30))
    def test_matches_the_rule_read_literally(self, g):
        assert dsatur(g) == reference_dsatur(g)

    @given(hub_graphs())
    def test_matches_the_rule_across_large_degree_gaps(self, g):
        # random graphs rarely leave a saturated vertex more than n / 2 below
        # an unsaturated one in uncolored degree; hub pairs do
        assert dsatur(g) == reference_dsatur(g)


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


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def groetzsch_graph():
    """Mycielski's graph of C5: 11 vertices, triangle-free, 4-chromatic."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    apex = [(5 + i, 10) for i in range(5)]
    return build_graph(11, cycle + shadows + apex)


# sha256 of repr(dsatur(random_graph(n, p, seed))), recorded when each vertex
# still kept a set of its neighbors' colors and the next vertex was picked by
# a hand-written scan. A change of any DSatur choice shows here.
DSATUR_GOLDEN = {
    (1, 0.5, 1): "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
    (2, 0.1, 1): "ab395cb4c41927dc03d8d0b9e1de32ba2761d97d7d85b9c89fc54ae3591dc0e1",
    (2, 0.5, 1): "923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836",
    (9, 0.1, 1): "6c881ba7ea2a6db6d3f747afefdbf5ef53568159672b07a6cfc3c9afafe3a4a0",
    (9, 0.1, 2): "fa18dd5de87c98a0f49804f954d167a5271f9b4980dd21b5866767d051e6ce58",
    (9, 0.5, 1): "48444ae2efed5bc45e24b894fcb9172150a4ac543f16ad099b0bc6fbe30863a4",
    (9, 0.5, 2): "6275d6707595c6e8ff0f84c9687027384b5959a6768cac421dd58444a2a9a36b",
    (9, 0.9, 1): "bf74cece01af8149566ed03c88a0385a5dffaad73666e6adb6d045d6a233abc5",
    (9, 0.9, 2): "b17fdb37347c230ac6da2b72de0c15ba1ff507c19a7ff0d4c994bd7b16137d6f",
    (30, 0.1, 1): "897ac9ca8c8dacfbb3963a24df3b68dd3653b2097ec2655cc4f06e44635a3e68",
    (30, 0.1, 2): "f725b86de4ce71d2aee313a9e2b88fe3431197d615d14347d2946dbfc4081563",
    (30, 0.5, 1): "ba4bfe4f5ef461307d17bd6cf53860946f46fdad48b6ab74bf090dc124aaa6b5",
    (30, 0.5, 2): "07af74bd78a5ea5f7a0e367f14846bd51d55997bedff0eddc866fb81df47228c",
    (30, 0.9, 1): "e13017178410a37e39489799bd1564147fddb6002ddac3dea20d0127cd3c5dc7",
    (30, 0.9, 2): "2770a958365a1eea490cc989e56b0362f8025e58a85b4cca192a34ea0b1550ee",
    (125, 0.1, 1): "9121ee22dfc8c76c2f61e699e41edad1c5d971569f46f5e3facf2061adfea6e9",
    (125, 0.1, 2): "18f9b537da798924516d075a5186866892f8a8761aef7d20dbcb795b6cbd7fef",
    (125, 0.5, 1): "7c522251334a0a7701bdae5a9d540bad17369da18a39cfe5dd59947429b97cb5",
    (125, 0.5, 2): "e7ece733f29543f46a06bbde317f50d4f0ba0a6b4973eb475006cc74e7676203",
    (125, 0.9, 1): "e7c5733c052abfab220f3e7fb006727f37e71704f5327e5c976948c5ebd52b49",
    (125, 0.9, 2): "ba625adee7247241a289d21ca827c4a21e49906a9285bdf1a41e7885e6167776",
    (250, 0.1, 1): "1af1b8afb9eed5113700305ccbaed55f60135e104bf11bc7d7d4d5eb4a56502d",
    (250, 0.1, 2): "316cd448e9f63cf1b65a88b112e5ebfd37d6915858577ebb2efc0c6e3e3d9a4c",
    (250, 0.5, 1): "6de2db8e7e7a46b843be591048508975acbd2d176e19f8abe653adc3f8f148e5",
    (250, 0.5, 2): "65fccca5fe4b1123ee34699845e6d6d446bfb382bbcc60bbc81fb49f91ee497e",
    (250, 0.9, 1): "bdbcb7e0c36ec57b6e82d34c1014172dafc2d929559c72e5dd5639ba3c4ac9cd",
    (250, 0.9, 2): "1a0ce1c819acdf7489577842b67c5d08eb280a97391922069824cad6b12a5bc4",
}


class TestDsaturGolden:
    @pytest.mark.parametrize("n, p, seed", sorted(DSATUR_GOLDEN))
    def test_random_graph(self, n, p, seed):
        coloring = dsatur(random_graph(n, p, seed))
        digest = hashlib.sha256(repr(coloring).encode()).hexdigest()
        assert digest == DSATUR_GOLDEN[n, p, seed]


def reference_dsatur(g):
    """Brelaz's rule, recounted at every step: the uncolored vertex with the
    most distinct neighbor colors, then the most uncolored neighbors, then
    the lowest index, takes the smallest color no neighbor has."""
    colors = [-1] * g.vertex_count

    def rank(v):
        neighbor_colors = {colors[u] for u in g.adjacency[v]} - {-1}
        uncolored_degree = sum(colors[u] < 0 for u in g.adjacency[v])
        return len(neighbor_colors), uncolored_degree, -v

    for _ in range(g.vertex_count):
        v = max((v for v, c in enumerate(colors) if c < 0), key=rank)
        used = {colors[u] for u in g.adjacency[v]}
        colors[v] = next(c for c in itertools.count() if c not in used)
    return colors


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
