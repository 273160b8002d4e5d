import math
import pickle
import random
from collections import deque
from dataclasses import FrozenInstanceError, asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chroma.search as search_module
from chroma import (METHODS, Graph, SearchOutcome, SolverParams, VirtualClock,
                    WallClock, build_graph, chromatic_lower_bound,
                    chromatic_number_exact, color_count, dsatur, hill_climbing,
                    is_proper, iterated_local_search, project_coloring,
                    random_graph, simulated_annealing, solve_k_reduction,
                    tabu_search)

from conftest import (colored_graphs, conflict_count, conflicted_vertices, graphs,
                      reference_climb, reference_descent, reference_draw_move,
                      reference_kick, reference_ts_sample, spy_accepted_conflicts)


def params(**overrides) -> SolverParams:
    return SolverParams(**overrides)


class TestSolverParams:
    def test_defaults_are_the_published_configuration(self):
        # every field, so a knob added beside the published settings shows here
        assert asdict(params()) == {
            "hc_iterations": 5000, "sa_iterations": 10000,
            "sa_decrement": 0.005, "ts_iterations": 10, "ts_tabu_length": 20,
            "ts_num_tweaks": 10, "ils_inner_seconds": 10.0,
            "ils_total_seconds": 100.0, "wall_budget_seconds": 600.0,
        }

    def test_every_field_is_a_number(self):
        assert set(search_module.PARAM_TYPES.values()) == {int, float}

    def test_frozen(self):
        p = params()
        with pytest.raises(FrozenInstanceError):
            p.hc_iterations = 1
        assert p == params()

    @pytest.mark.parametrize("bad", [
        {"hc_iterations": 0},
        {"ts_tabu_length": 0},
        {"sa_decrement": 0.0},
        {"wall_budget_seconds": -1.0},
        {"ils_inner_seconds": 20.0, "ils_total_seconds": 10.0},
        {"wall_budget_seconds": float("nan")},
        {"wall_budget_seconds": float("inf")},
        {"sa_decrement": float("nan")},
        {"ils_inner_seconds": float("nan")},
        {"ils_total_seconds": float("inf")},
        {"hc_iterations": float("nan")},
        {"sa_iterations": 100.0},
        {"ts_iterations": 2.5},
        {"ts_tabu_length": True},
        {"ts_num_tweaks": float("inf")},
        {"ts_num_tweaks": "10"},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            params(**bad)


class TestTweak:
    """The move every search draws (reference_draw_move, which the kernels
    match draw for draw: see TestMoveKernel), on the triangle."""

    @staticmethod
    def draw(g, colors, k, rng):
        return reference_draw_move(rng, colors, k, sorted(conflicted_vertices(g, colors)))

    def test_changes_exactly_one_conflicted_vertex(self, k3):
        rng = random.Random(0)
        for _ in range(50):
            v, new = self.draw(k3, [0, 0, 1], 3, rng)
            assert v in {0, 1}, "vertex 2 is not conflicted"
            assert new != [0, 0, 1][v]

    def test_proper_coloring_changes_any_single_vertex(self, k3):
        rng = random.Random(1)
        seen = set()
        for _ in range(50):
            v, new = self.draw(k3, [0, 1, 2], 3, rng)
            assert new != [0, 1, 2][v]
            seen.add(v)
        assert seen == {0, 1, 2}

    def test_new_color_always_differs_and_fits_palette(self, k3):
        rng = random.Random(2)
        colors = [0, 0, 1]
        for _ in range(200):
            v, new = self.draw(k3, colors, 4, rng)
            assert new != colors[v]
            assert 0 <= new < 4

    def test_needs_two_colors(self, k3):
        with pytest.raises(ValueError):
            self.draw(k3, [0, 0, 0], 1, random.Random(0))

    def test_uniform_over_conflicted_vertices_and_colors(self, k3):
        # fixed input [0,0,1]: conflicted {0,1}, each with 2 alternative colors
        # at k=3, so each (vertex, color) pair has probability 1/4
        rng = random.Random(3)
        samples = 100_000
        counts: dict[tuple[int, int], int] = {}
        base = [0, 0, 1]
        for _ in range(samples):
            move = self.draw(k3, base, 3, rng)
            counts[move] = counts.get(move, 0) + 1
        assert set(v for v, _ in counts) == {0, 1}
        assert all(new != base[v] for v, new in counts)
        expected = samples / 4
        sigma = (samples * 0.25 * 0.75) ** 0.5
        for pair, count in counts.items():
            assert abs(count - expected) < 5 * sigma, (pair, count)


@st.composite
def recolorings(draw):
    """(graph, k, initial coloring, moves); each move recolors a vertex to a
    color other than the one it has at that point."""
    g = draw(graphs())
    n = g.vertex_count
    k = draw(st.integers(2, 6))
    top = draw(st.sampled_from((k - 1, k - 2)))  # k - 2: color k - 1 starts unused
    colors = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 2)),
                          max_size=40))
    return g, k, colors, moves


class TestConflictState:
    """_ConflictState against a from-scratch recount after every move."""

    @staticmethod
    def assert_recounted(state, g, k, recount_moves=True):
        """Check classes, own, total, conflicted and every move's cost, as
        the search kernels compute it from masks, classes and own. Each cost
        is checked against a recount of the moved coloring, or with
        `recount_moves` false, against v's neighbors counted by color."""
        colors = state.colors
        classes = [0] * k
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        assert state.classes == classes
        by_color = [[0] * k for _ in range(g.vertex_count)]
        for v, neighbors in enumerate(g.adjacency):
            for u in neighbors:
                by_color[v][colors[u]] += 1
        assert state.own == [row[c] for row, c in zip(by_color, colors)]
        assert state.total == conflict_count(g, colors)
        assert state.conflicted == sorted(conflicted_vertices(g, colors))
        base = state.total
        for v in range(g.vertex_count):
            for c in range(k):
                if c != colors[v]:
                    if recount_moves:
                        moved = colors[:v] + [c] + colors[v + 1:]
                        expected = conflict_count(g, moved) - base
                    else:
                        expected = by_color[v][c] - by_color[v][colors[v]]
                    cost = (state.masks[v] & state.classes[c]).bit_count() - state.own[v]
                    assert cost == expected, (v, c)

    @settings(deadline=None)
    @given(recolorings())
    def test_matches_recount_after_every_apply(self, case):
        g, k, colors, moves = case
        state = search_module._ConflictState(g, k, colors)
        self.assert_recounted(state, g, k)
        for v, r in moves:
            old = state.colors[v]
            state.apply(v, r if r < old else r + 1)
            self.assert_recounted(state, g, k)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_recount_above_one_bigint_digit(self, p):
        # 70 vertices: masks and classes span three of CPython's 30-bit digits
        g = random_graph(70, p, seed=3)
        k = 6
        rng = random.Random(int(p * 10))
        state = search_module._ConflictState(
            g, k, [rng.randrange(k) for _ in range(g.vertex_count)])
        self.assert_recounted(state, g, k, recount_moves=False)
        for _ in range(200):
            v = rng.randrange(g.vertex_count)
            r = rng.randrange(k - 1)
            old = state.colors[v]
            state.apply(v, r if r < old else r + 1)
            self.assert_recounted(state, g, k, recount_moves=False)


K4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K23 = build_graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])


@st.composite
def search_cases(draw):
    """(graph, k from 2 to 5, initial coloring, seed)."""
    g = draw(graphs(min_n=2))
    k = draw(st.integers(2, 5))
    n = g.vertex_count
    init = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return g, k, init, draw(st.integers(0, 2**32))


def run_recorded(search, g, k, init, p, seed, **kwargs):
    """(outcome, conflicts after each accepted move) of one run under a fresh
    virtual clock."""
    with pytest.MonkeyPatch.context() as mp:
        accepted = spy_accepted_conflicts(mp)
        out = search(g, k, init, p, seed, clock=VirtualClock(), **kwargs)
    return out, accepted


def reference_tabu_search(g, k, init, p, seed):
    """tabu_search read literally around reference_ts_sample, with each
    candidate fingerprinted exactly, as the tuple of its colors; returns what
    run_recorded does."""
    clock = VirtualClock()
    rng = random.Random(seed)
    clock.tick()  # the initial coloring's evaluation
    colors = list(init)
    best, best_conf = list(colors), conflict_count(g, colors)
    tabu = deque(maxlen=p.ts_tabu_length)
    evals = 1
    accepted = []
    for _ in range(p.ts_iterations):
        if best_conf == 0:
            break
        chosen = reference_ts_sample(g, k, colors, rng, clock, p.ts_num_tweaks,
                                     tuple, tabu)
        evals += p.ts_num_tweaks
        if chosen is None:
            continue
        conf, colors, fp = chosen
        tabu.append(fp)
        if conf < best_conf:
            best, best_conf = list(colors), conf
        accepted.append(conf)
    return SearchOutcome(best, best_conf, evals, clock.now()), accepted


def reference_iterated_local_search(g, k, init, p, seed, deadline=math.inf):
    """iterated_local_search read literally from its docstring around
    reference_descent and reference_kick, with every coloring's conflicts
    recounted; returns what run_recorded does. Each climb's start is
    counted as one evaluation, the first climb's too."""
    clock = VirtualClock()
    rng = random.Random(seed)
    clock.tick()  # the initial coloring's evaluation
    evals = 1
    accepted = []
    home, home_conf = list(init), conflict_count(g, init)
    stop_at = min(p.ils_total_seconds, deadline)
    first = True
    while home_conf > 0 and clock.now() < stop_at:
        # the first climb starts from init itself, each later one from a kick
        start = list(init) if first else reference_kick(home, k, rng)
        first = False
        inner_stop = min(clock.now() + p.ils_inner_seconds, deadline)
        clock.tick()
        evals += 1
        best, best_conf, moves = reference_descent(g, k, start, accepted, rng=rng,
                                                   clock=clock, stop_at=inner_stop)
        evals += moves
        if best_conf < home_conf:
            home, home_conf = best, best_conf
    return SearchOutcome(home, home_conf, evals, clock.now()), accepted


class TestMoveKernel:
    """The inline move kernels of _climb and tabu_search, and ILS's driver
    around _climb, against references that draw with rng.randrange and
    recount every move's cost: the same coloring, conflicts, evaluations,
    elapsed time and conflicts after each accepted move. k = 2 is included,
    where each color draw is randrange(1), one bit."""

    @staticmethod
    def assert_climb_matches(search, case, p, **kwargs):
        g, k, init, seed = case
        kernel = run_recorded(search, g, k, init, p, seed, **kwargs)
        accepted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_climb", reference_climb(g, accepted))
            out = search(g, k, init, p, seed, clock=VirtualClock(), **kwargs)
        assert kernel == (out, accepted)

    @settings(deadline=None)
    @given(search_cases(), st.sampled_from((math.inf, 0.15)))
    # K4 at k = 3 never gets below one conflict, and plateau moves leave it
    # there, so the best coloring is not the final one; a deadline of 150
    # evaluations cuts the 300-move run, so the stop test's reading of the
    # time that tick returns is compared too
    @example((K4, 3, [0] * 4, 0), math.inf)
    @example((K4, 3, [0] * 4, 0), 0.15)
    def test_hill_climbing(self, case, deadline):
        self.assert_climb_matches(hill_climbing, case, params(hc_iterations=300),
                                  deadline=deadline)

    @settings(deadline=None)
    @given(search_cases())
    def test_simulated_annealing(self, case):
        # from 2.0, hot enough to accept worsening moves; the temperature then
        # reaches zero on the last move
        self.assert_climb_matches(simulated_annealing, case,
                                  params(sa_iterations=300, sa_decrement=2 / 300))

    @settings(deadline=None)
    @given(search_cases(), st.sampled_from((math.inf, 0.15)))
    def test_iterated_local_search(self, case, deadline):
        # a 20-evaluation climb window in a 200-evaluation run: several
        # kicked climbs, and a deadline of 150 cuts the last ones
        g, k, init, seed = case
        p = params(ils_inner_seconds=0.02, ils_total_seconds=0.2)
        assert (run_recorded(iterated_local_search, g, k, init, p, seed, deadline=deadline)
                == reference_iterated_local_search(g, k, init, p, seed, deadline))

    @settings(deadline=None)
    @given(search_cases(), st.integers(1, 12), st.integers(1, 12))
    # K4 at k = 2 never reaches zero conflicts; on these two runs a tabu list
    # one entry longer than ts_tabu_length changes the trajectory
    @example((K4, 2, [0] * 4, 0), 5, 10)
    @example((K4, 2, [0] * 4, 4), 3, 10)
    # K2,3 at k = 2 from one color, seed 11: in the fourth sample the
    # cheapest candidate is tabu and drawn before the costlier one chosen
    @example((K23, 2, [0] * 5, 11), 3, 3)
    def test_tabu_search(self, case, tabu_length, num_tweaks):
        g, k, init, seed = case
        p = params(ts_iterations=40, ts_tabu_length=tabu_length, ts_num_tweaks=num_tweaks)
        assert (run_recorded(tabu_search, g, k, init, p, seed)
                == reference_tabu_search(g, k, init, p, seed))


class TestProjectColoring:
    def test_identity_when_within_palette(self, k3):
        assert project_coloring(k3, [0, 1, 2], 3) == [0, 1, 2]

    def test_least_conflicting_reassignment(self):
        # star center colored out of palette: must take the color absent
        # among its leaves
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert project_coloring(g, [5, 0, 0, 1], 2) == [1, 0, 0, 1]

    def test_tie_goes_to_lowest_color(self):
        g = build_graph(3, [(0, 1), (0, 2)])
        # both palette colors conflict once: lowest index wins
        assert project_coloring(g, [2, 0, 1], 2) == [0, 0, 1]

    @given(colored_graphs(), st.integers(1, 6))
    def test_matches_the_docstring_read_literally(self, drawn, k):
        # each vertex colored >= k, in index order, takes the palette color
        # held by the fewest of its neighbors as they are colored by then,
        # counted off the raw edge list; the lowest such color on a tie
        n, edges, g, colors = drawn
        neighbors = [set() for _ in range(n)]
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        expected = list(colors)
        for v in range(n):
            if expected[v] >= k:
                counts = [sum(expected[u] == c for u in neighbors[v]) for c in range(k)]
                expected[v] = min(range(k), key=lambda c: (counts[c], c))
        assert project_coloring(g, colors, k) == expected

    @given(graphs(min_n=1, max_n=10), st.integers(1, 4))
    def test_result_always_within_palette(self, g, k):
        colors = dsatur(g)
        projected = project_coloring(g, colors, k)
        assert all(0 <= c < k for c in projected)
        assert len(projected) == g.vertex_count


def _hc_move_states(state, k):
    """Neighbor states via single-vertex recoloring of a conflicted vertex
    (or any vertex when proper), as the move operator generates them."""
    g, colors = state
    conflicted = sorted(conflicted_vertices(g, list(colors)))
    vertices = conflicted if conflicted else range(len(colors))
    for v in vertices:
        for c in range(k):
            if c != colors[v]:
                yield colors[:v] + (c,) + colors[v + 1:]


def _reachable_proper(g, k, start, monotone: bool) -> bool:
    """BFS over the move graph; `monotone` restricts to non-worsening moves."""
    start = tuple(start)
    seen = {start}
    queue = deque([start])
    while queue:
        colors = queue.popleft()
        base = conflict_count(g, list(colors))
        if base == 0:
            return True
        for nxt in _hc_move_states((g, colors), k):
            if nxt in seen:
                continue
            if monotone and conflict_count(g, list(nxt)) > base:
                continue
            seen.add(nxt)
            queue.append(nxt)
    return False


class TestHillClimbing:
    def test_proper_init_returns_immediately(self, k3):
        out = hill_climbing(k3, 3, [0, 1, 2], params(), seed=1)
        assert out.conflicts == 0
        assert out.coloring == [0, 1, 2]
        assert out.evaluations == 1

    def test_zero_budget_returns_init_with_conflicts(self, k3):
        clock = WallClock()
        out = hill_climbing(k3, 3, [0, 0, 0], params(), seed=1,
                            clock=clock, deadline=clock.now())
        assert out.coloring == [0, 0, 0]
        assert out.conflicts == 3
        assert out.evaluations == 1

    def test_virtual_deadline_stops_at_the_first_move_past_it(self, k3):
        # k = 2 on a triangle never solves; 1 ms per evaluation, so the run
        # stops at the first evaluation count at or past 49.5
        clock = VirtualClock()
        out = hill_climbing(k3, 2, [0, 0, 0], params(hc_iterations=1000), seed=1,
                            clock=clock, deadline=0.0495)
        assert out.evaluations == clock.evaluations == 50
        assert out.elapsed_seconds == 50 * 0.001

    def test_solves_triangle_from_monochromatic(self, k3):
        # the non-worsening move graph provably reaches a proper state
        assert _reachable_proper(k3, 3, [0, 0, 0], monotone=True)
        out = hill_climbing(k3, 3, [0, 0, 0], params(hc_iterations=100), seed=4)
        assert out.conflicts == 0
        assert is_proper(k3, out.coloring)

    def test_accepted_conflicts_never_increase(self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)
        hill_climbing(g, 3, [0] * 15, params(), seed=2)
        accepted = accepted_conflicts
        assert accepted, "expected some accepted moves"
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))

    def test_returned_best_bounds_all_accepted_states(self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)
        out = hill_climbing(g, 3, [0] * 15, params(), seed=2)
        assert out.conflicts <= min(accepted_conflicts)
        assert out.conflicts == conflict_count(g, out.coloring)

    def test_deterministic(self):
        g = random_graph(20, 0.4, seed=5)
        a = hill_climbing(g, 4, [0] * 20, params(), seed=11)
        b = hill_climbing(g, 4, [0] * 20, params(), seed=11)
        assert a.coloring == b.coloring
        assert a.evaluations == b.evaluations
        assert a.conflicts == b.conflicts

    def test_rejects_tiny_palette_and_bad_init(self, k3):
        with pytest.raises(ValueError):
            hill_climbing(k3, 1, [0, 0, 0], params(), seed=1)
        with pytest.raises(ValueError):
            hill_climbing(k3, 3, [0, 0], params(), seed=1)

    @pytest.mark.parametrize("init", [[0, 1, 3], [0, -1, 2]])
    def test_rejects_init_outside_palette(self, k3, init):
        for search in (hill_climbing, simulated_annealing, tabu_search,
                       iterated_local_search):
            with pytest.raises(ValueError, match="outside 0..2"):
                search(k3, 3, init, params(), seed=1)


class TestSimulatedAnnealing:
    def test_zero_temperature_trajectory_equals_plateau_hill_climbing(
            self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)

        def climb(**kwargs):
            accepted_conflicts.clear()
            state = search_module._ConflictState(g, 3, [0] * 15)
            result = search_module._climb(
                3, state, rng=random.Random(21), clock=VirtualClock(),
                iterations=5000, **kwargs)
            return result, list(accepted_conflicts)

        # 1.0 - i * 1.0 is zero from move 1 on
        assert climb(t_initial=1.0, decrement=1.0) == climb()

    def test_a_worsening_move_draws_a_random_number_only_while_t_is_positive(self):
        # every move of vertex 0 or 1, the conflicted pair, gains a conflict,
        # and at these temperatures none is accepted, so the state never
        # changes; t = (3 - i) * 2**-60 is exact and positive at moves 1 and 2
        g = build_graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                             (1, 6), (1, 7), (1, 8), (1, 9)])
        state = search_module._ConflictState(g, 3, [0, 0, 1, 1, 2, 2, 1, 1, 2, 2])
        rng = random.Random(21)
        draws = []
        real_random = rng.random
        rng.random = lambda: draws.append(1) or real_random()
        _, conflicts, moves = search_module._climb(
            3, state, rng=rng, clock=VirtualClock(), iterations=6,
            t_initial=3 * 2.0 ** -60, decrement=2.0 ** -60)
        assert (conflicts, moves, len(draws)) == (1, 6, 2)

    def test_tiny_positive_temperature_never_accepts_worse(self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)
        simulated_annealing(g, 3, [0] * 15, params(sa_decrement=1e-300), seed=3)
        accepted = accepted_conflicts
        assert accepted, "expected some accepted moves"
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))

    def test_high_temperature_accepts_worsening_moves(self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)
        simulated_annealing(g, 3, [0] * 15, params(sa_iterations=300, sa_decrement=1e7),
                            seed=3)
        accepted = accepted_conflicts
        assert any(b > a for a, b in zip(accepted, accepted[1:])), \
            "near-infinite temperature should accept worsening moves"

    def test_best_ever_returned_not_final_state(self, accepted_conflicts):
        g = random_graph(15, 0.5, seed=8)
        out = simulated_annealing(g, 3, [0] * 15,
                                  params(sa_iterations=300, sa_decrement=1e7), seed=3)
        accepted = accepted_conflicts
        assert out.conflicts == conflict_count(g, out.coloring)
        assert out.conflicts <= min(accepted)
        assert out.conflicts < accepted[-1], \
            "a pure random walk should end above its best-ever state"

    def test_proper_init_returns_immediately(self, k3):
        out = simulated_annealing(k3, 3, [0, 1, 2], params(), seed=1)
        assert out.conflicts == 0
        assert out.evaluations == 1

    def test_deterministic(self):
        g = random_graph(20, 0.4, seed=5)
        a = simulated_annealing(g, 4, [0] * 20, params(), seed=11)
        b = simulated_annealing(g, 4, [0] * 20, params(), seed=11)
        assert (a.coloring, a.evaluations) == (b.coloring, b.evaluations)


class TestTabuSearch:
    def test_solves_triangle_from_monochromatic(self, k3):
        # a proper 3-coloring is reachable through unrestricted single moves
        assert _reachable_proper(k3, 3, [0, 0, 0], monotone=False)
        out = tabu_search(k3, 3, [0, 0, 0], params(), seed=1)
        assert out.conflicts == 0
        assert is_proper(k3, out.coloring)

    def test_all_tabu_iterations_make_no_move(self, k3, accepted_conflicts):
        # K3 at k=2 has 8 states, none proper; with a tabu list larger than
        # the state space every candidate eventually becomes tabu and the
        # remaining iterations stall
        out = tabu_search(k3, 2, [0, 0, 0],
                          params(ts_iterations=50, ts_tabu_length=20), seed=7)
        assert len(accepted_conflicts) < 50
        assert out.conflicts == 1  # best achievable with 2 colors

    def test_virtual_deadline_stops_at_the_first_iteration_past_it(
            self, k3, accepted_conflicts):
        # each iteration counts its 10 candidates, all-tabu ones included:
        # the run stops at the first count 1 + 10 * i at or past 499.5
        clock = VirtualClock()
        out = tabu_search(k3, 2, [0, 0, 0], params(ts_iterations=1000), seed=7,
                          clock=clock, deadline=0.4995)
        assert out.evaluations == clock.evaluations == 501
        assert out.elapsed_seconds == 501 * 0.001
        # some of the 50 samples were all tabu
        assert len(accepted_conflicts) < 50

    def test_wall_deadline_cuts_the_run(self, k3):
        clock = WallClock()
        p = params(ts_iterations=10**6)  # seconds of work on a triangle at k = 2
        out = tabu_search(k3, 2, [0, 0, 0], p, seed=1,
                          clock=clock, deadline=clock.now() + 0.1)
        assert out.elapsed_seconds < 1.0
        assert out.evaluations < 1 + 10 * 10**6

    def test_proper_init_returns_immediately(self, k3):
        out = tabu_search(k3, 3, [0, 1, 2], params(), seed=1)
        assert out.conflicts == 0
        assert out.evaluations == 1

    def test_deterministic(self):
        g = random_graph(20, 0.4, seed=5)
        a = tabu_search(g, 4, [0] * 20, params(), seed=11)
        b = tabu_search(g, 4, [0] * 20, params(), seed=11)
        assert (a.coloring, a.evaluations) == (b.coloring, b.evaluations)

    def test_returned_conflicts_match_recount(self):
        g = random_graph(20, 0.6, seed=6)
        out = tabu_search(g, 4, [0] * 20, params(), seed=9)
        assert out.conflicts == conflict_count(g, out.coloring)


class TestIteratedLocalSearch:
    def test_proper_init_returns_immediately(self, k3):
        out = iterated_local_search(k3, 3, [0, 1, 2], params(), seed=1)
        assert out.conflicts == 0
        assert out.evaluations == 1
        assert out.elapsed_seconds < 0.1

    def test_total_time_window_allows_inner_run_to_finish(self, k3):
        # k=2 on a triangle is infeasible, so the search runs out the clock:
        # total elapsed must fall in [total, total + inner] plus scheduling noise
        p = params(ils_inner_seconds=0.1, ils_total_seconds=0.3,
                   wall_budget_seconds=60.0)
        out = iterated_local_search(k3, 2, [0, 0, 0], p, seed=1)
        assert out.conflicts == 1
        assert 0.3 <= out.elapsed_seconds <= 0.3 + 0.1 + 0.15

    def test_wall_deadline_cuts_the_run(self, k3):
        clock = WallClock()
        p = params(ils_inner_seconds=0.5, ils_total_seconds=5.0)
        out = iterated_local_search(k3, 2, [0, 0, 0], p, seed=1,
                                    clock=clock, deadline=clock.now() + 0.2)
        assert out.elapsed_seconds < 1.0

    def test_deadline_cuts_the_climb_in_flight(self, k3):
        # the first climb's own window (0.5 s) outlasts the deadline, so the
        # deadline, not the window, must end it
        clock = VirtualClock()
        p = params(ils_inner_seconds=0.5, ils_total_seconds=5.0)
        out = iterated_local_search(k3, 2, [0, 0, 0], p, seed=1,
                                    clock=clock, deadline=clock.now() + 0.2)
        assert 0.2 <= out.elapsed_seconds < 0.21

    def test_deterministic_under_virtual_clock(self, k3):
        p = params(ils_inner_seconds=0.05, ils_total_seconds=0.2)
        runs = []
        for _ in range(2):
            out = iterated_local_search(k3, 2, [0, 0, 0], p, seed=5,
                                        clock=VirtualClock())
            runs.append((out.coloring, out.conflicts, out.evaluations,
                         out.elapsed_seconds))
        assert runs[0] == runs[1]

    @settings(max_examples=50, deadline=None)
    @given(graphs(min_n=2), st.integers(2, 4), st.integers(0, 2**32))
    def test_each_new_home_base_has_fewer_conflicts(self, g, k, seed):
        # ILS keeps no memory of past home bases: this invariant alone keeps
        # any one of them from being adopted twice
        kicked = []
        real_perturb = search_module._perturb

        def spy_perturb(colors, k, rng):
            kicked.append(list(colors))
            return real_perturb(colors, k, rng)

        rng = random.Random(seed)
        init = [rng.randrange(k) for _ in range(g.vertex_count)]
        p = params(ils_inner_seconds=0.005, ils_total_seconds=0.1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_perturb", spy_perturb)
            iterated_local_search(g, k, init, p, seed, clock=VirtualClock())
        homes = [init] + kicked
        for before, after in zip(homes, homes[1:]):
            if after != before:
                assert conflict_count(g, after) < conflict_count(g, before)

    @settings(max_examples=50, deadline=None)
    @given(graphs(min_n=2), st.integers(2, 4), st.integers(0, 2**32))
    def test_a_kick_is_drawn_only_for_a_climb_that_runs(self, g, k, seed):
        # no kick follows the last climb, whether that climb found a proper
        # coloring or the total budget ran out during it
        events = []
        real_climb, real_perturb = search_module._climb, search_module._perturb

        def spy_climb(*args, **kwargs):
            outcome = real_climb(*args, **kwargs)
            events.append(("climb", outcome[1]))
            return outcome

        def spy_perturb(colors, k, rng):
            events.append(("kick", None))
            return real_perturb(colors, k, rng)

        rng = random.Random(seed)
        init = [rng.randrange(k) for _ in range(g.vertex_count)]
        p = params(ils_inner_seconds=0.005, ils_total_seconds=0.1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_climb", spy_climb)
            mp.setattr(search_module, "_perturb", spy_perturb)
            iterated_local_search(g, k, init, p, seed, clock=VirtualClock())
        climbs = [conflicts for kind, conflicts in events if kind == "climb"]
        kinds = [kind for kind, _ in events]
        assert kinds == (["climb"] + ["kick", "climb"] * (len(climbs) - 1) if climbs else [])
        assert all(conflicts > 0 for conflicts in climbs[:-1])

    @pytest.mark.parametrize("n, moved", [(1, 1), (20, 1), (21, 2), (125, 7), (250, 13)])
    def test_a_kick_recolors_5_percent_of_the_vertices_rounded_up(self, n, moved):
        colors = [v % 3 for v in range(n)]
        kicked = search_module._perturb(colors, 3, random.Random(n))
        assert sum(a != b for a, b in zip(colors, kicked)) == moved
        assert all(0 <= c < 3 for c in kicked)

    def test_improves_over_poor_init(self):
        g = random_graph(20, 0.3, seed=12)
        p = params(ils_inner_seconds=0.05, ils_total_seconds=0.5)
        out = iterated_local_search(g, 4, [0] * 20, p, seed=2)
        assert out.conflicts < conflict_count(g, [0] * 20)
        assert out.conflicts == conflict_count(g, out.coloring)


class TestSolveKReduction:
    def test_clique_cannot_go_below_four(self, k4):
        # DSatur's 4 colors equal the clique bound, so no level is attempted
        for method in ("HC", "SA", "TS"):
            coloring, k, trace = solve_k_reduction(
                k4, method, params(wall_budget_seconds=5.0), seed=1)
            assert k == 4
            assert is_proper(k4, coloring)
            assert trace == []

    def test_clique_bound_only_drops_the_final_failed_level(self, monkeypatch):
        """Differential: the driver against itself with the bound held at two
        colors, the floor it always had, on acceptance criterion 2's graphs.
        Same (k, coloring); the trace loses at most its last, failed level,
        and only where the bound equals k. Each of these graphs has at most 9
        vertices, so the bound is the chromatic number and every cell skips
        its failed level. The patched side solves a fresh equal graph, since
        `g` already caches the start it took with the real bound."""
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        skipped = 0
        for i in range(30):
            g = random_graph(9, 0.5, seed=5000 + i)
            chi, _ = chromatic_number_exact(g)
            bound = chromatic_lower_bound(g, color_count(dsatur(g)))
            assert bound == chi, i
            for method in METHODS:
                p = params(wall_budget_seconds=10.0)
                new_coloring, new_k, new_trace = solve_k_reduction(g, method, p, seed=1)
                with monkeypatch.context() as m:
                    m.setattr(search_module, "chromatic_lower_bound", lambda g, k: 2)
                    fresh = Graph(g.vertex_count, g.edge_count, g.neighbor_masks)
                    old_coloring, old_k, old_trace = solve_k_reduction(fresh, method, p, seed=1)
                assert (new_k, new_coloring) == (old_k, old_coloring), (i, method)
                assert new_trace == old_trace[:len(new_trace)], (i, method)
                dropped = old_trace[len(new_trace):]
                assert len(dropped) <= 1, (i, method)
                if dropped:
                    assert bound == new_k and dropped[0].conflicts > 0, (i, method)
                    skipped += 1
                if new_k == chi:
                    assert all(t.conflicts == 0 for t in new_trace), (i, method)
        assert skipped == 120  # every cell reaches chi and skips its failed level

    def test_five_cycle_reaches_three(self, c5):
        coloring, k, trace = solve_k_reduction(
            c5, "HC", params(wall_budget_seconds=5.0), seed=1)
        assert k == 3
        assert is_proper(c5, coloring)
        assert trace == []  # DSatur's 3 colors equal the bound; no level runs

    def test_driver_seeds_no_generator_when_no_level_runs(self, k4, monkeypatch):
        g = random_graph(9, 0.5, seed=5021)  # DSatur 4 colors, chi 3
        built = []
        real = random.Random
        monkeypatch.setattr(search_module.random, "Random",
                            lambda seed: built.append(seed) or real(seed))
        assert solve_k_reduction(k4, "HC", params(), seed=3)[2] == []
        assert built == []
        assert len(solve_k_reduction(g, "HC", params(), seed=3)[2]) == 1
        assert built[0] == 3

    def test_achieved_palette_shrinks_by_one_per_success(self):
        g = random_graph(18, 0.4, seed=3)
        k0 = color_count(dsatur(g))
        coloring, k, trace = solve_k_reduction(
            g, "SA", params(wall_budget_seconds=10.0), seed=1)
        successes = sum(1 for t in trace if t.conflicts == 0)
        assert k == k0 - successes
        assert all(t.conflicts == 0 for t in trace[:-1])
        assert max(coloring) < k
        assert is_proper(g, coloring)

    @pytest.mark.parametrize("method", ["XX", "GA", "hc", None])
    def test_unknown_method_rejected_before_the_graph_is_read(self, method, start_calls):
        # an empty graph would raise its own error, were it read first
        with pytest.raises(ValueError, match=r"^method must be one of \('HC', 'SA', "
                                             r"'TS', 'ILS'\), got "):
            solve_k_reduction(build_graph(0, []), method, params(), seed=1)
        with pytest.raises(ValueError, match="method must be one of"):
            solve_k_reduction(random_graph(8, 0.5, seed=1), method, params(), 1)
        assert start_calls == []

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            solve_k_reduction(build_graph(0, []), "HC", params(), seed=1)

    def test_edgeless_graph_stays_at_one_color(self):
        g = build_graph(5, [])
        coloring, k, trace = solve_k_reduction(g, "HC", params(), seed=1)
        assert k == 1
        assert coloring == [0] * 5
        assert trace == []

    def test_exhausted_budget_returns_dsatur_result(self):
        g = random_graph(40, 0.5, seed=9)
        clock = VirtualClock()
        coloring, k, trace = solve_k_reduction(
            g, "HC", params(wall_budget_seconds=1e-9), seed=1, clock=clock)
        assert k == color_count(dsatur(g))
        assert is_proper(g, coloring)

    def test_deterministic_per_method(self):
        g = random_graph(16, 0.5, seed=14)
        p = params(wall_budget_seconds=10.0)
        for method in ("HC", "SA", "TS"):
            a = solve_k_reduction(g, method, p, seed=4)
            b = solve_k_reduction(g, method, p, seed=4)
            assert a[0] == b[0]
            assert a[1] == b[1]
            assert [(t.conflicts, t.evaluations) for t in a[2]] == \
                   [(t.conflicts, t.evaluations) for t in b[2]]

    def test_ils_deterministic_under_virtual_clock(self):
        g = random_graph(16, 0.5, seed=14)
        p = params(wall_budget_seconds=2.0, ils_inner_seconds=0.05, ils_total_seconds=0.2)
        a = solve_k_reduction(g, "ILS", p, seed=4, clock=VirtualClock())
        b = solve_k_reduction(g, "ILS", p, seed=4, clock=VirtualClock())
        assert a[0] == b[0] and a[1] == b[1]

    @given(graphs(min_n=1, max_n=14), st.sampled_from(["HC", "SA", "TS"]))
    @settings(deadline=None, max_examples=25)
    def test_every_witness_is_proper(self, g, method):
        p = params(hc_iterations=300, sa_iterations=300, wall_budget_seconds=5.0)
        coloring, k, _ = solve_k_reduction(g, method, p, seed=1)
        assert is_proper(g, coloring)
        assert color_count(coloring) <= k


def start_of(*graphs):
    """The start computations `start_calls` would record for these graphs."""
    return sorted((name, id(g)) for g in graphs
                  for name in ("dsatur", "chromatic_lower_bound"))


class TestStartCache:
    """The k-reduction's start (DSatur's coloring, its k and the lower bound) is
    computed once per Graph object and reused by every later solve."""

    def test_one_start_per_graph_across_methods_and_seeds(self, start_calls, monkeypatch):
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        warm = [random_graph(20, 0.5, seed=s) for s in (1, 2)]
        p = params(wall_budget_seconds=2.0)
        cells = [(g, method, p, seed) for g in warm for method in METHODS for seed in (1, 2)]
        results = [solve_k_reduction(*cell) for cell in cells]
        assert sorted(start_calls) == start_of(*warm)
        assert any(trace for _, _, trace in results)  # levels ran from the start
        # each solve of a fresh equal graph computes its own start: same result
        assert results == [solve_k_reduction(Graph(g.vertex_count, g.edge_count, g.neighbor_masks),
                                             method, p, seed) for g, method, p, seed in cells]

    def test_returned_coloring_is_a_copy(self, k4):
        first, k, trace = solve_k_reduction(k4, "HC", params(), seed=1)
        assert (k, trace) == (4, [])  # no level runs: the start itself is returned
        expected = list(first)
        first[0] = first[1]
        again, _, _ = solve_k_reduction(k4, "HC", params(), seed=1)
        assert again == expected
        assert type(again) is list

    def test_equal_distinct_graphs_each_compute_their_own(self, start_calls):
        a = random_graph(10, 0.5, seed=3)
        b = Graph(a.vertex_count, a.edge_count, a.neighbor_masks)
        assert a == b and a is not b
        for g in (a, b, a, b):
            solve_k_reduction(g, "HC", params(wall_budget_seconds=1.0), seed=1,
                              clock=VirtualClock())
        assert sorted(start_calls) == start_of(a, b)

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        warm = random_graph(10, 0.5, seed=4)
        cold = Graph(warm.vertex_count, warm.edge_count, warm.neighbor_masks)
        search_module.dsatur_start(warm)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_pickled_warm_graph_keeps_its_start(self, start_calls):
        warm = random_graph(10, 0.5, seed=5)
        expected = solve_k_reduction(warm, "HC", params(wall_budget_seconds=1.0), seed=1,
                                     clock=VirtualClock())
        copy = pickle.loads(pickle.dumps(warm))
        start_calls.clear()
        got = solve_k_reduction(copy, "HC", params(wall_budget_seconds=1.0), seed=1,
                                clock=VirtualClock())
        assert start_calls == []
        assert got == expected
