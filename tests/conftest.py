import math
import os
import random
import sys
from collections import deque
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import strategies as st

from chroma import Graph, build_graph
from chroma.graph import _check_length

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
DIMACS_DIR = Path(os.environ.get("CHROMA_DIMACS_DIR", DATA_DIR / "dimacs"))

DSJC_TABLE = {
    "DSJC125.1": (125, 736, 5),
    "DSJC125.5": (125, 3891, 17),
    "DSJC125.9": (125, 6961, 44),
    "DSJC250.1": (250, 3218, 8),
    "DSJC250.5": (250, 15668, 28),
    "DSJC250.9": (250, 27897, 72),
}


def dsjc_path(name: str) -> Path:
    """Path to a user-provided DSJC instance, or skip the test if absent."""
    path = DIMACS_DIR / f"{name}.col"
    if not path.exists():
        pytest.skip(
            f"{name}.col not present in {DIMACS_DIR} "
            f"(benchmark data is user-provided; see {DIMACS_DIR / 'README.md'})"
        )
    return path


# Reference oracles used only by the tests, so kept out of the package.
def conflict_count(g: Graph, colors: Sequence[int]) -> int:
    """Number of monochromatic edges; 0 iff the coloring is proper."""
    _check_length(g, colors)
    total = 0
    for u in range(g.vertex_count):
        cu = colors[u]
        for v in g.adjacency[u]:
            if v > u and colors[v] == cu:
                total += 1
    return total


def conflicted_vertices(g: Graph, colors: Sequence[int]) -> set[int]:
    """Vertices incident to at least one monochromatic edge."""
    _check_length(g, colors)
    out: set[int] = set()
    for u in range(g.vertex_count):
        cu = colors[u]
        for v in g.adjacency[u]:
            if v > u and colors[v] == cu:
                out.add(u)
                out.add(v)
    return out


def max_degree(g: Graph) -> int:
    return max((len(neighbors) for neighbors in g.adjacency), default=0)


def random_bipartite_graph(left: int, right: int, p: float, seed: int) -> Graph:
    """Random bipartite graph on sides {0..left-1} and {left..left+right-1}.

    Always contains at least one edge (a fallback edge joins the first vertex
    of each side if the random draw produces none), so a 2-coloring is the
    optimum whenever both sides are nonempty.
    """
    if left < 1 or right < 1:
        raise ValueError("both sides must be nonempty")
    rng = random.Random(seed)
    edges = [
        (u, left + v)
        for u in range(left)
        for v in range(right)
        if rng.random() < p
    ]
    if not edges:
        edges.append((0, left))
    return build_graph(left + right, edges)


def recording_deque(on_append):
    """A deque subclass whose append calls on_append(the deque, item) once the
    item is in. Patched over chroma.search.deque, it watches tabu_search's
    tabu list."""
    class RecordingDeque(deque):
        def append(self, item):
            super().append(item)
            on_append(self, item)
    return RecordingDeque


def brute_conflicts(edges, colors) -> int:
    """Independent conflict recount straight off a canonical edge list."""
    canonical = {(u, v) if u < v else (v, u) for u, v in edges}
    return sum(1 for u, v in canonical if colors[u] == colors[v])


def brute_conflicted(edges, colors) -> set:
    out = set()
    for u, v in edges:
        if u != v and colors[u] == colors[v]:
            out.add(u)
            out.add(v)
    return out


@st.composite
def edge_lists(draw, min_n=1, max_n=12):
    """(n, edges) with possibly duplicated edges, both orientations."""
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pairs, max_size=3 * n))
    return n, edges


@st.composite
def graphs(draw, min_n=1, max_n=12):
    n, edges = draw(edge_lists(min_n, max_n))
    return build_graph(n, edges)


@st.composite
def colored_graphs(draw, min_n=1, max_n=12, max_color=5):
    """(n, edges, graph, coloring) so tests can recount off the raw edges."""
    n, edges = draw(edge_lists(min_n, max_n))
    colors = draw(st.lists(st.integers(0, max_color), min_size=n, max_size=n))
    return n, edges, build_graph(n, edges), colors


@st.composite
def hub_graphs(draw, min_n=10, max_n=20):
    """Graphs with a gap of more than n / 2 in uncolored degree: two
    non-adjacent hubs share the top n // 2 + 2 vertices as leaves, over a
    random graph on the other vertices (the core). Once one hub is colored,
    its leaves are saturated with one uncolored neighbor each, while the other
    hub, unsaturated, has more than n / 2; the core, lower in index, is
    colored in between. A rank that lets uncolored degree outweigh
    saturation picks the other hub first."""
    n = draw(st.integers(min_n, max_n))
    core = n - (n // 2 + 2)
    a, b = draw(st.lists(st.integers(0, core - 1), min_size=2, max_size=2, unique=True))
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core) if {u, v} != {a, b}]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    edges += [(hub, leaf) for leaf in range(core, n) for hub in (a, b)]
    return build_graph(n, edges)


def reference_draw_move(rng, colors, k, conflicted_sorted):
    """Draw (vertex, new color) with rng.randrange: the vertex uniform over
    the conflicted set when nonempty, otherwise over all vertices; the color
    uniform over the k-1 others. The move the search kernels draw inline."""
    if conflicted_sorted:
        v = conflicted_sorted[rng.randrange(len(conflicted_sorted))]
    else:
        v = rng.randrange(len(colors))
    r = rng.randrange(k - 1)
    old = colors[v]
    return v, (r if r < old else r + 1)


def reference_recolor(g, k, colors, rng):
    """One drawn move on a plain coloring: (the moved coloring, its conflicts
    by a full recount)."""
    v, new = reference_draw_move(rng, colors, k, sorted(conflicted_vertices(g, colors)))
    moved = colors[:v] + [new] + colors[v + 1:]
    return moved, conflict_count(g, moved)


def reference_climb(g, accepted):
    """A stand-in for chroma.search._climb on graph g, with its signature and
    contract read literally: each move drawn by reference_draw_move and
    costed by recounting the moved coloring. Only the state's colors are
    read, and the state is left as it was; each accepted move appends the
    conflicts after it to `accepted`, as `spy_accepted_conflicts` records
    the real loop's."""
    def climb(k, state, *, rng, clock, iterations=sys.maxsize, stop_at=math.inf,
              t_initial=0.0, decrement=0.0):
        colors = list(state.colors)
        conf = conflict_count(g, colors)
        best, best_conf = list(colors), conf
        i = 0
        while best_conf > 0 and i < iterations:
            if clock.now() >= stop_at:
                break
            i += 1
            moved, moved_conf = reference_recolor(g, k, colors, rng)
            d = moved_conf - conf
            clock.tick()
            if d > 0:
                t = t_initial - i * decrement
                accept = t > 0.0 and rng.random() < math.exp(-d / t)
            else:
                accept = True
            if accept:
                colors, conf = moved, moved_conf
                if conf < best_conf:
                    best, best_conf = list(colors), conf
                accepted.append(conf)
        return best, best_conf, i
    return climb


def reference_ts_sample(g, k, colors, rng, clock, num_tweaks, fingerprint, tabu):
    """One tabu-search sample read literally: draw num_tweaks moves with
    reference_draw_move, cost each by a full recount, drop those whose moved
    coloring's fingerprint(coloring) is in `tabu`, and return (conflicts,
    moved coloring, fingerprint) of the first lowest survivor, or None."""
    chosen = None
    for _ in range(num_tweaks):
        moved, moved_conf = reference_recolor(g, k, colors, rng)
        clock.tick()
        fp = fingerprint(moved)
        if fp in tabu:
            continue
        if chosen is None or moved_conf < chosen[0]:
            chosen = (moved_conf, moved, fp)
    return chosen


@pytest.fixture
def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def c5():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def petersen():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return build_graph(10, outer + spokes + inner)


def spy_accepted_conflicts(mp) -> list[int]:
    """Wraps chroma.search._ConflictState.apply through `mp`, a MonkeyPatch:
    every search applies a move only once it is accepted, so the returned
    list gets the state's conflicts after each accepted move, in order."""
    import chroma.search as search_module
    accepted: list[int] = []
    real_apply = search_module._ConflictState.apply

    def apply(state, v, new_color):
        real_apply(state, v, new_color)
        accepted.append(state.total)
    mp.setattr(search_module._ConflictState, "apply", apply)
    return accepted


@pytest.fixture
def accepted_conflicts(monkeypatch):
    """The conflicts after each move accepted in this test (see
    spy_accepted_conflicts)."""
    return spy_accepted_conflicts(monkeypatch)


@pytest.fixture
def start_calls(monkeypatch):
    """Spies on the two computations of the k-reduction's start, reached
    through `chroma.search` globals: each call appends (name, id(graph))."""
    import chroma.search as search_module
    calls: list[tuple[str, int]] = []
    for name in ("dsatur", "chromatic_lower_bound"):
        def spy(g, *args, _real=getattr(search_module, name), _name=name):
            calls.append((_name, id(g)))
            return _real(g, *args)
        monkeypatch.setattr(search_module, name, spy)
    return calls
