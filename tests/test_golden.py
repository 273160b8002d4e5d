"""Golden trajectories: seeded runs pinned under the virtual clock.

The `test_deterministic` tests only compare one run with another, so an
optimisation that changed a trajectory would still pass them. These values
were recorded from the FNV-1a tabu fingerprint implementation; any change to
a move stream, an acceptance rule, a tabu decision or the k-reduction loop
shows up here as a different k, per-level outcome or coloring digest.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import SolverParams, random_graph, solve_k_reduction, tabu_search
from chroma import search

from conftest import graphs

OVERRIDES = {"HC": {}, "SA": {}, "TS": {"ts_iterations": 2000}, "ILS": {}}

# (method, n, seed) -> (final k, ((conflicts, evaluations) per level),
#                       sha256 of repr(coloring))
# on random_graph(n, 0.5, seed), solved with the same seed.
GOLDEN = {
    ("HC", 30, 1): (8, ((1, 5001),),
        "ba4bfe4f5ef461307d17bd6cf53860946f46fdad48b6ab74bf090dc124aaa6b5"),
    ("HC", 30, 2): (7, ((0, 122), (3, 5001)),
        "dece0d65c80117d5529a47b6777c723923de49ead9fadf768bc61945b85b0f45"),
    ("HC", 60, 1): (12, ((1, 5001),),
        "aabe429d745a4f5618714904cd769c284df2952e6fe2c95eef7aa182005da284"),
    ("HC", 60, 2): (12, ((2, 5001),),
        "cd0bd21e10b751d9624c041c2123bba180ad5817647836d2510cba65afb5d419"),
    ("SA", 30, 1): (8, ((3, 10001),),
        "ba4bfe4f5ef461307d17bd6cf53860946f46fdad48b6ab74bf090dc124aaa6b5"),
    ("SA", 30, 2): (8, ((2, 10001),),
        "07af74bd78a5ea5f7a0e367f14846bd51d55997bedff0eddc866fb81df47228c"),
    ("SA", 60, 1): (12, ((3, 10001),),
        "aabe429d745a4f5618714904cd769c284df2952e6fe2c95eef7aa182005da284"),
    ("SA", 60, 2): (12, ((4, 10001),),
        "cd0bd21e10b751d9624c041c2123bba180ad5817647836d2510cba65afb5d419"),
    ("TS", 30, 1): (7, ((0, 841), (2, 20001)),
        "fa5668ebc2756c7344663885fb1059f1b7ffb1a8fb41cedf530210842850425b"),
    ("TS", 30, 2): (7, ((0, 181), (2, 20001)),
        "3045ccf863213dd10afafe29b9fb7dec5fab213a54b41f194d83707abb0ad52d"),
    ("TS", 60, 1): (11, ((0, 2191), (1, 20001)),
        "5fb0776f397d3f1ef74328301ebbe0ac89ac7f30acb37c36f888631514e06127"),
    ("TS", 60, 2): (11, ((0, 15121), (3, 20001)),
        "65c2d9fec431332780b1cba25c75fa8d8da2aa052369d9dcd2987ed3219ddc54"),
    ("ILS", 30, 1): (7, ((0, 10084), (2, 100001)),
        "9087aeda86de74dcec63f8d317cda2f7d505d4c60bc78a2b708a559b0b28e719"),
    ("ILS", 30, 2): (7, ((0, 123), (2, 100002)),
        "dece0d65c80117d5529a47b6777c723923de49ead9fadf768bc61945b85b0f45"),
    ("ILS", 60, 1): (11, ((0, 20709), (1, 100001)),
        "c2f9e378d0416daa15909ef5a415dc538d6b056c13906dd8a479e4d762f858bb"),
    ("ILS", 60, 2): (11, ((0, 5359), (4, 100001)),
        "804ac291b19ec62a8e2d51022df9fc81be390e6f97f02d2969ff11a530424164"),
}


# Paths the GOLDEN cases leave out: strict HC, geometric SA and random
# initial colorings. (method, n, seed, extra overrides) -> as in GOLDEN.
VARIANTS = {
    ("HC", 30, 1, (("hc_strict", True),)): (8, ((3, 5001),),
        "ba4bfe4f5ef461307d17bd6cf53860946f46fdad48b6ab74bf090dc124aaa6b5"),
    ("HC", 30, 2, (("hc_strict", True),)): (8, ((2, 5001),),
        "07af74bd78a5ea5f7a0e367f14846bd51d55997bedff0eddc866fb81df47228c"),
    ("HC", 60, 1, (("hc_strict", True),)): (12, ((2, 5001),),
        "aabe429d745a4f5618714904cd769c284df2952e6fe2c95eef7aa182005da284"),
    ("SA", 30, 1, (("sa_geometric", True),)): (8, ((1, 10001),),
        "ba4bfe4f5ef461307d17bd6cf53860946f46fdad48b6ab74bf090dc124aaa6b5"),
    ("SA", 30, 2, (("sa_geometric", True),)): (7, ((0, 1345), (2, 10001)),
        "a095439e0ff770ae6d4299b640edeac1bac441e0e16e7a7960a8b50ae8825eb7"),
    ("SA", 60, 1, (("sa_geometric", True),)): (11, ((0, 1587), (4, 10001)),
        "1edb0bcb4f45cd56f41864ca2b1a3ca9fd2ec1ab532a9d46e39e9aa03d4f43a7"),
    ("HC", 30, 1, (("initializer", "random"),)): (7, ((0, 386), (2, 5001)),
        "4d6088e4434c4abd9d94828061540ae7d0955ab5097525b8b67fc0d58c509a7b"),
    ("TS", 30, 1, (("initializer", "random"),)): (7, ((0, 651), (2, 20001)),
        "2fb2fcb37d314337e464ba855593a56691c84c26d2d16127ce3cb475b0ee9007"),
    ("ILS", 30, 1, (("initializer", "random"),)): (7, ((0, 387), (2, 100003)),
        "4d6088e4434c4abd9d94828061540ae7d0955ab5097525b8b67fc0d58c509a7b"),
}


def level_summary(method: str, n: int, seed: int, extra=()):
    g = random_graph(n, 0.5, seed)
    params = SolverParams(method=method, **OVERRIDES[method], **dict(extra))
    coloring, k, trace = solve_k_reduction(g, params, seed)
    levels = tuple((o.conflicts, o.evaluations) for o in trace)
    return k, levels, hashlib.sha256(repr(coloring).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trajectory(case, monkeypatch):
    monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
    assert level_summary(*case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(VARIANTS, key=repr),
                         ids=lambda c: "-".join(map(str, c[:3] + c[3][0])))
def test_golden_variant_trajectory(case, monkeypatch):
    monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
    assert level_summary(*case) == VARIANTS[case]


def zobrist_from_scratch(table, colors) -> int:
    h = 0
    for v, c in enumerate(colors):
        h ^= table[v][c]
    return h


@st.composite
def move_sequences(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(2, 6))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                          max_size=40))
    return n, k, colors, moves


@given(move_sequences())
def test_incremental_zobrist_equals_recompute(case):
    n, k, colors, moves = case
    table = search._zobrist_table(n, k)
    h = zobrist_from_scratch(table, colors)
    for v, new in moves:
        h ^= table[v][colors[v]] ^ table[v][new]
        colors[v] = new
        assert h == zobrist_from_scratch(table, colors)


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=2, max_n=12), st.integers(2, 5), st.integers(0, 2**32))
def test_tabu_search_pushes_the_hash_of_each_coloring_it_moves_to(g, k, seed):
    """Every fingerprint tabu_search pushes equals a from-scratch Zobrist hash
    of the coloring it has just moved to."""
    pushed, visited = [], []

    class SpyFifo(search.FingerprintFifo):
        def push(self, fingerprint):
            pushed.append(fingerprint)
            super().push(fingerprint)

    real_apply = search._ConflictState.apply

    def spy_apply(state, v, new_color):
        real_apply(state, v, new_color)
        visited.append(list(state.colors))

    init = [0] * g.vertex_count
    params = SolverParams(method="TS", ts_iterations=30, ts_tabu_length=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "FingerprintFifo", SpyFifo)
        mp.setattr(search._ConflictState, "apply", spy_apply)
        tabu_search(g, k, init, params, seed)
    table = search._zobrist_table(g.vertex_count, k)
    assert pushed == [zobrist_from_scratch(table, c) for c in visited]


def test_k3_two_colors_hashes_all_eight_states_apart():
    # test_all_tabu_iterations_make_no_move relies on every one of K3's 8
    # two-colorings having its own fingerprint
    table = search._zobrist_table(3, 2)
    states = list(itertools.product(range(2), repeat=3))
    assert len({zobrist_from_scratch(table, s) for s in states}) == len(states)
