"""Golden trajectories: seeded runs pinned under the virtual clock.

The `test_deterministic` tests only compare one run with another, so an
optimisation that changed a trajectory would still pass them. The GOLDEN
values were recorded when tabu search still hashed each candidate coloring in
full, and they hold unchanged under its incremental hash((vertex, color))
keys. Any change to a move stream, an acceptance rule, a tabu decision or the
k-reduction loop shows up here as a different k, per-level outcome or
coloring digest.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import SolverParams, random_graph, solve_k_reduction, tabu_search
from chroma import search

from conftest import graphs, recording_deque

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


# The same on sparse and dense graphs: (method, n, seed, p) -> as in GOLDEN,
# plus the sha256 of repr of every level's best coloring, which pins the
# trajectory of a failed level too (its final coloring is DSatur's on most of
# the sparse cases). Recorded before `_ConflictState` kept the gamma table.
DENSITY = {
    ("HC", 60, 1, 0.1): (4, ((7, 5001),),
        "f7d45bad9e1a866277848b9f473360f495f1451c55ba1b618a3f4d13240c9de2",
        "9ee0d8f757ebbe20e9210dd56a76da83818e58610552566254d90e2273517582"),
    ("HC", 60, 2, 0.1): (4, ((6, 5001),),
        "bb08c59d3a824fbd50c81256c891fe74e6b03c6b7adf315a910b0f706d41225f",
        "d4d09219982d13eaf867fbb336aeeab629b7ec2c90033e3ef6a1ba14c1b84226"),
    ("SA", 60, 1, 0.1): (4, ((12, 10001),),
        "f7d45bad9e1a866277848b9f473360f495f1451c55ba1b618a3f4d13240c9de2",
        "de1487df43b75556760645f116bd2ac8e12541b2bf04080eb9a2fe0926e46516"),
    ("SA", 60, 2, 0.1): (4, ((10, 10001),),
        "bb08c59d3a824fbd50c81256c891fe74e6b03c6b7adf315a910b0f706d41225f",
        "2e9a4c7cd773d14b97250b4aaab6b70caaaf7f92c639b2d0b21b21a4435fd178"),
    ("TS", 60, 1, 0.1): (4, ((6, 20001),),
        "f7d45bad9e1a866277848b9f473360f495f1451c55ba1b618a3f4d13240c9de2",
        "1b993e516b74a019263738953c103aead4945c45f36f2cd51afd8977a18760ec"),
    ("TS", 60, 2, 0.1): (4, ((5, 20001),),
        "bb08c59d3a824fbd50c81256c891fe74e6b03c6b7adf315a910b0f706d41225f",
        "89842ea06c0ef3884238c331fefb0b535437e03999cace234b01a333d5ab9ae7"),
    ("ILS", 60, 1, 0.1): (4, ((7, 100003),),
        "f7d45bad9e1a866277848b9f473360f495f1451c55ba1b618a3f4d13240c9de2",
        "9ee0d8f757ebbe20e9210dd56a76da83818e58610552566254d90e2273517582"),
    ("ILS", 60, 2, 0.1): (4, ((6, 100003),),
        "bb08c59d3a824fbd50c81256c891fe74e6b03c6b7adf315a910b0f706d41225f",
        "d4d09219982d13eaf867fbb336aeeab629b7ec2c90033e3ef6a1ba14c1b84226"),
    ("HC", 60, 1, 0.9): (26, ((0, 278), (2, 5001)),
        "d274b2ff25f0ef63a2aa20b9c07ba6d83756d3de4b8a4755bfe77d02cf25bdc5",
        "07657a3fa2a83d12f9eb8d8fb6df7ed743f7c184d734d070a19db13b833c7a40"),
    ("HC", 60, 2, 0.9): (26, ((0, 181), (2, 5001)),
        "e8a768d398e2fd3b65031ec1108cc016725154100efd9eec931473956ee00d62",
        "bb82fe0a22f2ef6c7e18d7f61f5a82b99e7931c902631bd82f4444fb63ff1286"),
    ("SA", 60, 1, 0.9): (27, ((1, 10001),),
        "18796561678fb9444618e82646a7ddaa203e18a92b61720d674f9d38e54c06b6",
        "3dad87087e6ee894f9c760df519179a8d266bb024f1b126f22f1316642e1c356"),
    ("SA", 60, 2, 0.9): (27, ((2, 10001),),
        "137f2ff5e29e14a23047a7e3cba701ffa597f905a8532cf1cbbf58ccb9ca9079",
        "7423bd7fb4c69c1ad07d0ad7259173c52f75b1445860285d749ce2ded86a27a6"),
    ("TS", 60, 1, 0.9): (27, ((1, 20001),),
        "18796561678fb9444618e82646a7ddaa203e18a92b61720d674f9d38e54c06b6",
        "3dad87087e6ee894f9c760df519179a8d266bb024f1b126f22f1316642e1c356"),
    ("TS", 60, 2, 0.9): (26, ((0, 8771), (2, 20001)),
        "96d71565c5035adb93a36ad3a6478d77bb59c33b1660d3a8f793a494d260223e",
        "fd981dff27e8c367a623128f991be4e2e9544b012b63ad9ae3a0773afc46ae02"),
    ("ILS", 60, 1, 0.9): (26, ((0, 279), (1, 100001)),
        "d274b2ff25f0ef63a2aa20b9c07ba6d83756d3de4b8a4755bfe77d02cf25bdc5",
        "f591835460c7c5ea2338187fbcd6fb54fa3cbaf5e0ce6222cbb1c7520e14af83"),
    ("ILS", 60, 2, 0.9): (26, ((0, 182), (1, 100001)),
        "e8a768d398e2fd3b65031ec1108cc016725154100efd9eec931473956ee00d62",
        "4a38ca38b5cf305a35f3e43e7b8815a947c28e41f1a5fffba927ab3e33b0b2f2"),
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def solve(method: str, n: int, seed: int, p: float = 0.5):
    g = random_graph(n, p, seed)
    params = SolverParams(**OVERRIDES[method])
    return solve_k_reduction(g, method, params, seed)


def level_summary(method: str, n: int, seed: int):
    coloring, k, trace = solve(method, n, seed)
    levels = tuple((o.conflicts, o.evaluations) for o in trace)
    return k, levels, digest(coloring)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trajectory(case, monkeypatch):
    monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
    assert level_summary(*case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(DENSITY), ids=lambda c: "-".join(map(str, c)))
def test_golden_density_trajectory(case, monkeypatch):
    monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
    method, n, seed, p = case
    coloring, k, trace = solve(method, n, seed, p=p)
    levels = tuple((o.conflicts, o.evaluations) for o in trace)
    assert (k, levels, digest(coloring), digest([o.coloring for o in trace])) == DENSITY[case]


def coloring_hash(colors) -> int:
    """The fingerprint tabu_search's docstring gives a coloring: the XOR of
    hash((v, c)) over its vertices v colored c."""
    h = 0
    for v, c in enumerate(colors):
        h ^= hash((v, c))
    return h


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=2, max_n=12), st.integers(2, 5), st.integers(0, 2**32))
def test_tabu_search_pushes_the_hash_of_each_coloring_it_moves_to(g, k, seed):
    """Every fingerprint tabu_search pushes equals the from-scratch hash of
    the coloring it has just moved to."""
    pushed, visited = [], []
    real_apply = search._ConflictState.apply

    def spy_apply(state, v, new_color):
        real_apply(state, v, new_color)
        visited.append(list(state.colors))

    init = [0] * g.vertex_count
    params = SolverParams(ts_iterations=30, ts_tabu_length=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "deque", recording_deque(lambda tabu, fp: pushed.append(fp)))
        mp.setattr(search._ConflictState, "apply", spy_apply)
        tabu_search(g, k, init, params, seed)
    assert pushed == [coloring_hash(c) for c in visited]


@pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (6, 3), (8, 2), (5, 5), (12, 2)])
def test_every_small_coloring_hashes_apart(n, k):
    # no two of the k**n colorings share a fingerprint, so a tabu decision
    # there is the exact one; TestTabuSearch::test_all_tabu_iterations_make_no_move
    # relies on this for K3's 8 two-colorings
    states = list(itertools.product(range(k), repeat=n))
    assert len({coloring_hash(s) for s in states}) == len(states)
