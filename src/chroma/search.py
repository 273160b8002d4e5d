"""Single-state metaheuristics for fixed-palette conflict minimization.

All four methods (hill climbing, simulated annealing, tabu search, iterated
local search) share the same elementary move: recolor one vertex, drawn
uniformly from the conflicted vertices when any exist, to a uniformly drawn
different color. Each method minimizes the number of monochromatic edges for
a fixed palette size k; a proper coloring is exactly a zero-conflict state.

The outer driver (`solve_k_reduction`) starts from a DSatur coloring and
repeatedly attempts one fewer color, projecting the incumbent witness down a
level, until an attempt fails, the wall budget runs out, or k reaches a lower
bound on the chromatic number, below which no attempt can succeed. On graphs
of up to 16 vertices that bound is the chromatic number itself (the clique
number when it already equals DSatur's k, else the exact value), so no level
that can only fail is run there. The start (DSatur's coloring, its k and the
bound) depends on the graph alone, so `dsatur_start` computes it once per
Graph object and keeps it on the graph: every later solve of that graph, by
any method or seed, and every pickled copy of it, reuses it.

The two hot loops, `_climb` (HC, SA and the ILS inner climb) and tabu
search's sample loop, draw and evaluate the move inline rather than through
helper calls, which cost more than the move itself. Each index is drawn with
the rejection draw that `random.Random.randrange(m)` makes on Python 3.10
to 3.13: r = getrandbits(m.bit_length()), drawn again while r >= m; at k = 2
the color draw is randrange(1), which still takes one bit per move. The rng
stream, and so every seeded trajectory, is the one `randrange` would give.
Only an applied move changes the conflicted list, so the vertex draw's bound
m and its bit length are read once per tabu sample, and in `_climb` once
before the loop and again after each applied move.
`_perturb`, ILS's kick, calls the stdlib's `sample` and `randrange`.

Every method is deterministic given (graph, params, seed), except that a real
wall clock may cut time-driven loops at machine-dependent points; under the
virtual clock (see chroma.clock) runs are fully reproducible.
"""

from __future__ import annotations

import math
import random
import sys
import typing
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .clock import Clock, make_clock
from .graph import Coloring, Graph, color_count
from .heuristics import chromatic_lower_bound, dsatur


@dataclass(frozen=True)
class SolverParams:
    """Per-method search parameters; defaults follow the benchmark setup.

    The fields are the one parameter schema: numbers, each checked here, and
    only here, by its declared type (PARAM_TYPES). The `solve` flags and
    manifest keys (bench.PARAM_KEYS) only read text into numbers. The method
    is the cell's, so one frozen object serves a run.
    """

    hc_iterations: int = 5000
    sa_iterations: int = 10000
    sa_decrement: float = 0.005
    ts_iterations: int = 10
    ts_tabu_length: int = 20
    ts_num_tweaks: int = 10
    ils_inner_seconds: float = 10.0
    ils_total_seconds: float = 100.0
    wall_budget_seconds: float = 600.0

    def __post_init__(self) -> None:
        for name, kind in PARAM_TYPES.items():
            value = getattr(self, name)
            # bool is an int subclass; a NaN count never ends a loop (i >= nan is false)
            if kind is int and (not isinstance(value, int) or isinstance(value, bool)
                                or value < 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
            if kind is float and not (isinstance(value, (int, float))
                                      and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.ils_inner_seconds > self.ils_total_seconds:
            raise ValueError("ils_inner_seconds cannot exceed ils_total_seconds")


# Field name -> declared type: int or float.
PARAM_TYPES: dict[str, type] = typing.get_type_hints(SolverParams)


@dataclass
class SearchOutcome:
    """What one fixed-palette search returns: the best coloring it reached,
    that coloring's conflicts (0 when proper), the objective evaluations it
    made, the initial state's included, and the clock's elapsed seconds."""

    coloring: Coloring
    conflicts: int
    evaluations: int
    elapsed_seconds: float


class _ConflictState:
    """Working coloring with color-class bitsets, in the bit-parallel style of
    BBMC (San Segundo et al. 2011).

    classes[c] is the int bitset of the vertices colored c, and own[v] is the
    number of v's neighbors that share its color. v's conflicts under color c
    are the set bits of neighbor_masks[v] & classes[c], so a move costs an AND
    and a popcount to evaluate, with no walk over the neighbors, as with the
    TabuCol table (Galinier & Hao 1999). Recoloring v from old to new visits
    only the neighbors colored old or new, the only ones whose count changes.
    `total` is the number of monochromatic edges; `conflicted` lists the
    vertices with any conflict in increasing order, so a draw by index picks
    the vertex it would pick from sorted() of the set.
    """

    __slots__ = ("masks", "colors", "classes", "own", "conflicted", "total")

    def __init__(self, g: Graph, k: int, colors: Sequence[int]):
        self.masks = masks = g.neighbor_masks
        self.colors = colors = list(colors)
        classes = [0] * k
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        self.classes = classes
        self.own = own = [(masks[v] & classes[c]).bit_count()
                          for v, c in enumerate(colors)]
        self.total = sum(own) // 2
        self.conflicted = [v for v, hits in enumerate(own) if hits]

    def apply(self, v: int, new_color: int) -> None:
        colors = self.colors
        classes = self.classes
        own = self.own
        conflicted = self.conflicted
        old = colors[v]
        mask = self.masks[v]
        left = mask & classes[old]  # neighbors that lose a conflict
        joined = mask & classes[new_color]  # neighbors that gain one
        was = own[v]
        now = joined.bit_count()
        while left:
            u = left.bit_length() - 1
            left ^= 1 << u
            hits = own[u] - 1
            own[u] = hits
            if not hits:
                del conflicted[bisect_left(conflicted, u)]
        while joined:
            u = joined.bit_length() - 1
            joined ^= 1 << u
            hits = own[u] + 1
            own[u] = hits
            if hits == 1:
                insort(conflicted, u)
        own[v] = now
        self.total += now - was
        if was and not now:
            del conflicted[bisect_left(conflicted, v)]
        elif now and not was:
            insort(conflicted, v)
        bit = 1 << v
        classes[old] ^= bit
        classes[new_color] |= bit
        colors[v] = new_color


def _prepare(g: Graph, k: int, init: Sequence[int], seed: int,
             clock: Optional[Clock]) -> tuple[Clock, random.Random, float, _ConflictState]:
    """Common start of every search: (clock, rng, start time, state).

    Validates the palette and the initial coloring, and counts the initial
    state as the first objective evaluation.
    """
    clock = clock if clock is not None else make_clock()
    rng = random.Random(seed)
    t0 = clock.now()
    if k < 2:
        raise ValueError(f"fixed-palette search needs k >= 2, got {k}")
    if len(init) != g.vertex_count:
        raise ValueError(
            f"initial coloring has length {len(init)}, graph has {g.vertex_count} vertices"
        )
    if any(not 0 <= c < k for c in init):
        raise ValueError(f"initial coloring uses colors outside 0..{k - 1}")
    state = _ConflictState(g, k, init)
    clock.tick()
    return clock, rng, t0, state


def _climb(k: int, state: _ConflictState, *, rng: random.Random, clock: Clock,
           iterations: int = sys.maxsize, stop_at: float = math.inf,
           t_initial: float = 0.0, decrement: float = 0.0) -> tuple[Coloring, int, int]:
    """The tweak/accept loop of hill climbing, simulated annealing and the
    ILS inner search.

    Move i (counted from 1) of cost d is accepted when d <= 0: a plateau move
    is taken too. A worsening one is accepted with probability exp(-d / t) at
    t = t_initial - i * decrement, never at t <= 0 (so never by default).
    rng.random() is drawn only in that last, probabilistic case, so at zero
    temperature the move stream is that of plateau hill climbing.
    Stops at a zero-conflict state, after `iterations` moves or at `stop_at`;
    returns (best coloring, its conflicts, evaluations performed). Each move
    makes one clock call: `tick` counts its evaluation and returns the time
    that the next stop test reads.

    The move is drawn and costed inline, with `randrange`'s rejection draw
    (see the module docstring): a call per draw would cost more than the AND
    and popcount that evaluate the move. The loop runs only while best_conf,
    which never exceeds the state's conflicts, is above 0, so the vertex is
    always drawn from `conflicted`.
    """
    getrandbits = rng.getrandbits
    masks = state.masks
    classes = state.classes
    own = state.own
    colors = state.colors
    conflicted = state.conflicted
    apply = state.apply
    tick = clock.tick
    others = k - 1
    others_bits = others.bit_length()
    best = list(colors)
    best_conf = state.total
    m = len(conflicted)
    b = m.bit_length()
    now = clock.now()
    i = 0
    while best_conf > 0 and i < iterations:
        if now >= stop_at:
            break
        i += 1
        r = getrandbits(b)
        while r >= m:
            r = getrandbits(b)
        v = conflicted[r]
        old = colors[v]
        r = getrandbits(others_bits)
        while r >= others:
            r = getrandbits(others_bits)
        new = r if r < old else r + 1
        d = (masks[v] & classes[new]).bit_count() - own[v]
        now = tick()
        if d > 0:
            t = t_initial - i * decrement
            if not (t > 0.0 and rng.random() < math.exp(-d / t)):
                continue
        apply(v, new)
        m = len(conflicted)
        b = m.bit_length()
        if state.total < best_conf:
            best_conf = state.total
            best = list(colors)
    return best, best_conf, i


def hill_climbing(g: Graph, k: int, init: Sequence[int], params: SolverParams,
                  seed: int, *, clock: Optional[Clock] = None,
                  deadline: float = math.inf) -> SearchOutcome:
    """Fixed-iteration descent accepting any non-worsening tweak."""
    clock, rng, t0, state = _prepare(g, k, init, seed, clock)
    best, best_conf, evals = _climb(
        k, state, rng=rng, clock=clock, iterations=params.hc_iterations, stop_at=deadline,
    )
    return SearchOutcome(best, best_conf, evals + 1, clock.now() - t0)


def simulated_annealing(g: Graph, k: int, init: Sequence[int], params: SolverParams,
                        seed: int, *, clock: Optional[Clock] = None,
                        deadline: float = math.inf) -> SearchOutcome:
    """Metropolis acceptance (see _climb) under a linearly decreasing
    temperature.

    The temperature at move i is t_initial - i * sa_decrement, from
    t_initial = sa_iterations * sa_decrement, so it hits exactly zero on the
    final iteration.
    """
    clock, rng, t0, state = _prepare(g, k, init, seed, clock)
    best, best_conf, evals = _climb(
        k, state, rng=rng, clock=clock, iterations=params.sa_iterations, stop_at=deadline,
        t_initial=params.sa_iterations * params.sa_decrement, decrement=params.sa_decrement,
    )
    return SearchOutcome(best, best_conf, evals + 1, clock.now() - t0)


def tabu_search(g: Graph, k: int, init: Sequence[int], params: SolverParams,
                seed: int, *, clock: Optional[Clock] = None,
                deadline: float = math.inf) -> SearchOutcome:
    """Best-of-sample moves barred from revisiting recently seen colorings.

    Each iteration draws ts_num_tweaks candidates from the current coloring,
    drops those whose fingerprint sits in the tabu list (the fingerprints of
    the last ts_tabu_length colorings moved to), and moves to the
    lowest-conflict survivor (first drawn wins ties), even when worsening.
    An all-tabu sample makes no move that iteration.

    Colorings are fingerprinted with an incremental Zobrist (1970) hash whose
    key for vertex v colored c is hash((v, c)): a coloring hashes to the XOR
    of its keys, the current coloring's hash is kept up to date, and a
    candidate's, h ^ hash((v, old)) ^ hash((v, new)), is derived from it in
    O(1) without touching the coloring. Python's own hash serves as the key
    table because the search reads fingerprints only by equality: no key
    value reaches a result, and only two colorings hashing alike inside the
    tabu list could change a trajectory. A tuple of ints hashes alike in
    every process (PYTHONHASHSEED salts str and bytes hashes, not int ones),
    and the hash is 64 bits wide on 64-bit builds.

    Candidates are drawn and costed inline with the same lines as in _climb,
    and for the same reason each vertex is drawn from `conflicted`. They read
    no time: one `tick(ts_num_tweaks)` per iteration counts the sample and
    returns the time that the next stop test reads. So a deadline is kept to
    within one sample, which always runs to its end: where HC, SA and the ILS
    climbs overrun it by at most one move, TS overruns it by at most
    ts_num_tweaks candidates.

    A candidate is fingerprinted only when it costs less than the best
    non-tabu candidate so far (a bar that starts above every move cost, and
    that a tabu candidate leaves where it was). One that costs no less could
    not be chosen, tabu or not, so its fingerprint is never read and the
    choice is exactly the one that testing every candidate makes, hash
    collisions included.
    """
    clock, rng, t0, state = _prepare(g, k, init, seed, clock)
    best = list(state.colors)
    best_conf = state.total
    tabu = deque(maxlen=params.ts_tabu_length)
    h = 0
    for v, c in enumerate(state.colors):
        h ^= hash((v, c))
    getrandbits = rng.getrandbits
    masks = state.masks
    classes = state.classes
    own = state.own
    colors = state.colors
    conflicted = state.conflicted
    apply = state.apply
    others = k - 1
    others_bits = others.bit_length()
    num_tweaks = params.ts_num_tweaks
    no_move = g.vertex_count  # above every move cost: |d| <= deg(v) < n
    now = clock.now()
    i = 0
    while best_conf > 0 and i < params.ts_iterations:
        if now >= deadline:
            break
        i += 1
        m = len(conflicted)
        b = m.bit_length()
        chosen_d = no_move
        for _ in range(num_tweaks):
            r = getrandbits(b)
            while r >= m:
                r = getrandbits(b)
            v = conflicted[r]
            old = colors[v]
            r = getrandbits(others_bits)
            while r >= others:
                r = getrandbits(others_bits)
            new = r if r < old else r + 1
            d = (masks[v] & classes[new]).bit_count() - own[v]
            if d >= chosen_d:
                continue
            fp = h ^ hash((v, old)) ^ hash((v, new))
            if fp in tabu:
                continue
            chosen_d, chosen_v, chosen_new, chosen_fp = d, v, new, fp
        now = clock.tick(num_tweaks)
        if chosen_d == no_move:
            continue
        apply(chosen_v, chosen_new)
        h = chosen_fp
        tabu.append(chosen_fp)
        if state.total < best_conf:
            best_conf = state.total
            best = list(state.colors)
    return SearchOutcome(best, best_conf, 1 + i * num_tweaks, clock.now() - t0)


# The share of vertices an ILS kick recolors: the one setting of the benchmark
# setup, like SolverParams' defaults. It is small, so each climb restarts near
# its home base, and rounded up, so every kick moves at least one vertex.
_KICK_FRACTION = 0.05


def _perturb(colors: Sequence[int], k: int, rng: random.Random) -> Coloring:
    """Recolor ceil(_KICK_FRACTION * n) distinct vertices, each to a uniform
    other color."""
    out = list(colors)
    n = len(out)
    count = math.ceil(_KICK_FRACTION * n)
    for v in rng.sample(range(n), count):
        r = rng.randrange(k - 1)
        old = out[v]
        out[v] = r if r < old else r + 1
    return out


def iterated_local_search(g: Graph, k: int, init: Sequence[int], params: SolverParams,
                          seed: int, *, clock: Optional[Clock] = None,
                          deadline: float = math.inf) -> SearchOutcome:
    """Time-budgeted climbs restarted from perturbed home bases.

    Runs ils_inner_seconds climbs until ils_total_seconds elapse; a climb
    already in flight then is allowed to finish, but none runs past
    `deadline`. The home base is the best coloring so far: a result with
    strictly fewer conflicts replaces it, and the next climb starts from it
    with a kick applied (see _perturb), drawn only once that climb is due to
    run. Home-base conflicts only fall, so no home base recurs and no memory
    of past ones is kept.
    """
    clock, rng, t0, state = _prepare(g, k, init, seed, clock)
    evals = 1
    best = list(state.colors)
    best_conf = state.total
    stop_at = min(t0 + params.ils_total_seconds, deadline)
    while best_conf > 0 and (now := clock.now()) < stop_at:
        if evals > 1:  # every climb after the first starts from a kick
            state = _ConflictState(g, k, _perturb(best, k, rng))
        inner_stop = min(now + params.ils_inner_seconds, deadline)
        clock.tick()
        evals += 1
        inner_best, inner_conf, inner_evals = _climb(
            k, state, rng=rng, clock=clock, stop_at=inner_stop,
        )
        evals += inner_evals
        if inner_conf < best_conf:
            best_conf = inner_conf
            best = inner_best
    return SearchOutcome(best, best_conf, evals, clock.now() - t0)


_METHOD_FUNCS = {
    "HC": hill_climbing,
    "SA": simulated_annealing,
    "TS": tabu_search,
    "ILS": iterated_local_search,
}
METHODS = tuple(_METHOD_FUNCS)


def project_coloring(g: Graph, colors: Sequence[int], k: int) -> Coloring:
    """Force a coloring into palette {0..k-1}: every vertex colored >= k is
    reassigned, in index order, to its least-conflicting color (lowest color
    wins ties).

    A color's conflicts for v are v's neighbors in that color's class, which
    holds the vertices colored below k and gains each vertex reassigned to
    it, so a vertex still colored >= k counts for no color.
    """
    if k < 1:
        raise ValueError("cannot project onto an empty palette")
    out = list(colors)
    masks = g.neighbor_masks
    classes = [0] * k
    for v, c in enumerate(out):
        if c < k:
            classes[c] |= 1 << v
    for v, c in enumerate(out):
        if c >= k:
            mask = masks[v]
            counts = [(mask & members).bit_count() for members in classes]
            new = counts.index(min(counts))
            out[v] = new
            classes[new] |= 1 << v
    return out


# The instance __dict__ key of a graph's cached start, beside the one
# cached_property gives the derived `adjacency` view.
_START_KEY = "_dsatur_start"


def dsatur_start(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """(DSatur's coloring, its color count k, `chromatic_lower_bound(g, k)`)
    of a nonempty graph, computed on the first call and cached on `g`.

    The cache sits in the graph's instance __dict__, outside the fields, so
    it takes no part in equality, hashing or repr, a pickled graph carries
    it, and an equal but distinct graph computes its own. DSatur and the
    bound read only the graph's neighbor masks, which it holds from the
    start, and are reached through this module's globals.
    """
    if g.vertex_count == 0:
        raise ValueError("cannot color an empty graph")
    cache = g.__dict__
    start = cache.get(_START_KEY)
    if start is None:
        coloring = dsatur(g)
        k = color_count(coloring)
        start = cache[_START_KEY] = (tuple(coloring), k, chromatic_lower_bound(g, k))
    return start


def solve_k_reduction(g: Graph, method: str, params: SolverParams, seed: int,
                      *, clock: Optional[Clock] = None) -> tuple[Coloring, int, list[SearchOutcome]]:
    """Drive `method`, one of METHODS, through decreasing palette sizes.

    Starts from DSatur's proper coloring and its color count k, then attempts
    k-1, k-2, ... from the incumbent witness projected down one level each
    time (see project_coloring). The first failed attempt, an exhausted wall
    budget, or a k equal to `chromatic_lower_bound(g, k)` ends the run; the
    smallest achieved k is returned with its proper witness and the
    per-level outcomes. A level below the bound is never attempted, since it
    could only fail; up to 16 vertices the bound is the chromatic number
    itself. The seeded generator that draws each level's seed is built only
    when a level runs.

    DSatur's coloring, k and the bound come from `dsatur_start`, computed at
    the first solve of `g` and reused by every later one. It is read before
    the clock, so the wall budget never pays for it. An unknown method is
    refused first.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    run = _METHOD_FUNCS[method]
    start_coloring, k, bound = dsatur_start(g)
    best = list(start_coloring)
    clock = clock if clock is not None else make_clock()
    deadline = clock.now() + params.wall_budget_seconds
    trace: list[SearchOutcome] = []
    master: Optional[random.Random] = None
    while k > bound:
        if clock.now() >= deadline:
            break
        if master is None:
            master = random.Random(seed)
        target = k - 1
        init = project_coloring(g, best, target)
        level_seed = master.getrandbits(64)
        outcome = run(g, target, init, params, level_seed, clock=clock, deadline=deadline)
        trace.append(outcome)
        if outcome.conflicts != 0:
            break
        best = outcome.coloring
        k = target
    return best, k, trace
