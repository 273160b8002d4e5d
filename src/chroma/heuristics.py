"""DSatur's constructive coloring, a chromatic lower bound and an exact
small-instance chromatic-number oracle.

DSatur repeatedly colors the uncolored vertex with the highest saturation
degree (count of distinct colors among already-colored neighbors), breaking
ties by degree within the uncolored subgraph and then by lowest vertex index,
and assigns the smallest color absent from its neighborhood (Brelaz 1979).
One integer priority per vertex, saturation * n + uncolored degree, ranks
saturation first and uncolored degree second, as that degree is below n. The
result is always proper and never uses more than max_degree + 1 colors.

A clique of size s needs s distinct colors, so the clique number is a lower
bound on the chromatic number. On small graphs chromatic_lower_bound tries it
first and computes the exact chromatic number only when the clique number
stops short of a known coloring's color count.
"""

from __future__ import annotations

from typing import Optional

from .graph import Coloring, Graph

EXACT_VERTEX_LIMIT = 16


def dsatur(g: Graph) -> Coloring:
    """Saturation-degree greedy coloring (Brelaz tie-breaking rule): seen[v] is
    the bitset of the colors on v's colored neighbors; v takes its lowest 0 bit."""
    n = g.vertex_count
    colors: Coloring = [-1] * n
    seen = [0] * n
    priority = [len(g.adjacency[v]) for v in range(n)]
    uncolored = list(range(n))
    while uncolored:
        v = max(uncolored, key=priority.__getitem__)  # first of equals: lowest index
        uncolored.remove(v)
        c = ((seen[v] + 1) & ~seen[v]).bit_length() - 1
        colors[v] = c
        bit = 1 << c
        for u in g.adjacency[v]:
            if colors[u] < 0:
                priority[u] -= 1
                if not seen[u] & bit:
                    seen[u] |= bit
                    priority[u] += n
    return colors


def chromatic_lower_bound(g: Graph, upper: int) -> int:
    """A lower bound on g's chromatic number, given `upper` colors that suffice.

    `upper` is the color count of a known proper coloring (the driver passes
    DSatur's). Up to EXACT_VERTEX_LIMIT vertices the bound is the chromatic
    number itself. The clique number comes first, found by a bitset branch
    and bound in the style of MCQ (Tomita & Seki 2003): it is cheap, and a
    clique of size s needs s colors, so when it reaches `upper` it is the
    answer. Only when it falls short is the exact chromatic number computed.
    Larger graphs get the trivial bound: 2 if g has an edge, else 1.
    """
    if g.vertex_count > EXACT_VERTEX_LIMIT:
        return 2 if g.edge_count else 1
    omega = _clique_number(g)
    if omega >= upper:
        return omega
    return chromatic_number_exact(g)[0]


def _clique_number(g: Graph) -> int:
    """Exact clique number by branch and bound over vertex bitsets.

    A branch is cut once its clique size plus the count of its remaining
    candidates cannot beat the best clique found so far.
    """
    neighbors = g.neighbor_masks
    best = 0

    def expand(size: int, candidates: int) -> None:
        nonlocal best
        if not candidates:
            best = max(best, size)
            return
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            v = candidates.bit_length() - 1
            candidates ^= 1 << v
            expand(size + 1, candidates & neighbors[v])

    expand(0, (1 << g.vertex_count) - 1)
    return best


def _k_colorable(g: Graph, k: int, order: list[int]) -> Optional[Coloring]:
    """Backtracking witness search for a proper k-coloring, or None.

    Color symmetry is broken by never introducing more than one new color
    per branch point.
    """
    n = g.vertex_count
    colors: Coloring = [-1] * n

    def assignable(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        forbidden = {colors[u] for u in g.adjacency[v] if colors[u] >= 0}
        top = min(k - 1, used)  # `used` doubles as the first fresh color index
        for c in range(top + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if assignable(idx + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return list(colors) if assignable(0, 0) else None


def chromatic_number_exact(g: Graph, limit: int = EXACT_VERTEX_LIMIT) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness coloring, by backtracking over
    k = 1, 2, ...

    Refuses graphs larger than `limit` vertices to prevent accidental
    exponential blowup.
    """
    n = g.vertex_count
    if n > limit:
        raise ValueError(
            f"exact solver refuses {n} vertices (limit {limit}); "
            "it is exponential by nature"
        )
    if n == 0:
        return 0, []
    # high-degree-first ordering fails sooner on infeasible k
    order = sorted(range(n), key=lambda v: len(g.adjacency[v]), reverse=True)
    k = 1
    while True:
        witness = _k_colorable(g, k, order)
        if witness is not None:
            return k, witness
        k += 1
