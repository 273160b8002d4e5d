"""DSatur's constructive coloring, a chromatic lower bound and an exact
small-instance chromatic-number oracle.

DSatur repeatedly colors the uncolored vertex with the highest saturation
degree (count of distinct colors among already-colored neighbors), breaking
ties by degree within the uncolored subgraph and then by lowest vertex index,
and assigns the smallest color absent from its neighborhood (Brelaz 1979).
The saturation and the uncolored degree are kept as two bit-sliced counters
over the vertex bitsets of `Graph.neighbor_masks`, in the style of San
Segundo et al.'s BBMC (2011): plane j of a counter is the bitset of the
vertices whose count has bit j set. A pick is one AND per plane, and the
lowest set bit of what remains is the tie-break by lowest index; coloring a
vertex updates each counter in one carry or borrow chain, with no step per
neighbor. The result is always proper and never uses more than
max_degree + 1 colors.

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
    """Saturation-degree greedy coloring (Brelaz's rule, lowest-index ties).

    `saturation` and `degree` (the uncolored degree) are bit-sliced counters,
    their planes most significant first: a vertex's count is read down its
    bit in each plane. near[c] is the bitset of the vertices with a neighbor
    colored c. The pick starts from the uncolored set and, plane by plane,
    saturation's and then degree's, keeps only the vertices with the plane's
    bit set whenever any has it. That leaves the vertices that rank highest,
    and v is the lowest set bit among them. Its saturation s is read on the
    way: when s equals the colors used so far, v takes a new color, else the
    first c whose near[c] lacks v. Coloring v subtracts its uncolored
    neighbors from `degree` in one borrow chain and adds those not yet near
    c to `saturation` in one carry chain.
    """
    n = g.vertex_count
    masks = g.neighbor_masks
    colors: Coloring = [0] * n
    degree = _count(masks)
    top_plane = len(degree) - 1
    saturation: list[int] = []
    near: list[int] = []
    uncolored = (1 << n) - 1
    while uncolored:
        pick = uncolored
        s = 0
        for plane in saturation:
            s += s
            top = pick & plane
            if top:
                pick = top
                s += 1
        for plane in degree:
            top = pick & plane
            if top:
                pick = top
        bit = pick & -pick
        uncolored ^= bit
        if s == len(near):  # every color so far is on a neighbor
            c = s
            near.append(0)
        else:
            c = 0
            while near[c] & bit:
                c += 1
        v = bit.bit_length() - 1
        colors[v] = c
        mask = masks[v]
        borrow = touched = mask & uncolored
        j = top_plane
        # each vertex in `touched` counts v, so its count is at least 1 and
        # the borrow ends within the planes
        while borrow:
            degree[j] = plane = degree[j] ^ borrow
            borrow &= plane  # a bit that went from 0 to 1 borrows on
            j -= 1
        was = near[c]
        near[c] = now = was | mask
        carry = touched & (now ^ was)
        j = len(saturation) - 1
        while carry:
            if j < 0:
                saturation.insert(0, carry)
                break
            plane = saturation[j]
            saturation[j] = plane ^ carry
            carry &= plane
            j -= 1
    return colors


def _count(masks: tuple[int, ...]) -> list[int]:
    """The bit-sliced counter, most significant plane first, of how many of
    `masks` hold each vertex: every mask is added in a carry chain."""
    planes: list[int] = []  # least significant first while adding
    for carry in masks:
        j = 0
        for plane in planes:
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
            j += 1
        if carry:  # a carry out of the top plane
            planes.append(carry)
    planes.reverse()
    return planes


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
        return 2 if any(g.neighbor_masks) else 1
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

    classes[c] is the bitset of the vertices colored c so far, so c is free
    for v when v's mask misses it. Color symmetry is broken by never
    introducing more than one new color per branch point.
    """
    n = g.vertex_count
    masks = g.neighbor_masks
    colors: Coloring = [-1] * n
    classes = [0] * k

    def assignable(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        mask = masks[v]
        bit = 1 << v
        top = min(k - 1, used)  # `used` doubles as the first fresh color index
        for c in range(top + 1):
            if mask & classes[c]:
                continue
            colors[v] = c
            classes[c] |= bit
            if assignable(idx + 1, max(used, c + 1)):
                return True
            classes[c] ^= bit
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
    masks = g.neighbor_masks
    order = sorted(range(n), key=lambda v: masks[v].bit_count(), reverse=True)
    k = 1
    while True:
        witness = _k_colorable(g, k, order)
        if witness is not None:
            return k, witness
        k += 1
