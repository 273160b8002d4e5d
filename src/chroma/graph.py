"""Immutable undirected simple graph and coloring-quality measurements.

A coloring is a plain list of color indices, one per vertex. Palette indices
are 0-based: a palette of size k is exactly {0, ..., k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Coloring = list[int]


class GraphError(ValueError):
    """Raised when a graph cannot be constructed from the given edges."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph stored as one int bitset per vertex.

    neighbor_masks[v] has bit u set exactly when u is a neighbor of v; no
    mask holds its own vertex, and u is in v's mask exactly when v is in
    u's. Equality, hashing and repr follow the masks. The structure is
    immutable and safe to share across concurrent solver runs; DSatur, the
    clique bound, the exact oracle, projection, `is_proper` and every search
    read the masks alone.

    `adjacency` is a derived view for readers outside the solve path. The
    k-reduction's start (`chroma.search.dsatur_start`: DSatur's coloring, its
    color count and the chromatic lower bound) is a cache kept in the
    instance __dict__, so it takes no part in equality, hashing or repr, and
    a pickled graph carries it.
    """

    vertex_count: int
    edge_count: int
    neighbor_masks: tuple[int, ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[v] lists v's neighbors in increasing order.

        Read off the masks on first use and then cached. It costs more than
        building the masks did, so nothing in the package reads it.
        """
        lists = []
        for mask in self.neighbor_masks:
            digits = f"{mask:b}"[::-1]  # digit u is bit u
            neighbors = []
            u = digits.find("1")
            while u >= 0:
                neighbors.append(u)
                u = digits.find("1", u + 1)
            lists.append(tuple(neighbors))
        return tuple(lists)


def build_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, collapsing duplicate edges.

    Raises GraphError for out-of-range endpoints or self-loops, naming the
    offending pair.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be nonnegative, got {vertex_count}")
    us: list[int] = []
    vs: list[int] = []
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(
                f"edge ({u}, {v}) out of range for {vertex_count} vertices"
            )
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        us.append(u)
        vs.append(v)
    return graph_from_endpoints(vertex_count, us, vs)


def graph_from_endpoints(vertex_count: int, us: Sequence[int],
                         vs: Sequence[int]) -> Graph:
    """The graph whose edge i joins us[i] and vs[i], duplicates collapsed.

    Each edge sets one bit in each endpoint's mask; OR-ing a bit in again
    changes nothing, so a duplicate edge, in either orientation, collapses
    with no step of its own. The endpoints are trusted, not checked: each
    must lie in [0, vertex_count) and no edge may be a self-loop.
    `build_graph` checks them for any caller; both DIMACS parse paths refuse
    every other edge.
    """
    bit = [1 << v for v in range(vertex_count)]
    masks = [0] * vertex_count
    for u, v in zip(us, vs):
        masks[u] |= bit[v]
        masks[v] |= bit[u]
    return Graph(vertex_count, sum(map(int.bit_count, masks)) // 2, tuple(masks))


def _check_length(g: Graph, colors: Sequence[int]) -> None:
    if len(colors) != g.vertex_count:
        raise ValueError(
            f"coloring has length {len(colors)}, graph has {g.vertex_count} vertices"
        )


def is_proper(g: Graph, colors: Sequence[int]) -> bool:
    """True iff no edge joins two vertices of the same color.

    Each color's class is one bitset, built from `colors`; a vertex's mask
    AND its own class holds exactly its same-colored neighbors.
    """
    _check_length(g, colors)
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    masks = g.neighbor_masks
    for v, c in enumerate(colors):
        if masks[v] & classes[c]:
            return False
    return True


def color_count(colors: Sequence[int]) -> int:
    """Number of distinct color values present in a nonempty coloring."""
    if not colors:
        raise ValueError("color_count of an empty coloring is undefined")
    return len(set(colors))

