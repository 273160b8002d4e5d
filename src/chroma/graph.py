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
    """Undirected simple graph in adjacency-list form.

    Adjacency lists are sorted ascending and contain no duplicates or
    self-loops; the structure is immutable and safe to share across
    concurrent solver runs.

    `neighbor_masks` is the same adjacency as one int bitset per vertex. It
    is a lazy cache, built on first use and never at construction: it is not
    a field, so it takes no part in equality, hashing or repr. The
    k-reduction's start (`chroma.search.dsatur_start`: DSatur's coloring, its
    color count and the chromatic lower bound) is a second cache of the same
    kind, kept in the instance __dict__ beside it; a pickled graph carries
    both.
    """

    vertex_count: int
    edge_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """masks[v] has bit u set exactly when u is a neighbor of v."""
        # int() parses a binary digit string per vertex: on dense graphs this
        # is 2-3x faster than summing one shifted bit per neighbor
        zeros = b"0" * self.vertex_count
        masks = []
        for neighbors in self.adjacency:
            digits = bytearray(zeros)
            for u in neighbors:
                digits[u] = 49  # ord("1")
            digits.reverse()  # digit u from the right is bit u
            masks.append(int(digits, 2))
        return tuple(masks)


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

    The endpoints are trusted, not checked: each must lie in
    [0, vertex_count) and no edge may be a self-loop. `build_graph` checks
    them for any caller; both DIMACS parse paths refuse every other edge.
    """
    lists: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in zip(us, vs):
        lists[u].append(v)
        lists[v].append(u)
    adjacency = tuple(tuple(sorted(set(neighbors))) for neighbors in lists)
    return Graph(vertex_count, sum(map(len, adjacency)) // 2, adjacency)


def _check_length(g: Graph, colors: Sequence[int]) -> None:
    if len(colors) != g.vertex_count:
        raise ValueError(
            f"coloring has length {len(colors)}, graph has {g.vertex_count} vertices"
        )


def is_proper(g: Graph, colors: Sequence[int]) -> bool:
    """True iff no edge joins two vertices of the same color."""
    _check_length(g, colors)
    for u in range(g.vertex_count):
        cu = colors[u]
        for v in g.adjacency[u]:
            if v > u and colors[v] == cu:
                return False
    return True


def color_count(colors: Sequence[int]) -> int:
    """Number of distinct color values present in a nonempty coloring."""
    if not colors:
        raise ValueError("color_count of an empty coloring is undefined")
    return len(set(colors))

