"""Seeded random instance generators for benchmarks and tests."""

from __future__ import annotations

import random

from .graph import Graph, build_graph


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the n*(n-1)/2 edges drawn independently."""
    rng = random.Random(seed)
    # build_graph reads each pair once, so no list of them is held
    edges = (
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return build_graph(n, edges)

