"""In-memory spans around chroma's public layer functions.

Tracing works from outside the program: `instrument` rebinds the module
attributes through which chroma reaches each layer function (for example
``chroma.search.coloring_fingerprint``, which `tabu_search` looks up as a
module global on every call) to a wrapper that records a span, and restores
the originals on exit. Nothing in the package itself is changed.

A span is (name, start, end, parent index); a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional

# (module, attribute, span name): functions reached through a module global.
LAYERS = (
    ("chroma.dimacs", "parse_dimacs", "dimacs.parse"),
    ("chroma.dimacs", "build_graph", "graph.build"),
    ("chroma.search", "dsatur", "heuristics.dsatur"),
    ("chroma.search", "project_coloring", "search.project"),
    ("chroma.search", "coloring_fingerprint", "search.fingerprint"),
    ("chroma.bench", "is_proper", "graph.is_proper"),
)

# solve_k_reduction picks the method function from this table on every level.
METHOD_TABLE = ("chroma.search", "_METHOD_FUNCS")

Counter = Callable[[object], dict]


def _method_counts(outcome) -> dict:
    failed = outcome.evaluations if outcome.conflicts else 0
    return {"evals": outcome.evaluations, "failed_evals": failed}


def _parse_counts(parsed) -> dict:
    return {"edges": len(parsed.edges)}


COUNTERS: dict[str, Counter] = {"dimacs.parse": _parse_counts}


@dataclass
class Summary:
    """Per-name aggregates of a batch of spans."""

    total: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    # (parent name, child name) -> summed child duration
    child_total: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Records spans in memory; `drain` aggregates and forgets them."""

    def __init__(self) -> None:
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counts: dict = defaultdict(int)

    def _open(self, name: str) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self._spans[index][2] = perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                for key, value in counter(result).items():
                    self._counts[f"{name}.{key}"] += value
            return result
        return traced

    def drain(self) -> Summary:
        if self._stack:
            raise RuntimeError("drain called with spans still open")
        out = Summary()
        spans = self._spans
        child_sum = [0.0] * len(spans)
        for name, start, end, parent in spans:
            duration = end - start
            out.total[name] += duration
            out.calls[name] += 1
            if parent >= 0:
                child_sum[parent] += duration
                out.child_total[(spans[parent][0], name)] += duration
        for (name, start, end, _parent), children in zip(spans, child_sum):
            out.self_time[name] += (end - start) - children
        out.counts.update(self._counts)
        self._spans = []
        self._counts = defaultdict(int)
        return out


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind chroma's layer entry points to traced wrappers for the duration.

    An entry point the package no longer has is left untraced, so its layer
    reads zero instead of the run failing.
    """
    saved = []
    for module_name, attr, span_name in LAYERS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            saved.append((module, attr, getattr(module, attr), span_name))
    table = getattr(importlib.import_module(METHOD_TABLE[0]), METHOD_TABLE[1], {})
    originals = dict(table)
    try:
        for module, attr, original, span_name in saved:
            setattr(module, attr, tracer.wrap(span_name, original, COUNTERS.get(span_name)))
        for method, fn in originals.items():
            table[method] = tracer.wrap(f"search.{method.lower()}", fn, _method_counts)
        yield
    finally:
        for module, attr, original, _ in saved:
            setattr(module, attr, original)
        table.update(originals)
