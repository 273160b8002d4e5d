"""Graph vertex coloring via single-state metaheuristics.

Core surface: an immutable Graph of a vertex count and neighbor bitsets, a
seeded G(n, p) generator, DIMACS .col parsing, the DSatur coloring, a
chromatic lower bound (exact up to 16 vertices), an exact small-graph
chromatic-number oracle, four fixed-palette conflict-minimization searches
(HC, SA, TS, ILS) under a k-reduction driver, and a benchmark harness with
CSV/JSON reporting.
"""

from .bench import RunResult, diff_percent, run_benchmark, compare_report
from .clock import VirtualClock, WallClock, make_clock
from .dimacs import (BEST_KNOWN_COLORS, DimacsError, InstanceRecord,
                     load_instance, parse_dimacs, render_dimacs)
from .graph import Coloring, Graph, build_graph, color_count, is_proper, random_graph
from .heuristics import chromatic_lower_bound, chromatic_number_exact, dsatur
from .search import (METHODS, SearchOutcome, SolverParams, hill_climbing,
                     iterated_local_search, project_coloring,
                     simulated_annealing, solve_k_reduction, tabu_search)

__version__ = "0.1.0"

__all__ = [
    "BEST_KNOWN_COLORS", "Coloring", "DimacsError", "Graph",
    "InstanceRecord", "METHODS", "RunResult", "SearchOutcome", "SolverParams",
    "VirtualClock", "WallClock", "build_graph", "chromatic_lower_bound",
    "chromatic_number_exact", "color_count", "compare_report", "diff_percent",
    "dsatur", "hill_climbing", "is_proper", "iterated_local_search",
    "load_instance", "make_clock", "parse_dimacs", "project_coloring",
    "random_graph", "render_dimacs", "run_benchmark", "simulated_annealing",
    "solve_k_reduction", "tabu_search",
]
