"""How often does each method reach the exact chromatic number on tiny graphs?

Draws random G(n, p) graphs small enough for the exact backtracking solver,
runs every method with a per-cell budget, and tallies how many cells land on
the optimum. Useful for eyeballing method quality before touching the real
benchmark instances.

Usage: python scripts/oracle_check.py [--graphs 30] [--size 9] [--p 0.5]
           [--budget 10]
"""

import argparse
import sys
from collections import Counter

from chroma import (METHODS, SolverParams, chromatic_number_exact, is_proper,
                    random_graph, solve_k_reduction)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graphs", type=int, default=30)
    ap.add_argument("--size", type=int, default=9)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--budget", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    params = SolverParams(wall_budget_seconds=args.budget)
    hits: Counter[str] = Counter()
    gaps: Counter[str] = Counter()
    for i in range(args.graphs):
        g = random_graph(args.size, args.p, seed=args.seed + i)
        chi, _ = chromatic_number_exact(g)
        marks = []
        for method in METHODS:
            coloring, k, _ = solve_k_reduction(g, method, params, seed=1)
            assert is_proper(g, coloring)
            if k == chi:
                hits[method] += 1
            else:
                gaps[method] += k - chi
            marks.append(f"{method}:{'ok' if k == chi else 'miss'}")
        print(f"graph {i + 1}/{args.graphs}: chi={chi}  " + "  ".join(marks))

    print()
    for method in METHODS:
        rate = hits[method] / args.graphs
        print(f"{method:>3}: optimum in {hits[method]}/{args.graphs} "
              f"({rate:.0%}), total excess colors {gaps[method]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
