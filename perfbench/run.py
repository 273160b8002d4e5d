"""Fixed-work benchmark of chroma's DSJC protocol.

    python3 perfbench/run.py --workload dsjc-ts --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. The run generates its input files from the seed, loads them
through ``chroma.load_instance`` (timed as set-up), then runs the
workload's cells serially through ``chroma.bench.run_cell``, the code path
of ``chroma solve`` and of each ``chroma bench`` worker, in rounds until
``--seconds`` have passed. One process, no threads.

``CHROMA_VIRTUAL_CLOCK=1`` is set, so every wall budget and ILS deadline
counts objective evaluations (1 ms each) and a cell does the same work on
every run and every machine. Under the wall clock a faster search would do
more evaluations in the same budget and no speed-up could show in time.
Cells are timed from outside with ``time.perf_counter``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the last line reports
the per-layer metrics (see spans.py). Lines before it list each cell's work
(k, evaluations, levels, a digest of the returned coloring) and a digest of
them all: under the virtual clock it repeats exactly for a given seed, so two
runs can be shown to have done the same work, and a change of trajectory shows.
Every round must repeat the first round's work.

Exit status is 0 with a result line, 2 (and no result line) when the
package cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

sys.dont_write_bytecode = True
import spans  # noqa: E402  (after the flag, so no bytecode is written)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# DSJC instances are G(n, p) graphs by construction (Johnson et al. 1991).
DSJC_SHAPES = ((125, 0.1), (125, 0.5), (125, 0.9), (250, 0.1), (250, 0.5), (250, 0.9))
ORACLE_GRAPHS = 30
ORACLE_VERTICES = 9

# Before each round, set-up is repeated for at least this long; its median
# over the run is reported, so set-up is sampled across the run as rounds are.
SETUP_SECONDS_PER_ROUND = 0.2


@dataclass(frozen=True)
class Workload:
    family: str         # "dsjc" (six G(n, p) stand-ins) or "oracle" (G(9, 0.5) graphs)
    methods: tuple
    budget: float       # virtual seconds per cell: thousands of evaluations
    overrides: dict     # SolverParams fields other than the defaults


WORKLOADS = {
    # TS reaches the budget on every cell: ts_iterations is raised as
    # `chroma solve --ts-iterations` does. Each applied move costs 10 `delta`
    # calls and 10 O(n) FNV-1a fingerprints, so the fingerprint dominates.
    "dsjc-ts": Workload("dsjc", ("TS",), 2.0, {"ts_iterations": 1_000_000}),
    # Default parameters. SA is write-heavy (most moves accepted); HC and
    # ILS's inner climb are read-heavy. Only ILS home bases are fingerprinted,
    # so this is the control for dsjc-ts.
    "dsjc-climb": Workload("dsjc", ("HC", "SA", "ILS"), 5.0, {}),
    # Small graphs whose chromatic number is known; nearly every evaluation
    # lands on the final, failing palette level.
    "oracle-small": Workload("oracle", ("HC", "SA", "TS", "ILS"), 10.0, {}),
}


@dataclass
class Instance:
    path: Path
    graph: object      # the generated graph: reference for every check
    lower: int         # chromatic number (oracle) or a greedy clique size (dsjc)
    upper: int         # DSatur's color count, where the k-reduction starts
    seed: int          # solver seed of this instance's cells


@dataclass
class Round:
    times: list        # seconds per cell, in cell order
    work: list         # (instance, method, k, evaluations, levels, coloring digest)
    failures: list     # messages of failed cells
    summary: object = None   # spans.Summary of a traced round


def import_chroma():
    """Import the package from this checkout's src/, or exit with status 2."""
    if not (SRC_DIR / "chroma" / "__init__.py").is_file():
        print(f"error: chroma package not found under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))
    chroma = importlib.import_module("chroma")
    if Path(chroma.__file__).resolve().parent != SRC_DIR / "chroma":
        print(f"error: imported chroma from {chroma.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        raise SystemExit(2)
    return chroma


def greedy_clique_size(graph) -> int:
    """Size of a clique grown greedily from each vertex: a lower bound on k."""
    adjacency = [set(neighbors) for neighbors in graph.adjacency]
    best = 1 if adjacency else 0
    for v, neighbors in enumerate(adjacency):
        size = 1
        candidates = neighbors
        for u in sorted(neighbors, key=lambda w: (-len(adjacency[w]), w)):
            if u in candidates:
                size += 1
                candidates = candidates & adjacency[u]
        best = max(best, size)
    return best


def write_instance(chroma, directory: Path, name: str, graph, comment: str) -> Path:
    edges = [(u, v) for u, neighbors in enumerate(graph.adjacency) for v in neighbors if u < v]
    path = directory / f"{name}.col"
    path.write_text(chroma.render_dimacs(graph.vertex_count, edges, comment))
    return path


def generate(chroma, family: str, seed: int, directory: Path) -> list:
    """Write the family's .col files from the seed; both dsjc workloads share them."""
    rng = random.Random(f"{family}:{seed}")
    if family == "dsjc":
        shapes = [(f"DSJC{n}.{round(p * 10)}", n, p) for n, p in DSJC_SHAPES]
    else:
        shapes = [(f"G9-{i:02d}", ORACLE_VERTICES, 0.5) for i in range(ORACLE_GRAPHS)]
    instances = []
    for name, n, p in shapes:
        graph_seed = rng.getrandbits(32)
        graph = chroma.random_graph(n, p, graph_seed)
        if family == "dsjc":
            lower = greedy_clique_size(graph)
        else:
            lower, _ = chroma.chromatic_number_exact(graph)
        path = write_instance(chroma, directory, name, graph,
                              f"G({n}, {p}) with seed {graph_seed}")
        upper = chroma.color_count(chroma.dsatur(graph))
        instances.append(Instance(path, graph, lower, upper, rng.getrandbits(32)))
    return instances


def span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def load_all(chroma, instances: list, tracer=None) -> tuple:
    """Load every instance file once; returns (records, seconds)."""
    records = []
    start = perf_counter()
    for inst in instances:
        with span(tracer, "dimacs.load"):
            records.append(chroma.load_instance(inst.path))
    return records, perf_counter() - start


def measure_setup(chroma, instances: list, tracer=None) -> tuple:
    """Repeat set-up for SETUP_SECONDS_PER_ROUND; returns (records, per-rep
    seconds, per-rep span summaries, problems), a problem being a loaded graph
    that differs from the generated one."""
    times, summaries, problems = [], [], set()
    while sum(times) < SETUP_SECONDS_PER_ROUND:
        gc.collect()
        records, seconds = load_all(chroma, instances, tracer)
        times.append(seconds)
        if tracer is not None:
            summaries.append(tracer.drain())
        for inst, record in zip(instances, records):
            if record.graph != inst.graph:
                problems.add(f"{inst.path.name}: loaded graph differs from the generated one")
    return records, times, summaries, problems


class Capture:
    """Stands in for bench.solve_k_reduction and keeps its last result.

    run_cell returns only k; the coloring and the per-level outcomes it
    discards are what the checks and the work digest need.
    """

    def __init__(self, solve):
        self.solve = solve
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.solve(*args, **kwargs)
        return self.last


def check_cell(inst: Instance, result, captured) -> Optional[str]:
    """Why the cell's output is wrong, or None when it passes every check."""
    if captured is None:
        return "solver result was not observed"
    coloring, k, _levels = captured
    if not result.proper or result.k_colors != k:
        return f"run_cell reported k={result.k_colors}, the solver k={k}"
    adjacency = inst.graph.adjacency
    if len(coloring) != len(adjacency) or any(not 0 <= c < k for c in coloring):
        return f"coloring is not a {k}-coloring of {len(adjacency)} vertices"
    if any(coloring[u] == coloring[v] for u, neighbors in enumerate(adjacency) for v in neighbors):
        return "coloring is improper"
    if not inst.lower <= k <= inst.upper:
        return f"k={k} outside [{inst.lower}, {inst.upper}]"
    return None


def run_round(chroma, cells: list, records: list, instances: list, params,
              capture: Capture, tracer=None) -> Round:
    out = Round([], [], [])
    for index, method in cells:
        inst, record = instances[index], records[index]
        capture.last = None
        error = None
        start = perf_counter()
        try:
            with span(tracer, "bench.cell"):
                result = chroma.bench.run_cell(record, method, inst.seed, params)
        except Exception as exc:  # a failing cell is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        out.times.append(perf_counter() - start)
        if error is None:
            error = check_cell(inst, result, capture.last)
        if error is None:
            coloring, k, levels = capture.last
            evals = sum(level.evaluations for level in levels)
            out.work.append((record.name, method, k, evals, len(levels), digest(coloring)))
        else:
            out.work.append((inst.path.stem, method, "failed"))
            out.failures.append(f"{inst.path.stem} {method}: {error}")
    if tracer is not None:
        out.summary = tracer.drain()
    return out


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def interquartile_mean(values: list) -> float:
    """Mean of the middle half. Cell times cluster by method and graph size,
    so the plain median jumps between clusters when a seed moves one cell."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def end_to_end(rounds: list, setup_times: list) -> dict:
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    ks = [w[2] for w in rounds[0].work if w[2] != "failed"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median([sum(r.times) for r in rounds]), "s"),
        "cell_s_iqm": (statistics.median([interquartile_mean(r.times) for r in rounds]), "s"),
        "colors_mean": (statistics.fmean(ks) if ks else 0.0, "colors"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


METHOD_LAYERS = ("ts", "hc", "sa", "ils")


def round_layers(s) -> dict:
    """Per-layer values of one traced round (a spans.Summary)."""
    out = {}
    for m in METHOD_LAYERS:
        name = f"search.{m}"
        out[f"{name}.self_s"] = s.self_time[name]
        out[f"{name}.evals_per_s"] = ratio(s.counts[f"{name}.evals"], s.total[name])
    out["search.fingerprint.calls"] = s.calls["search.fingerprint"]
    out["search.fingerprint.self_s"] = s.self_time["search.fingerprint"]
    out["search.ts.fingerprint_share"] = ratio(
        s.child_total[("search.ts", "search.fingerprint")], s.total["search.ts"])
    evals = sum(s.counts[f"search.{m}.evals"] for m in METHOD_LAYERS)
    failed = sum(s.counts[f"search.{m}.failed_evals"] for m in METHOD_LAYERS)
    out["search.levels"] = sum(s.calls[f"search.{m}"] for m in METHOD_LAYERS)
    out["search.evals"] = evals
    out["search.failed_level_share"] = ratio(failed, evals)
    out["heuristics.dsatur_s"] = s.total["heuristics.dsatur"]
    out["search.project_s"] = s.total["search.project"]
    out["graph.is_proper_s"] = s.total["graph.is_proper"]
    out["bench.cell_self_s"] = s.self_time["bench.cell"]
    return out


def setup_layers(s) -> dict:
    return {
        "dimacs.parse_s": s.total["dimacs.parse"],
        "dimacs.edges_per_s": ratio(s.counts["dimacs.parse.edges"], s.total["dimacs.parse"]),
        "graph.build_s": s.total["graph.build"],
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac")):
        return "frac"
    return "count"


def per_layer(setup_summaries: list, traced: list, untraced: list) -> dict:
    rows = [setup_layers(s) for s in setup_summaries] + [round_layers(r.summary) for r in traced]
    names = list(setup_layers(setup_summaries[0])) + list(round_layers(traced[0].summary))
    out = {}
    for name in names:
        out[name] = (statistics.median([row[name] for row in rows if name in row]), unit_of(name))
    traced_solve = statistics.median([sum(r.times) for r in traced])
    untraced_solve = statistics.median([sum(r.times) for r in untraced])
    out["trace.overhead_frac"] = (traced_solve / untraced_solve - 1.0, "frac")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    chroma = import_chroma()
    os.environ["CHROMA_VIRTUAL_CLOCK"] = "1"
    workload = WORKLOADS[workload_name]
    params = chroma.SolverParams(wall_budget_seconds=workload.budget, **workload.overrides)
    capture = Capture(chroma.bench.solve_k_reduction)
    chroma.bench.solve_k_reduction = capture
    tracer = spans.Tracer() if trace else None

    setup_times, setup_summaries, problems = [], [], set()
    untraced, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        instances = generate(chroma, workload.family, seed, Path(tmp))
        cells = [(i, m) for i in range(len(instances)) for m in workload.methods]
        deadline = perf_counter() + seconds
        while not untraced or perf_counter() < deadline:
            with spans.instrument(tracer) if tracer else contextlib.nullcontext():
                records, times, summaries, bad = measure_setup(chroma, instances, tracer)
            setup_times += times
            setup_summaries += summaries
            problems |= bad
            gc.collect()
            untraced.append(run_round(chroma, cells, records, instances, params, capture))
            if tracer is not None:
                gc.collect()
                with spans.instrument(tracer):
                    traced.append(run_round(chroma, cells, records, instances, params,
                                            capture, tracer))

    rounds = untraced + traced
    reference = rounds[0].work
    problems = sorted(problems) + [f"round {i} did different work from round 0"
                                   for i, r in enumerate(rounds) if r.work != reference]
    failures = [f for r in rounds for f in r.failures]
    for entry in reference:
        print("cell", " ".join(str(x) for x in entry))
    print(f"workload {workload_name} seed {seed}: {len(cells)} cells per round, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds, "
          f"{len(setup_times)} set-ups")
    print(f"digest {digest(reference)}")
    cell_times = sorted(t for r in untraced for t in r.times)
    print(f"untraced cell seconds over {len(cell_times)} cells: "
          f"p50 {statistics.median(cell_times):.6g}, "
          f"p90 {statistics.quantiles(cell_times, n=10)[-1]:.6g}")
    for message in sorted(set(failures)) + problems:
        print(f"FAILED {message}", file=sys.stderr)

    metrics = (end_to_end(untraced, setup_times) if tracer is None
               else per_layer(setup_summaries, traced, untraced))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not failures and not problems,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
