"""Mutation checks: does each named defect fail the tests meant to catch it?

Each mutant is one exact source-text replacement in one file, with the tests
that must fail once it is applied. For every mutant the script copies
src/, tests/, scripts/, data/ and pyproject.toml to a temporary directory,
applies the replacement there and runs each named test on its own. A test
run that outlasts TIMEOUT_SECONDS is stopped and counts as failing.
Hypothesis runs with a fixed seed, so a run can be repeated.

Exit status 1 if a mutant survives (one of its tests passes), if the text it
replaces does not occur exactly once in its file, or if a named test fails on
the unmutated tree; 0 otherwise. Needs only the stdlib and the test
dependencies (pytest, hypothesis). The repository tree itself is never
modified.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "data")
# seconds allowed to one pytest run, the unmutated tree's run of every named
# test included
TIMEOUT_SECONDS = 300

SEARCH = "src/chroma/search.py"
HEURISTICS = "src/chroma/heuristics.py"
BENCH = "src/chroma/bench.py"
CLI = "src/chroma/cli.py"
DIMACS = "src/chroma/dimacs.py"
GRAPH = "src/chroma/graph.py"
CLOCK = "src/chroma/clock.py"

CLIMB_KERNEL = "tests/test_search.py::TestMoveKernel::test_hill_climbing"
TS_KERNEL = "tests/test_search.py::TestMoveKernel::test_tabu_search"
GOLDEN = "tests/test_golden.py::test_golden_trajectory"
ORACLE = "tests/test_acceptance.py::test_criterion_2_oracle_equivalence_at_desk_scale"
REPORT_ROWS = ("tests/test_cli.py::TestBenchAndReport::"
               "test_report_malformed_row_exits_2_naming_its_line")
STRICT_CASES = "tests/test_dimacs.py::TestStrictPath::test_agrees_on_the_edge_cases"
STRICT_FUZZ = "tests/test_dimacs.py::TestStrictPath::test_agrees_with_the_line_parser"
MANIFEST_ERRORS = "tests/test_bench.py::TestManifest::test_rejects_malformed"
EVERY_KEY = "tests/test_bench.py::TestManifest::test_every_key_reaches_params"
INT_FLAGS = "tests/test_cli.py::TestSolve::test_an_int_flag_int_reads_but_dimacs_does_not_exits_2"
ASCII_NUMBERS = ("tests/test_dimacs.py::TestParse::test_numbers_are_ascii_digits",
                 "tests/test_dimacs.py::TestReferenceTable::test_bad_count_names_its_line",
                 "tests/test_cli.py::TestSolve::"
                 "test_a_number_int_reads_but_dimacs_does_not_exits_2",
                 MANIFEST_ERRORS, REPORT_ROWS, INT_FLAGS)
FLOAT_TEXT = ("tests/test_dimacs.py::TestParse::"
              "test_a_float_with_underscores_non_ascii_or_spaces_is_refused",
              "tests/test_cli.py::TestSolve::"
              "test_a_float_flag_float_reads_but_chroma_does_not_exits_2",
              MANIFEST_ERRORS, REPORT_ROWS)
EMPTY_SKIPPED = ("tests/test_bench.py::TestRunBenchmark::"
                 "test_an_empty_graph_is_skipped_naming_its_file",
                 "tests/test_cli.py::TestBenchAndReport::"
                 "test_an_empty_instance_is_skipped_and_the_run_continues")

MASKS_REFERENCE = ("tests/test_graph.py::TestNeighborMasks::"
                   "test_equal_a_set_of_pairs_reference")
DSATUR_RULE = "tests/test_heuristics.py::TestDsatur::test_matches_the_rule_read_literally"
DSATUR_WIDE = "tests/test_heuristics.py::TestDsatur::test_matches_the_rule_past_one_int_digit"

STRICT_CAP = ("    if vertex_count > MAX_VERTICES:\n"
              "        return None  # the line parser names the p line\n")
ENDPOINT_TABLE = "    index = {str(v): v - 1 for v in range(1, vertex_count + 1)}\n"
CHECKED_ENDPOINTS = ("tests/test_dimacs.py::TestCheckedEndpoints::"
                     "test_accepted_texts_hold_only_checked_endpoints",
                     "tests/test_dimacs.py::TestCheckedEndpoints::"
                     "test_accepted_edge_cases_hold_only_checked_endpoints")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids; every one must fail


def _kernel_mutants(label: str, indent: str, bound: str,
                    tests: tuple[str, ...]) -> list[Mutant]:
    """The four move-kernel mutants in one loop. _climb's draw and cost lines
    sit at 8 spaces, tabu search's sample loop at 12, which tells the two
    apart. `bound` is the text of the kernel's first read of the draw bound,
    m = len(conflicted): _climb's sits before its loop, TS's after i += 1."""
    return [
        Mutant(f"{label}: r > m in the vertex draw", SEARCH,
               f"\n{indent}while r >= m:\n", f"\n{indent}while r > m:\n", tests),
        Mutant(f"{label}: len(colors) for len(conflicted)", SEARCH,
               bound, bound.replace("len(conflicted)", "len(colors)"), tests),
        Mutant(f"{label}: the r + 1 skip of the old color dropped", SEARCH,
               f"\n{indent}new = r if r < old else r + 1\n", f"\n{indent}new = r\n", tests),
        Mutant(f"{label}: own[v] left out of the move cost", SEARCH,
               f"\n{indent}d = (masks[v] & classes[new]).bit_count() - own[v]\n",
               f"\n{indent}d = (masks[v] & classes[new]).bit_count()\n", tests),
    ]


MUTANTS = [
    Mutant("dsatur: ties go to the highest index", HEURISTICS,
           "bit = pick & -pick\n", "bit = 1 << pick.bit_length() - 1\n",
           ("tests/test_heuristics.py::TestDsatur::test_complete", DSATUR_RULE)),
    Mutant("dsatur: saturation planes read least significant first", HEURISTICS,
           "for plane in saturation:\n", "for plane in reversed(saturation):\n",
           ("tests/test_heuristics.py::TestDsatur::test_complete[70]", DSATUR_RULE, DSATUR_WIDE)),
    Mutant("dsatur: the free-color scan skipped, so every vertex takes a new color",
           HEURISTICS,
           "if s == len(near):  # every color so far is on a neighbor\n            c = s\n",
           "if True:\n            c = len(near)\n",
           ("tests/test_heuristics.py::TestDsatur::test_even_cycle",
            "tests/test_heuristics.py::TestDsatur::test_edgeless_uses_one_color",
            DSATUR_RULE)),
    Mutant("dsatur: the degree borrow chain stops after one plane", HEURISTICS,
           "        while borrow:\n", "        if borrow:\n",
           (DSATUR_RULE, DSATUR_WIDE, "tests/test_heuristics.py::TestDsaturGolden")),
    Mutant("apply: old class bit left uncleared", SEARCH,
           "classes[old] ^= bit\n", "pass\n",
           ("tests/test_search.py::TestConflictState::test_matches_recount_after_every_apply",
            "tests/test_search.py::TestConflictState::test_matches_recount_above_one_bigint_digit")),
    Mutant("apply: neighbor insort dropped", SEARCH,
           "if hits == 1:\n                insort(conflicted, u)\n",
           "if hits == 1:\n                pass\n",
           ("tests/test_search.py::TestConflictState::test_matches_recount_after_every_apply",)),
    Mutant("_climb: plateau moves rejected", SEARCH,
           "\n        if d > 0:\n", "\n        if d >= 0:\n", (CLIMB_KERNEL, GOLDEN, ORACLE)),
    Mutant("ILS: a kick of 10% of the vertices", SEARCH,
           "_KICK_FRACTION = 0.05", "_KICK_FRACTION = 0.1",
           ("tests/test_search.py::TestIteratedLocalSearch::"
            "test_a_kick_recolors_5_percent_of_the_vertices_rounded_up", GOLDEN)),
    Mutant("_climb: move cost masked to 40 bits", SEARCH,
           "\n        d = (masks[v] & classes[new]).bit_count() - own[v]\n",
           "\n        d = (masks[v] & classes[new] & (1 << 40) - 1).bit_count() - own[v]\n",
           (GOLDEN,)),
    *_kernel_mutants("_climb", " " * 8, "\n    m = len(conflicted)\n", (CLIMB_KERNEL, GOLDEN)),
    *_kernel_mutants("tabu_search", " " * 12, "i += 1\n        m = len(conflicted)\n",
                     (TS_KERNEL, GOLDEN)),
    Mutant("_climb: the draw bound left stale after an applied move", SEARCH,
           "        apply(v, new)\n        m = len(conflicted)\n        b = m.bit_length()\n",
           "        apply(v, new)\n", (CLIMB_KERNEL, GOLDEN, ORACLE)),
    Mutant("tabu_search: tabu list one longer than ts_tabu_length", SEARCH,
           "deque(maxlen=params.ts_tabu_length)", "deque(maxlen=params.ts_tabu_length + 1)",
           ("tests/test_acceptance.py::test_criterion_7_fifo_memory_invariants", TS_KERNEL)),
    Mutant("tabu_search: the old color's key left in the candidate's fingerprint", SEARCH,
           "fp = h ^ hash((v, old)) ^ hash((v, new))", "fp = h ^ hash((v, new))",
           (GOLDEN, "tests/test_golden.py::"
                    "test_tabu_search_pushes_the_hash_of_each_coloring_it_moves_to")),
    Mutant("tabu_search: the loop keeps its costliest candidate", SEARCH,
           "if d >= chosen_d:", "if chosen_d != no_move and d <= chosen_d:",
           (ORACLE, TS_KERNEL, GOLDEN)),
    Mutant("tabu_search: ties go to the later candidate", SEARCH,
           "if d >= chosen_d:", "if d > chosen_d:", (TS_KERNEL, GOLDEN, ORACLE)),
    Mutant("tabu_search: a tabu candidate lowers the bar", SEARCH,
           "            if fp in tabu:\n                continue\n",
           "            if fp in tabu:\n                chosen_d = d\n                continue\n",
           (TS_KERNEL, GOLDEN, ORACLE)),
    Mutant("ILS: the first climb starts from a kick", SEARCH,
           "if evals > 1:", "if evals >= 1:",
           ("tests/test_search.py::TestIteratedLocalSearch::"
            "test_a_kick_is_drawn_only_for_a_climb_that_runs",
            "tests/test_search.py::TestMoveKernel::test_iterated_local_search", GOLDEN)),
    Mutant("ILS: adopts results of equal conflicts", SEARCH,
           "if inner_conf < best_conf:", "if inner_conf <= best_conf:",
           ("tests/test_search.py::TestIteratedLocalSearch::test_each_new_home_base_has_fewer_conflicts",)),
    Mutant("parse_manifest: ts_num_tweaks parsed but dropped", BENCH,
           "                overrides[name] = _PARSERS[PARAM_TYPES[name]](key, value)\n",
           "                if name != 'ts_num_tweaks':\n"
           "                    overrides[name] = _PARSERS[PARAM_TYPES[name]](key, value)\n",
           (EVERY_KEY,)),
    Mutant("PARAM_KEYS: no budget alias", BENCH,
           '"budget" if name == "wall_budget_seconds" else name: name', "name: name",
           (EVERY_KEY, "tests/test_cli.py::TestSolve::test_flags_are_the_solver_params_schema")),
    # with no second check in the manifest, SolverParams alone refuses an inf
    Mutant("SolverParams: finiteness test dropped", SEARCH,
           "math.isfinite(value) and value > 0", "value > 0",
           (MANIFEST_ERRORS, "tests/test_search.py::TestSolverParams::test_invalid_rejected")),
    Mutant("read_reference_table: duplicate-name check removed", DIMACS,
           "if parts[0] in first_lines:", "if False:",
           ("tests/test_dimacs.py::TestReferenceTable::test_a_name_listed_twice_names_both_lines",
            "tests/test_cli.py::TestSolve::test_a_reference_listed_twice_exits_2_naming_its_line")),
    Mutant("read_results_csv: method check removed", BENCH,
           "            if rec[\"method\"] not in METHODS:\n", "            if False:\n",
           (REPORT_ROWS,)),
    Mutant("read_results_csv: diff_percent check removed", BENCH,
           "            if got != want:\n", "            if False:\n", (REPORT_ROWS,)),
    Mutant("read_results_csv: proper=false accepted", BENCH,
           "            if rec[\"proper\"] == \"false\":\n", "            if False:\n",
           (REPORT_ROWS, "tests/test_dimacs.py::TestReadResults::test_proper_reads_true_and_false")),
    Mutant("run_benchmark: a pool of jobs workers, however few the cells", BENCH,
           "max_workers=min(jobs, len(cells))", "max_workers=jobs",
           ("tests/test_bench.py::TestRunBenchmark::test_pool_starts_no_more_workers_than_cells",)),
    Mutant("ILS: the total stop ignores the deadline", SEARCH,
           "stop_at = min(t0 + params.ils_total_seconds, deadline)",
           "stop_at = t0 + params.ils_total_seconds",
           ("tests/test_search.py::TestIteratedLocalSearch::test_wall_deadline_cuts_the_run",)),
    Mutant("ILS: the inner stop ignores the deadline", SEARCH,
           "inner_stop = min(now + params.ils_inner_seconds, deadline)",
           "inner_stop = now + params.ils_inner_seconds",
           ("tests/test_search.py::TestIteratedLocalSearch::test_deadline_cuts_the_climb_in_flight",)),
    Mutant("tabu_search: the initial evaluation left out of the count", SEARCH,
           "SearchOutcome(best, best_conf, 1 + i * num_tweaks,",
           "SearchOutcome(best, best_conf, i * num_tweaks,", (GOLDEN,)),
    Mutant("tabu_search: one evaluation ticked per sample", SEARCH,
           "now = clock.tick(num_tweaks)", "now = clock.tick()",
           (TS_KERNEL, "tests/test_search.py::TestTabuSearch::"
                       "test_virtual_deadline_stops_at_the_first_iteration_past_it")),
    # only iteration-bounded tests: with the time frozen, a climb with no
    # iteration bound (ILS's) never ends, and would only be stopped by
    # TIMEOUT_SECONDS
    Mutant("_climb: the time returned by tick dropped", SEARCH,
           "        now = tick()\n", "        tick()\n",
           (CLIMB_KERNEL, "tests/test_search.py::TestHillClimbing::"
                          "test_virtual_deadline_stops_at_the_first_move_past_it")),
    Mutant("parse_manifest: instances sharing a stem accepted", BENCH,
           "if stem in instances:", "if False:",
           ("tests/test_bench.py::TestManifest::test_rejects_malformed",
            "tests/test_cli.py::TestBenchAndReport::"
            "test_instances_sharing_a_stem_exit_2_naming_both")),
    Mutant("read_utf8: a byte order mark kept", DIMACS,
           'encoding="utf-8-sig"', 'encoding="utf-8"',
           ("tests/test_dimacs.py::TestLoadInstance::test_utf8_byte_order_mark_is_skipped",
            "tests/test_bench.py::TestManifest::test_utf8_byte_order_mark_is_skipped")),
    Mutant("parse_dimacs: \\r allowed in a strict comment line", DIMACS,
           r"(?:c[^\n\r\x0b", r"(?:c[^\n\x0b", (STRICT_CASES,)),
    Mutant("parse_dimacs: the endpoint table one entry wider", DIMACS,
           "range(1, vertex_count + 1)}", "range(1, vertex_count + 2)}",
           (STRICT_CASES, STRICT_FUZZ)),
    Mutant("parse_dimacs: the endpoint table starts at \"0\"", DIMACS,
           "range(1, vertex_count + 1)}", "range(0, vertex_count + 1)}",
           (STRICT_CASES, STRICT_FUZZ)),
    # only the cap + 1 file: past the table, a 10**8 file would ask for gigabytes
    Mutant("parse_dimacs: the strict path's vertex cap checked after the table", DIMACS,
           STRICT_CAP + ENDPOINT_TABLE, ENDPOINT_TABLE + STRICT_CAP,
           ("tests/test_dimacs.py::TestVertexCap::"
            "test_the_refusal_allocates_nothing_sized_by_the_p_line",)),
    Mutant("parse_dimacs: the line parser's vertex cap removed", DIMACS,
           "            if vertex_count > MAX_VERTICES:\n",
           "            if False:\n",
           ("tests/test_dimacs.py::TestVertexCap::"
            "test_more_vertices_are_refused_on_the_p_line_by_both_paths",)),
    Mutant("parse_dimacs: the strict path's self-loop check removed", DIMACS,
           "if any(map(operator.eq, us, vs)):", "if False:", (STRICT_CASES, STRICT_FUZZ)),
    # with no check after the parse, the line parser alone refuses these
    Mutant("parse_dimacs: the line parser's self-loop check removed", DIMACS,
           "            if u == v:\n", "            if False:\n",
           ("tests/test_dimacs.py::TestParse::test_self_loop_names_its_line_in_file_indices",
            *CHECKED_ENDPOINTS)),
    Mutant("parse_dimacs: the line parser's range check removed", DIMACS,
           "if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):", "if False:",
           ("tests/test_dimacs.py::TestParse::test_endpoint_out_of_range_reports_line",
            *CHECKED_ENDPOINTS)),
    Mutant("parse_dimacs: an e line may run on past its second endpoint", DIMACS,
           'r"^(?!e [0-9]+ [0-9]+$)"', 'r"^(?!e [0-9]+ [0-9]+)"', (STRICT_CASES,)),
    Mutant("parse_dimacs: the strict path never taken", DIMACS,
           "parsed = _parse_strict(text)", "parsed = None",
           ("tests/test_dimacs.py::TestStrictPath::"
            "test_rendered_and_dsjc_shaped_files_take_it",)),
    Mutant("parse_dimacs: numbers read by int() alone", DIMACS,
           "if _INTEGER.fullmatch(token) is None:", "if False:", ASCII_NUMBERS),
    Mutant("parse_dimacs: any Unicode decimal digit read as a digit", DIMACS,
           'r"-?[0-9]+"', 'r"-?\\d+"', ASCII_NUMBERS),
    Mutant("solve_k_reduction: the cached start coloring handed out uncopied", SEARCH,
           "best = list(start_coloring)", "best = start_coloring",
           ("tests/test_search.py::TestStartCache::test_returned_coloring_is_a_copy",)),
    Mutant("dsatur_start: one module-level slot for every graph's start", SEARCH,
           "cache = g.__dict__", "cache = globals()",
           ("tests/test_search.py::TestStartCache::"
            "test_equal_distinct_graphs_each_compute_their_own",)),
    Mutant("run_cell: the start filled after the timer starts", BENCH,
           "    dsatur_start(record.graph)\n    t0 = clock.now()\n",
           "    t0 = clock.now()\n    dsatur_start(record.graph)\n",
           ("tests/test_bench.py::TestStartCache::"
            "test_run_cell_starts_its_timer_after_the_start",)),
    Mutant("run_benchmark: no start filled before the fan-out, so an empty graph "
           "aborts the run", BENCH,
           "records.append(prepare_instance(inst_path, reference))",
           "records.append(load_instance(inst_path, reference))",
           ("tests/test_bench.py::TestStartCache::"
            "test_start_is_computed_once_per_instance_before_the_fan_out", *EMPTY_SKIPPED)),
    Mutant("prepare_instance: an empty graph's error names no file", BENCH,
           'raise ValueError(f"{path}: {exc}") from None', "raise",
           ("tests/test_cli.py::TestSolve::test_an_empty_graph_exits_2_naming_its_file",
            *EMPTY_SKIPPED)),
    Mutant("parse_manifest: integers read by int() alone", BENCH,
           "        return _integer(text)\n", "        return int(text)\n", (MANIFEST_ERRORS,)),
    Mutant("read_results_csv: counts read by int() alone", BENCH,
           'seed=_integer(rec["seed"]),\n                k_colors=_integer(rec["k_colors"]),',
           'seed=int(rec["seed"]),\n                k_colors=int(rec["k_colors"]),',
           (REPORT_ROWS,)),
    Mutant("cli: int flags read by int() alone", CLI,
           'command.register("type", int, _integer)', "pass", (INT_FLAGS,)),
    Mutant("run_cell: params rebuilt per cell", BENCH,
           "    clock = make_clock()\n",
           "    params = SolverParams(**asdict(params))\n    clock = make_clock()\n",
           ("tests/test_bench.py::TestRunBenchmark::"
            "test_the_cells_share_the_run_s_params_unchecked",)),
    Mutant("solve_k_reduction: unknown method runs HC", SEARCH,
           "    if method not in METHODS:\n"
           "        raise ValueError(f\"method must be one of {METHODS}, got {method!r}\")\n"
           "    run = _METHOD_FUNCS[method]\n",
           "    run = _METHOD_FUNCS.get(method, hill_climbing)\n",
           ("tests/test_search.py::TestSolveKReduction::"
            "test_unknown_method_rejected_before_the_graph_is_read",)),
    Mutant("_climb: the best coloring replaced on every accepted move", SEARCH,
           "        if state.total < best_conf:\n"
           "            best_conf = state.total\n"
           "            best = list(colors)\n",
           "        if state.total < best_conf:\n"
           "            best_conf = state.total\n"
           "        best = list(colors)\n",
           # not HC's test_returned_best_bounds_all_accepted_states: HC never
           # accepts a worse move, so its final state has the best's conflicts
           (CLIMB_KERNEL, "tests/test_search.py::TestSimulatedAnnealing::"
                          "test_best_ever_returned_not_final_state")),
    Mutant("make_clock: the setting read once at import", CLOCK,
           "def make_clock() -> Clock:\n"
           "    if os.environ.get(VIRTUAL_CLOCK_ENV) == \"1\":\n",
           "_VIRTUAL = os.environ.get(VIRTUAL_CLOCK_ENV) == \"1\"\n\n\n"
           "def make_clock() -> Clock:\n"
           "    if _VIRTUAL:\n",
           ("tests/test_bench.py::TestRunBenchmark::test_each_cell_reads_the_clock_setting",)),
    Mutant("_climb: the temperature one move late", SEARCH,
           "            t = t_initial - i * decrement\n",
           "            t = t_initial - (i - 1) * decrement\n",
           ("tests/test_search.py::TestSimulatedAnnealing::"
            "test_a_worsening_move_draws_a_random_number_only_while_t_is_positive",)),
    Mutant("_number: floats read by float() alone", DIMACS,
           "if not token.isascii() or \"_\" in token or token != token.strip():",
           "if False:", FLOAT_TEXT),
    Mutant("cli: float flags read by float() alone", CLI,
           'command.register("type", float, _number)', "pass",
           ("tests/test_cli.py::TestSolve::"
            "test_a_float_flag_float_reads_but_chroma_does_not_exits_2",)),
    Mutant("graph_from_endpoints: the builder XORs instead of ORs", GRAPH,
           "        masks[u] |= bit[v]\n        masks[v] |= bit[u]\n",
           "        masks[u] ^= bit[v]\n        masks[v] ^= bit[u]\n",
           (MASKS_REFERENCE,
            "tests/test_graph.py::TestBuildGraph::test_duplicate_edges_collapse",
            "tests/test_graph.py::TestBuildGraph::test_reversed_duplicate_collapses",
            "tests/test_dimacs.py::TestLoadInstance::test_duplicate_edges_collapse_into_graph")),
    Mutant("graph_from_endpoints: edge_count not halved", GRAPH,
           "sum(map(int.bit_count, masks)) // 2", "sum(map(int.bit_count, masks))",
           (MASKS_REFERENCE, "tests/test_graph.py::TestBuildGraph::test_triangle")),
    Mutant("is_proper: each vertex tested against the previous vertex's class", GRAPH,
           "if masks[v] & classes[c]:", "if masks[v] & classes[colors[v - 1]]:",
           ("tests/test_graph.py::TestConflicts::"
            "test_is_proper_matches_a_recount_of_the_raw_edges",
            "tests/test_graph.py::TestProperness::test_distinct_triangle")),
    Mutant("project_coloring: vertices colored >= k counted in the top class", SEARCH,
           "        if c < k:\n            classes[c] |= 1 << v\n",
           "        classes[min(c, k - 1)] |= 1 << v\n",
           ("tests/test_search.py::TestProjectColoring::"
            "test_matches_the_docstring_read_literally",)),
    Mutant("_k_colorable: a backtracked vertex left in its class", HEURISTICS,
           "            classes[c] ^= bit\n", "            pass\n",
           ("tests/test_heuristics.py::TestDsatur::test_bipartite_is_colored_exactly",
            "tests/test_heuristics.py::TestDsatur::test_never_beats_the_chromatic_number")),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest)  # pytest's settings


def run_tests(tree: Path, tests: tuple[str, ...]) -> bool:
    """True when every test passes, run in `tree` against its own src/. A run
    that outlasts TIMEOUT_SECONDS is stopped and counts as not passing, so a
    mutant that freezes a loop is killed instead of waited on."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def check(mutant: Mutant) -> list[str]:
    """The problems found with one mutant; empty when all its tests kill it."""
    with tempfile.TemporaryDirectory(prefix="chroma-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        found = source.count(mutant.old)
        if found != 1:
            return [f"its text occurs {found} times in {mutant.path}, not once"]
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        return [f"survives {test}" for test in mutant.tests if run_tests(tree, (test,))]


def main() -> int:
    named = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="chroma-clean-") as tmp:
        copy_tree(Path(tmp))
        if not run_tests(Path(tmp), tuple(named)):
            print("the named tests do not all pass on the unmutated tree", file=sys.stderr)
            return 1
    failed = 0
    for mutant in MUTANTS:
        problems = check(mutant)
        print(f"{'FAIL' if problems else 'killed'}: {mutant.name}", flush=True)
        for problem in problems:
            print(f"  {problem}", flush=True)
        failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed by all their tests")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
