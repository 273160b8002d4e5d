import io
import pickle
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings

from chroma import VirtualClock, WallClock, bench, render_dimacs
from chroma.bench import (PARAM_KEYS, BenchManifest, InternalInvariantError,
                          RunResult, compare_report, diff_percent, parse_manifest,
                          run_benchmark, run_cell, write_results)
from chroma.dimacs import load_instance
from chroma.search import SolverParams

from conftest import DATA_DIR, manifest_texts


class TestDiffPercent:
    # the full published-table reproduction lives in the acceptance suite
    @pytest.mark.parametrize("obtained,reference,expected", [
        (6, 5, 20.00),
        (20, 17, 17.65),
        (44, 44, 0.00),
        (46, 44, 4.55),
        (83, 72, 15.28),
    ])
    def test_reference_pairs(self, obtained, reference, expected):
        assert diff_percent(obtained, reference) == expected

    def test_rounds_half_up_not_bankers(self):
        # 100 * 1/800 = 0.125 exactly; half-up gives 0.13, bankers would 0.12
        assert diff_percent(801, 800) == 0.13

    def test_negative_when_better_than_reference(self):
        assert diff_percent(4, 5) == -20.00

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            diff_percent(5, 0)


class TestManifest:
    def test_full_manifest(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text(
            "# desk-scale protocol\n"
            "instances = a.col, b.col\n"
            "methods = sa, TS\n"
            "seeds = 1, 2\n"
            "budget = 30\n"
            "sa_iterations = 500  # trimmed\n"
            "ils_inner_seconds = 0.5\n"
            "ts_tabu_length = 7\n"
            "sa_decrement = 0.01\n"
        )
        m = parse_manifest(path)
        assert m.instances == ["a.col", "b.col"]
        assert m.methods == ["SA", "TS"]
        assert m.seeds == [1, 2]
        assert m.params == SolverParams(
            wall_budget_seconds=30.0, sa_iterations=500, ils_inner_seconds=0.5,
            ts_tabu_length=7, sa_decrement=0.01,
        )

    def test_seeds_default(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("instances = a.col\nmethods = hc\n")
        assert parse_manifest(path).seeds == [1, 2, 3]

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.manifest"
        path.write_bytes(b"\xef\xbb\xbfinstances = a.col\nmethods = hc\n")
        m = parse_manifest(path)
        assert m.instances == ["a.col"]
        assert m.methods == ["HC"]

    @pytest.mark.parametrize("text,match", [
        ("instances = a.col\nmethods = hc\nwhatever = 3\n", "unknown manifest key"),
        # solver knobs that are no longer parameters
        *[(f"instances = a.col\nmethods = hc\n{key} = 1\n",
           rf"bad\.manifest:3: unknown manifest key '{key}'")
          for key in ("hc_strict", "sa_geometric", "initializer", "ils_perturbation",
                      "ils_queue_length")],
        ("instances = a.col\nmethods = ga\n", "unknown method"),
        ("methods = hc\n", "no instances"),
        ("instances = a.col\n", "no methods"),
        ("instances = a.col\nmethods = hc\nbadline\n", "key = value"),
        # SolverParams checks the budget, as it checks --budget
        ("instances = a.col\nmethods = hc\nbudget = nan\n",
         r"bad\.manifest:3: wall_budget_seconds must be finite and positive, got nan"),
        ("instances = a.col\nmethods = hc\nbudget = inf\n",
         r"bad\.manifest:3: wall_budget_seconds must be finite and positive, got inf"),
        ("instances = a.col\nmethods = hc\nbudget = 0\n",
         r"bad\.manifest:3: wall_budget_seconds must be finite and positive, got 0\.0"),
        ("instances = a.col\nmethods = hc\nhc_iterations = 5x\n",
         r"bad\.manifest:3: hc_iterations must be an integer, got '5x'"),
        ("instances = a.col\nmethods = hc\nts_tabu_length = 2.5\n",
         r"bad\.manifest:3: ts_tabu_length must be an integer"),
        ("instances = a.col\nmethods = hc\nsa_decrement = fast\n",
         r"bad\.manifest:3: sa_decrement must be a number, got 'fast'"),
        ("instances = a.col\nmethods = hc\nsa_decrement = nan\n",
         r"bad\.manifest:3: sa_decrement must be finite"),
        ("instances = a.col\nmethods = hc\nils_total_seconds = inf\n",
         r"bad\.manifest:3: ils_total_seconds must be finite"),
        ("instances = a.col\nmethods = hc\nseeds = 1, two\n",
         r"bad\.manifest:3: seeds must be an integer, got 'two'"),
        # integers are ASCII digits with an optional minus sign, as in DIMACS
        ("instances = a.col\nmethods = hc\nseeds = 1_0\n",
         r"bad\.manifest:3: seeds must be an integer, got '1_0'"),
        ("instances = a.col\nmethods = hc\nseeds = 1, \uff12\n",
         r"bad\.manifest:3: seeds must be an integer, got '\uff12'"),
        ("instances = a.col\nmethods = hc\nhc_iterations = +5\n",
         r"bad\.manifest:3: hc_iterations must be an integer, got '\+5'"),
        ("instances = a.col\nmethods = hc\nts_num_tweaks = \u0663\n",
         r"bad\.manifest:3: ts_num_tweaks must be an integer, got '\u0663'"),
        ("instances = a.col\nmethods = hc\nbudget = soon\n",
         r"bad\.manifest:3: budget must be a number, got 'soon'"),
        # floats are ASCII text without `_` that float() reads
        ("instances = a.col\nmethods = hc\nbudget = \uff15\n",
         r"bad\.manifest:3: budget must be a number, got '\uff15'"),
        ("instances = a.col\nmethods = hc\nsa_decrement = 0_5\n",
         r"bad\.manifest:3: sa_decrement must be a number, got '0_5'"),
        ("instances = a.col\nmethods = hc\nils_inner_seconds = 1_0\n",
         r"bad\.manifest:3: ils_inner_seconds must be a number, got '1_0'"),
        ("instances = a.col\nmethods = hc\nreferences =  # none\n",
         r"bad\.manifest:3: references needs a file name"),
        ("instances = a/x.col, y.col\nmethods = hc\ninstances = b/x.col\n",
         r"bad\.manifest:3: instances a/x\.col and b/x\.col share the name 'x'"),
        # values that parse but that SolverParams rejects
        ("instances = a.col\nmethods = hc\nhc_iterations = 0\n",
         r"bad\.manifest:3: hc_iterations must be an integer of at least 1, got 0"),
        ("instances = a.col\nmethods = hc\nils_total_seconds = 5\nhc_iterations = 7\n",
         r"bad\.manifest:3: ils_inner_seconds cannot exceed ils_total_seconds"),
        ("instances = a.col\nmethods = hc\nils_inner_seconds = 50\n"
         "ils_total_seconds = 60\nils_inner_seconds = 70\n",
         r"bad\.manifest:5: ils_inner_seconds cannot exceed ils_total_seconds"),
    ])
    def test_rejects_malformed(self, tmp_path, text, match):
        path = tmp_path / "bad.manifest"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            parse_manifest(path)

    def test_overrides_are_checked_together(self, tmp_path):
        # ils_total_seconds = 5 alone would fall below the default inner 10 s
        path = tmp_path / "ils.manifest"
        path.write_text("instances = a.col\nmethods = ils\n"
                        "ils_total_seconds = 5\nils_inner_seconds = 2\n")
        assert parse_manifest(path).params == SolverParams(
            ils_total_seconds=5.0, ils_inner_seconds=2.0)

    def test_every_default_written_out_reads_back(self, tmp_path):
        # the manifest keys are read from the SolverParams schema: each field's
        # default, written as `key = <default>`, must parse to that default
        defaults = SolverParams()
        lines = ["instances = a.col", "methods = hc"]
        lines += [f"{key} = {getattr(defaults, name)}" for key, name in PARAM_KEYS.items()]
        path = tmp_path / "defaults.manifest"
        path.write_text("\n".join(lines) + "\n")
        m = parse_manifest(path)
        assert set(PARAM_KEYS.values()) == {f.name for f in fields(SolverParams)}
        assert m.methods == ["HC"]
        assert m.params == defaults

    def test_every_key_reaches_params(self, tmp_path):
        # each key is set away from its default, so one that parses but is
        # not handed on to SolverParams leaves a default behind and shows here
        values = {
            "hc_iterations": 7, "sa_iterations": 11, "sa_decrement": 0.25,
            "ts_iterations": 3, "ts_tabu_length": 4, "ts_num_tweaks": 5,
            "ils_inner_seconds": 1.5, "ils_total_seconds": 2.5,
        }
        assert set(values) | {"budget"} == set(PARAM_KEYS)
        defaults = SolverParams()
        assert all(value != getattr(defaults, name) for name, value in values.items())
        lines = ["instances = a.col", "methods = hc", "budget = 30"]
        lines += [f"{name} = {value}" for name, value in values.items()]
        path = tmp_path / "every.manifest"
        path.write_text("\n".join(lines) + "\n")
        assert parse_manifest(path).params == SolverParams(
            wall_budget_seconds=30.0, **values)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(manifest_texts())
    def test_fuzzed_manifest_raises_nothing_but_value_error(self, tmp_path, text):
        path = tmp_path / "fuzz.manifest"
        path.write_text(text, encoding="utf-8")
        try:
            parse_manifest(path)
        except ValueError:
            pass


FIVE_SECONDS = SolverParams(wall_budget_seconds=5.0)


def _write_instance(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.col"
    path.write_text(render_dimacs(n, edges))
    return path


@pytest.fixture
def small_manifest(tmp_path):
    a = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
    b = _write_instance(tmp_path, "path4", 4, [(0, 1), (1, 2), (2, 3)])
    return BenchManifest(
        instances=[str(a), str(b)],
        methods=["HC", "TS"],
        seeds=[1, 2],
        params=FIVE_SECONDS,
    )


class TestRunBenchmark:
    def test_cell_grid_and_ordering(self, small_manifest):
        rows, errors = run_benchmark(small_manifest)
        assert errors == []
        assert len(rows) == 2 * 2 * 2
        keys = [(r.instance, r.method, r.seed) for r in rows]
        assert keys == sorted(keys)
        assert all(r.proper for r in rows)

    def test_expected_color_counts(self, small_manifest):
        rows, _ = run_benchmark(small_manifest)
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r.instance, set()).add(r.k_colors)
        assert by_instance["tri"] == {3}
        assert by_instance["path4"] == {2}

    def test_diff_percent_recomputes(self, tmp_path):
        inst = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
        refs = tmp_path / "refs.txt"
        refs.write_text("tri 2\n")
        manifest = BenchManifest([str(inst)], ["HC"], [1], FIVE_SECONDS,
                                 references_path=str(refs))
        rows, _ = run_benchmark(manifest)
        assert rows[0].best_known == 2
        assert rows[0].diff_percent == diff_percent(rows[0].k_colors, 2) == 50.0

    def test_missing_instance_skipped_with_error(self, tmp_path):
        inst = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
        manifest = BenchManifest(
            [str(inst), str(tmp_path / "ghost.col")], ["HC"], [1], FIVE_SECONDS)
        rows, errors = run_benchmark(manifest)
        assert len(rows) == 1
        assert len(errors) == 1
        assert "ghost.col" in errors[0]

    def test_each_load_error_names_its_path_once(self, tmp_path):
        inst = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
        binary = tmp_path / "bin.col"
        binary.write_bytes(b"\xffp edge 1 0\n")
        loop = tmp_path / "loop.col"
        loop.write_text("p edge 3 1\ne 2 2\n")
        bad = [str(tmp_path / "ghost.col"), str(binary), str(loop)]
        manifest = BenchManifest([str(inst)] + bad, ["HC"], [1], FIVE_SECONDS)
        rows, errors = run_benchmark(manifest)
        assert len(rows) == 1
        assert len(errors) == 3
        for path, error in zip(bad, errors):
            assert error.count(path) == 1, error
        assert errors[2] == f"{loop}: line 2: self-loop: e 2 2"

    def test_an_empty_graph_is_skipped_naming_its_file(self, tmp_path):
        # it loads (`chroma exact` gives it chromatic number 0), but no
        # search can color it: its cells are skipped, the others run
        empty = _write_instance(tmp_path, "empty", 0, [])
        inst = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
        manifest = BenchManifest([str(empty), str(inst)], ["HC", "TS"], [1, 2],
                                 FIVE_SECONDS)
        rows, errors = run_benchmark(manifest)
        assert [(r.instance, r.method, r.seed) for r in rows] == [
            ("tri", "HC", 1), ("tri", "HC", 2), ("tri", "TS", 1), ("tri", "TS", 2)]
        assert errors == [f"{empty}: cannot color an empty graph"]

    def test_the_cells_share_the_run_s_params_unchecked(self, small_manifest, monkeypatch):
        # 2 instances x 4 methods x 2 seeds: SolverParams was built and checked
        # with the manifest, so no cell builds or checks one again
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        small_manifest.methods = ["HC", "SA", "TS", "ILS"]
        checks = []
        real = SolverParams.__post_init__
        monkeypatch.setattr(SolverParams, "__post_init__",
                            lambda self: checks.append(self) or real(self))
        rows, errors = run_benchmark(small_manifest, jobs=1)
        assert (len(rows), errors) == (16, [])
        assert checks == []

    def test_each_cell_reads_the_clock_setting(self, monkeypatch):
        # chroma was imported before the variable is set here, and it changes
        # between two cells: each cell's clock follows the setting of its time
        record = load_instance(DATA_DIR / "toy20.col")
        runs = []
        real = bench.solve_k_reduction

        def spy(g, method, params, seed, *, clock):
            result = real(g, method, params, seed, clock=clock)
            runs.append((type(clock), sum(o.evaluations for o in result[2])))
            return result

        monkeypatch.setattr(bench, "solve_k_reduction", spy)
        p = SolverParams(hc_iterations=200)
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        virtual = run_cell(record, "HC", 1, p)
        monkeypatch.delenv("CHROMA_VIRTUAL_CLOCK")
        run_cell(record, "HC", 1, p)
        assert [kind for kind, _ in runs] == [VirtualClock, WallClock]
        evaluations = runs[0][1]
        assert evaluations > 0
        assert virtual.wall_seconds == evaluations * 0.001

    def test_rows_write_as_csv(self, small_manifest):
        rows, _ = run_benchmark(small_manifest)
        out = io.StringIO()
        write_results(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("instance,method,seed")
        assert len(lines) == len(rows) + 1

    def test_improper_coloring_aborts(self, tmp_path, monkeypatch):
        inst = _write_instance(tmp_path, "tri", 3, [(0, 1), (1, 2), (0, 2)])
        record = load_instance(inst)
        monkeypatch.setattr("chroma.bench.solve_k_reduction",
                            lambda g, m, p, s, clock: ([0, 0, 0], 3, []))
        with pytest.raises(InternalInvariantError):
            run_cell(record, "HC", 1, SolverParams())

    def test_parallel_jobs_produce_the_same_cells(self, small_manifest):
        serial, _ = run_benchmark(small_manifest, jobs=1)
        parallel, _ = run_benchmark(small_manifest, jobs=2)
        assert [(r.instance, r.method, r.seed, r.k_colors) for r in serial] == \
               [(r.instance, r.method, r.seed, r.k_colors) for r in parallel]

    @pytest.mark.parametrize("jobs,workers", [(3, 3), (64, 8)])
    def test_pool_starts_no_more_workers_than_cells(self, small_manifest, monkeypatch,
                                                    jobs, workers):
        # A fork-based pool starts every worker at the first submit, so the
        # pool size, not the cell count, is the number of processes forked.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        rows, _ = run_benchmark(small_manifest, jobs=jobs)
        assert len(rows) == 8
        assert started == [workers]


class PicklingPool:
    """Runs the cells in this process, but hands each one a pickled copy of
    its arguments, as a process pool's workers receive them."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return [fn(*pickle.loads(pickle.dumps(args))) for args in zip(*iterables)]


class TestStartCache:
    """Each graph's DSatur start is computed once, outside every cell's timer."""

    def test_start_is_computed_once_per_instance_before_the_fan_out(
            self, small_manifest, monkeypatch, start_calls):
        monkeypatch.setattr(bench, "ProcessPoolExecutor", PicklingPool)
        rows, _ = run_benchmark(small_manifest, jobs=2)
        assert len(rows) == 8
        assert [name for name, _ in start_calls].count("dsatur") == 2
        assert [name for name, _ in start_calls].count("chromatic_lower_bound") == 2

    def test_run_cell_starts_its_timer_after_the_start(self, tmp_path, monkeypatch,
                                                       start_calls):
        record = load_instance(_write_instance(tmp_path, "c5", 5,
                                               [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        readings = []

        class Probe(VirtualClock):
            def now(self):
                readings.append(len(start_calls))  # start computations so far
                return super().now()

        monkeypatch.setattr(bench, "make_clock", Probe)
        run_cell(record, "HC", 1, FIVE_SECONDS)
        assert readings and readings[0] == 2


class TestCompareReport:
    def _rows(self):
        return [
            RunResult("g1", "HC", 1, 6, True, 1.0, 5, 20.0),
            RunResult("g1", "SA", 1, 7, True, 1.0, 5, 40.0),
            RunResult("g2", "HC", 1, 9, True, 1.0, None, None),
            RunResult("g2", "SA", 1, 8, True, 1.0, None, None),
        ]

    def test_layout(self):
        report = compare_report(self._rows())
        lines = report.strip().splitlines()
        assert len(lines) == 3  # header + one line per instance
        assert "HC" in lines[0] and "SA" in lines[0]
        assert "Dif.%" in lines[0]

    def test_best_k_is_flagged(self):
        lines = compare_report(self._rows()).splitlines()
        g1 = next(l for l in lines if l.startswith("g1"))
        g2 = next(l for l in lines if l.startswith("g2"))
        assert "6*" in g1 and "7*" not in g1
        assert "8*" in g2 and "9*" not in g2

    def test_missing_reference_shows_dash(self):
        lines = compare_report(self._rows()).splitlines()
        g2 = next(l for l in lines if l.startswith("g2"))
        assert "-" in g2

    def test_absent_methods_omitted(self):
        report = compare_report([RunResult("g1", "TS", 1, 4, True, 0.1, None, None)])
        assert "HC" not in report
        assert "TS" in report

    def test_multiple_seeds_collapse_to_best(self):
        rows = [
            RunResult("g1", "HC", 1, 7, True, 1.0, 5, 40.0),
            RunResult("g1", "HC", 2, 6, True, 1.0, 5, 20.0),
        ]
        report = compare_report(rows)
        assert "6*" in report
        assert "20.00" in report

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            compare_report([])


# Color counts reported by the published DSJC comparison study, keyed by
# instance: (reference colors, per-method k). Recomputing their diff column
# must reproduce the published percentages exactly.
PUBLISHED_RUNS = {
    "DSJC125.1": (5, {"HC": 6, "SA": 6, "TS": 6, "ILS": 6}),
    "DSJC125.5": (17, {"HC": 20, "SA": 21, "TS": 21, "ILS": 21}),
    "DSJC125.9": (44, {"HC": 46, "SA": 47, "TS": 47, "ILS": 46}),
    "DSJC250.1": (8, {"HC": 10, "SA": 10, "TS": 10, "ILS": 10}),
    "DSJC250.5": (28, {"HC": 35, "SA": 36, "TS": 36, "ILS": 36}),
    "DSJC250.9": (72, {"HC": 81, "SA": 83, "TS": 83, "ILS": 83}),
}

PUBLISHED_DIFFS = {
    "DSJC125.1": {"HC": 20.00, "SA": 20.00, "TS": 20.00, "ILS": 20.00},
    "DSJC125.5": {"HC": 17.65, "SA": 23.53, "TS": 23.53, "ILS": 23.53},
    "DSJC125.9": {"HC": 4.55, "SA": 6.82, "TS": 6.82, "ILS": 4.55},
    "DSJC250.1": {"HC": 25.00, "SA": 25.00, "TS": 25.00, "ILS": 25.00},
    "DSJC250.5": {"HC": 25.00, "SA": 28.57, "TS": 28.57, "ILS": 28.57},
    "DSJC250.9": {"HC": 12.50, "SA": 15.28, "TS": 15.28, "ILS": 15.28},
}


class TestPublishedComparison:
    def _fixture_rows(self):
        rows = []
        for instance, (reference, per_method) in PUBLISHED_RUNS.items():
            for method, k in per_method.items():
                rows.append(RunResult(instance, method, 1, k, True, 0.0,
                                      reference, diff_percent(k, reference)))
        return rows

    def test_recomputed_diffs_match_published_values(self):
        for instance, (reference, per_method) in PUBLISHED_RUNS.items():
            for method, k in per_method.items():
                assert diff_percent(k, reference) == PUBLISHED_DIFFS[instance][method]

    def test_report_renders_published_percentages(self):
        report = compare_report(self._fixture_rows())
        lines = {line.split()[0]: line for line in report.splitlines()[1:]}
        for instance, diffs in PUBLISHED_DIFFS.items():
            for value in diffs.values():
                assert f"{value:.2f}" in lines[instance]

    def test_hill_climbing_flagged_best_where_it_won(self):
        report = compare_report(self._fixture_rows())
        lines = {line.split()[0]: line for line in report.splitlines()[1:]}
        # HC had the lowest k on the .5 and .9 instances; its cell is starred
        assert "20*" in lines["DSJC125.5"]
        assert "46*" in lines["DSJC125.9"]
        assert "35*" in lines["DSJC250.5"]
        assert "81*" in lines["DSJC250.9"]
        assert "21*" not in lines["DSJC125.5"]
