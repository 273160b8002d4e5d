import argparse
import contextlib
import io
import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chroma import SolverParams, render_dimacs
from chroma.bench import PARAM_KEYS, parse_manifest
from chroma.cli import _build_parser, _params_from_args, main
from chroma.dimacs import MAX_VERTICES

from conftest import (DATA_DIR, dimacs_texts, manifest_texts, non_utf8_bytes,
                      results_csv_texts)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(DATA_DIR / "triangle.col"),
                               "--method", "hc", "--seed", "1", "--budget", "5")
        assert code == 0
        assert "k=3" in out
        assert "wall=" in out

    def test_reference_diff_printed(self, capsys, tmp_path):
        inst = tmp_path / "tri.col"
        inst.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        refs = tmp_path / "refs.txt"
        refs.write_text("tri 2\n")
        code, out, _ = run_cli(capsys, "solve", str(inst), "--method", "ts",
                               "--references", str(refs), "--budget", "5")
        assert code == 0
        assert "best_known=2" in out
        assert "diff=50.00%" in out

    def test_param_overrides_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(DATA_DIR / "toy20.col"),
                               "--method", "sa", "--budget", "5",
                               "--sa-iterations", "200", "--sa-decrement", "0.01")
        assert code == 0
        assert "k=" in out

    def test_flags_are_the_solver_params_schema(self):
        # one --name-with-dashes per SolverParams field, except
        # wall_budget_seconds, which is --budget
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["solve"]._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        expected = {"--" + f.name.replace("_", "-") for f in fields(SolverParams)
                    if f.name != "wall_budget_seconds"}
        assert flags == expected | {"--method", "--seed", "--budget", "--references"}

    def test_flags_set_their_fields_and_leave_the_rest_default(self):
        args = _build_parser().parse_args(
            ["solve", "x.col", "--method", "sa", "--budget", "9", "--hc-iterations", "40",
             "--ts-tabu-length", "7", "--sa-decrement", "0.5", "--ils-inner-seconds", "2.5"])
        assert _params_from_args(args) == SolverParams(
            wall_budget_seconds=9.0, hc_iterations=40, ts_tabu_length=7,
            sa_decrement=0.5, ils_inner_seconds=2.5)
        args = _build_parser().parse_args(["solve", "x.col", "--method", "hc"])
        assert _params_from_args(args) == SolverParams()

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "no-such-file.col",
                               "--method", "hc")
        assert code == 2
        assert "no-such-file.col" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("e 1 2\n")
        code, _, err = run_cli(capsys, "solve", str(bad), "--method", "hc")
        assert code == 2
        assert "error" in err

    def test_self_loop_exits_2_naming_file_and_line(self, capsys, tmp_path):
        loop = tmp_path / "x.col"
        loop.write_text("p edge 3 2\ne 1 2\ne 3 3\n")
        code, out, err = run_cli(capsys, "solve", str(loop), "--method", "hc")
        assert code == 2
        assert out == ""
        assert err == f"error: {loop}: line 3: self-loop: e 3 3\n"

    def test_more_vertices_than_the_cap_exits_2_naming_file_and_line(self, capsys,
                                                                     tmp_path):
        big = tmp_path / "big.col"
        big.write_text(f"c too many\np edge {MAX_VERTICES + 1} 0\n")
        code, out, err = run_cli(capsys, "solve", str(big), "--method", "hc")
        assert code == 2
        assert out == ""
        assert err == (f"error: {big}: line 2: {MAX_VERTICES + 1} vertices exceed "
                       f"the limit of {MAX_VERTICES}\n")

    def test_a_count_past_ints_digit_limit_exits_2_naming_file_and_line(self, capsys,
                                                                        tmp_path):
        big = tmp_path / "big.col"
        big.write_text(f"p edge {'9' * 5000} 0\n")
        code, out, err = run_cli(capsys, "solve", str(big), "--method", "hc")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {big}: line 1: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("body,line", [
        ("p edge 20 1\ne 1_0 2\n", "line 2: non-integer endpoint: 'e 1_0 2'"),
        ("p edge +3 0\n", "line 1: non-integer p line fields: 'p edge +3 0'"),
        ("p edge 3 1\ne \uff11 2\n", "line 2: non-integer endpoint: 'e \uff11 2'"),
    ])
    def test_a_number_int_reads_but_dimacs_does_not_exits_2(self, capsys, tmp_path,
                                                           body, line):
        path = tmp_path / "x.col"
        path.write_text(body, encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path), "--method", "hc")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: {line}\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "tri.col", "--method", "hc", "--seed", "\uff13"],
        ["solve", "tri.col", "--method", "hc", "--seed", " 2"],
        ["solve", "tri.col", "--method", "hc", "--hc-iterations", "1_0"],
        ["solve", "tri.col", "--method", "ts", "--ts-tabu-length", "+7"],
        ["exact", "tri.col", "--limit", "1_6"],
        ["bench", "--manifest", "m", "--out", "r.csv", "--jobs", "\uff12"],
    ])
    def test_an_int_flag_int_reads_but_dimacs_does_not_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: invalid " in err
        assert f" value: {argv[-1]!r}" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "tri.col", "--method", "hc", "--budget", "\uff15"],
        ["solve", "tri.col", "--method", "hc", "--budget", " 5"],
        ["solve", "tri.col", "--method", "sa", "--sa-decrement", "0_5"],
        ["solve", "tri.col", "--method", "ils", "--ils-inner-seconds", "1_0"],
    ])
    def test_a_float_flag_float_reads_but_chroma_does_not_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: invalid float value: {argv[-1]!r}" in err

    def test_a_float_flag_reads_every_ascii_form_of_float(self):
        args = _build_parser().parse_args(
            ["solve", "x.col", "--method", "sa", "--budget", "1e3", "--sa-decrement", ".5",
             "--ils-inner-seconds", "+5", "--ils-total-seconds", "inf"])
        assert (args.wall_budget_seconds, args.sa_decrement, args.ils_inner_seconds,
                args.ils_total_seconds) == (1000.0, 0.5, 5.0, float("inf"))

    def test_an_int_flag_reads_ascii_digits_and_a_minus_sign(self):
        args = _build_parser().parse_args(
            ["solve", "x.col", "--method", "hc", "--seed", "-3", "--hc-iterations", "007"])
        assert (args.seed, args.hc_iterations) == (-3, 7)

    def test_an_empty_graph_exits_2_naming_its_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.col"
        empty.write_text("p edge 0 0\n")
        code, out, err = run_cli(capsys, "solve", str(empty), "--method", "hc")
        assert code == 2
        assert out == ""
        assert err == f"error: {empty}: cannot color an empty graph\n"

    def test_non_utf8_file_exits_2_naming_it(self, capsys, tmp_path):
        binary = tmp_path / "bin.col"
        binary.write_bytes(b"\xffp edge 1 0\n")
        code, _, err = run_cli(capsys, "solve", str(binary), "--method", "hc")
        assert code == 2
        assert f"error: {binary}: not UTF-8 text" in err

    def test_non_utf8_references_exit_2_naming_them(self, capsys, tmp_path):
        refs = tmp_path / "bad.txt"
        refs.write_bytes(b"triangle \xff\n")
        code, _, err = run_cli(capsys, "solve", str(DATA_DIR / "triangle.col"),
                               "--method", "hc", "--references", str(refs))
        assert code == 2
        assert f"error: {refs}: not UTF-8 text" in err

    def test_a_reference_listed_twice_exits_2_naming_its_line(self, capsys, tmp_path):
        inst = tmp_path / "toy20.col"
        inst.write_text(render_dimacs(3, [(0, 1)]))
        refs = tmp_path / "refs.txt"
        refs.write_text("toy20 3\ntoy20 4\n")
        code, out, err = run_cli(capsys, "solve", str(inst), "--method", "hc",
                                 "--references", str(refs), "--budget", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: {refs}:2: toy20 already listed at line 1\n"

    def test_improper_result_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("chroma.bench.solve_k_reduction",
                            lambda g, m, p, s, clock: ([0, 0, 0], 3, []))
        code, _, err = run_cli(capsys, "solve", str(DATA_DIR / "triangle.col"),
                               "--method", "hc")
        assert code == 1
        assert "internal error" in err

    def test_virtual_clock_runs_are_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "solve", str(DATA_DIR / "toy20.col"),
                                   "--method", "ils", "--seed", "3",
                                   "--budget", "2",
                                   "--ils-inner-seconds", "0.05",
                                   "--ils-total-seconds", "0.2")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestBenchAndReport:
    def test_end_to_end(self, capsys, tmp_path):
        inst = tmp_path / "tri.col"
        inst.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"instances = {inst}\nmethods = hc, ts\nseeds = 1, 2\nbudget = 5\n"
        )
        out_csv = tmp_path / "results.csv"
        code, out, _ = run_cli(capsys, "bench", "--manifest", str(manifest),
                               "--out", str(out_csv))
        assert code == 0
        assert "wrote 4 results" in out
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 5

        code, out, _ = run_cli(capsys, "report", "--in", str(out_csv))
        assert code == 0
        assert out.startswith("instance")
        assert "tri" in out

    def test_json_output(self, capsys, tmp_path):
        inst = tmp_path / "tri.col"
        inst.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"instances = {inst}\nmethods = hc\nseeds = 1\n")
        out_json = tmp_path / "results.json"
        code, _, _ = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--out", str(out_json), "--json")
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload[0]["instance"] == "tri"
        assert payload[0]["k_colors"] == 3

    def test_load_errors_reported_but_run_continues(self, capsys, tmp_path):
        inst = tmp_path / "tri.col"
        inst.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"instances = {inst}, {tmp_path / 'ghost.col'}\n"
            "methods = hc\nseeds = 1\n"
        )
        out_csv = tmp_path / "results.csv"
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out_csv))
        assert code == 0
        assert "wrote 1 results" in out
        assert "ghost.col" in err
        errors_file = tmp_path / "results.csv.errors.txt"
        assert errors_file.exists()
        assert "ghost.col" in errors_file.read_text()

    def test_a_clean_run_removes_an_earlier_runs_errors_file(self, capsys, tmp_path):
        inst = tmp_path / "tri.col"
        inst.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        manifest = tmp_path / "run.manifest"
        out_csv = tmp_path / "results.csv"
        errors_file = tmp_path / "results.csv.errors.txt"
        for instances, skipped in (f"{inst}, {tmp_path / 'ghost.col'}", True), (inst, False):
            manifest.write_text(f"instances = {instances}\nmethods = hc\nseeds = 1\n")
            code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                     "--out", str(out_csv), "--jobs", "1")
            assert code == 0
            assert errors_file.exists() is skipped
            assert ("ghost.col" in err) is skipped

    def test_an_empty_instance_is_skipped_and_the_run_continues(self, capsys, tmp_path):
        tri = tmp_path / "tri.col"
        tri.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        empty = tmp_path / "empty.col"
        empty.write_text("p edge 0 0\n")
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"instances = {tri}, {empty}\nmethods = hc, ts\nseeds = 1, 2\n")
        out_csv = tmp_path / "results.csv"
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out_csv), "--jobs", "1")
        assert code == 0
        assert "wrote 4 results" in out
        assert out_csv.read_text().splitlines()[1].startswith("tri,HC,1,3,true,")
        assert (tmp_path / "results.csv.errors.txt").read_text() == (
            f"{empty}: cannot color an empty graph\n")
        assert err.splitlines() == [
            f"error: {empty}: cannot color an empty graph",
            f"1 instance(s) skipped (4 cell(s) not run); details in {out_csv}.errors.txt"]

    def test_an_instance_above_the_vertex_cap_is_skipped_naming_it(self, capsys,
                                                                   tmp_path):
        tri = tmp_path / "tri.col"
        tri.write_text(render_dimacs(3, [(0, 1), (1, 2), (0, 2)]))
        big = tmp_path / "big.col"
        big.write_text(f"p edge {MAX_VERTICES + 1} 0\n")
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"instances = {tri}, {big}\nmethods = hc\nseeds = 1\n")
        out_csv = tmp_path / "results.csv"
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out_csv), "--jobs", "1")
        assert code == 0
        assert "wrote 1 results" in out
        assert err.splitlines()[0] == (f"error: {big}: line 1: {MAX_VERTICES + 1} "
                                       f"vertices exceed the limit of {MAX_VERTICES}")

    def test_a_retired_knob_exits_2(self, capsys, tmp_path):
        # hc_strict, sa_geometric, initializer, ils_perturbation and
        # ils_queue_length are no longer solver parameters
        manifest = tmp_path / "old.manifest"
        manifest.write_text("instances = a.col\nmethods = hc\nhc_strict = true\n")
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert out == ""
        assert err == f"error: {manifest}:3: unknown manifest key 'hc_strict'\n"
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DATA_DIR / "triangle.col"), "--method", "sa",
                  "--sa-geometric"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sa-geometric" in capsys.readouterr().err

    def test_virtual_clock_bench_is_byte_identical(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"instances = {DATA_DIR / 'toy20.col'}, {DATA_DIR / 'triangle.col'}\n"
            "methods = hc, ils\n"
            "seeds = 1, 2\n"
            "budget = 2\n"
            "ils_inner_seconds = 0.05\n"
            "ils_total_seconds = 0.2\n"
        )
        payloads = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out), "--jobs", "1")
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_bad_manifest_exits_2(self, capsys, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("methods = hc\n")
        code, _, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "no instances" in err

    def test_instances_sharing_a_stem_exit_2_naming_both(self, capsys, tmp_path):
        # rows are named by stem, so a triangle and an edgeless pair would
        # merge into one "x" row that reads as 1-colorable
        for folder, n, edges in (("a", 3, [(0, 1), (1, 2), (0, 2)]), ("b", 2, [])):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.col").write_text(render_dimacs(n, edges))
        first, second = tmp_path / "a" / "x.col", tmp_path / "b" / "x.col"
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"methods = hc\ninstances = {first}, {second}\n")
        out_csv = tmp_path / "r.csv"
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert err == (f"error: {manifest}:2: instances {first} and {second} "
                       "share the name 'x'\n")
        assert not out_csv.exists()

    def test_non_utf8_manifest_exits_2_naming_it(self, capsys, tmp_path):
        manifest = tmp_path / "bin.manifest"
        manifest.write_bytes(b"instances = a.col\n\xff\n")
        code, _, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"error: {manifest}: not UTF-8 text" in err

    def test_non_utf8_results_csv_exits_2_naming_it(self, capsys, tmp_path):
        results = tmp_path / "bad.csv"
        results.write_bytes(b"instance,method,seed,k_colors,proper,wall_seconds,"
                            b"best_known,diff_percent\ntri\xff,HC,1,3,true,0.001,,\n")
        code, out, err = run_cli(capsys, "report", "--in", str(results))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {results}: not UTF-8 text")

    def test_empty_references_exits_2_naming_its_line(self, capsys, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("instances = a.col\nmethods = hc\nreferences =\n")
        code, _, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert err == f"error: {manifest}:3: references needs a file name\n"

    def test_override_solver_params_rejects_exits_2_naming_its_line(self, capsys,
                                                                    tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("instances = a.col\nmethods = hc\nhc_iterations = 0\n")
        code, _, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert f"error: {manifest}:3: hc_iterations must be an integer" in err
        assert "Traceback" not in err

    def test_nan_budget_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", str(DATA_DIR / "triangle.col"),
                               "--method", "hc", "--budget", "nan")
        assert code == 2
        assert "wall_budget_seconds must be finite" in err

    @pytest.mark.parametrize("budget", ["2.5", "7", "1e3", "+5"])
    def test_a_budget_key_builds_the_params_its_flag_builds(self, tmp_path, budget):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"instances = a.col\nmethods = hc\nbudget = {budget}\n")
        args = _build_parser().parse_args(["solve", "a.col", "--method", "hc",
                                           "--budget", budget])
        assert parse_manifest(manifest).params == _params_from_args(args) == SolverParams(
            wall_budget_seconds=float(budget))

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    def test_a_refused_budget_reads_alike_as_a_key_and_a_flag(self, capsys, tmp_path,
                                                              budget):
        message = f"wall_budget_seconds must be finite and positive, got {float(budget)!r}"
        manifest = tmp_path / "bad.manifest"
        manifest.write_text(f"instances = a.col\nmethods = hc\nbudget = {budget}\n")
        assert run_cli(capsys, "bench", "--manifest", str(manifest),
                       "--out", str(tmp_path / "r.csv")) == (
            2, "", f"error: {manifest}:3: {message}\n")
        assert run_cli(capsys, "solve", str(DATA_DIR / "triangle.col"), "--method", "hc",
                       "--budget", budget) == (2, "", f"error: {message}\n")

    def test_an_unwritable_out_exits_2_before_any_cell_runs(self, capsys, tmp_path,
                                                           monkeypatch):
        cells = []
        monkeypatch.setattr("chroma.bench.run_cell", lambda *cell: cells.append(cell))
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"instances = {DATA_DIR / 'triangle.col'}\nmethods = hc\n")
        out_csv = tmp_path / "missing" / "r.csv"
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(out_csv), "--jobs", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(out_csv) in err
        assert cells == []

    def test_report_missing_columns_exits_2(self, capsys, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("instance,method,k_colors\ntri,HC,3\n")
        code, out, err = run_cli(capsys, "report", "--in", str(results))
        assert code == 2
        assert out == ""
        assert "seed" in err and "best_known" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row,message", [
        ("a,HC", ":3: expected 8 fields"),
        ("tri,HC,x,3,true,0.001,,", ":3: invalid literal for int() with base 10: 'x'"),
        # counts are ASCII digits, as in a DIMACS file
        ("tri,HC,1_0,3,true,0.001,,", ":3: invalid literal for int() with base 10: '1_0'"),
        ("tri,HC, 1,3,true,0.001,,", ":3: invalid literal for int() with base 10: ' 1'"),
        ("tri,HC,1,\uff13,true,0.001,,",
         ":3: invalid literal for int() with base 10: '\uff13'"),
        ("tri,HC,1,3,true,0.001,+4,-25.00",
         ":3: invalid literal for int() with base 10: '+4'"),
        ("tri,HC,1,3,TRUE,0.001,,", ":3: proper must be true or false, got 'TRUE'"),
        ("x,hc,1,4,true,1,,", ":3: method must be one of ('HC', 'SA', 'TS', 'ILS'), "
                              "got 'hc'"),
        ("tri,HC,1,-4,true,0.001,,", ":3: k_colors must be at least 1, got -4"),
        ("tri,HC,1,0,true,0.001,,", ":3: k_colors must be at least 1, got 0"),
        ("tri,HC,1,3,true,0.001,0,", ":3: best_known must be at least 1, got 0"),
        ("tri,SA,1,2,false,-2,4,", ":3: proper is false: only proper colorings are ranked"),
        ("tri,HC,1,3,true,0.001,4,99.5", ":3: diff_percent must be '-25.00' for k_colors 3 "
                                         "and best_known '4', got '99.5'"),
        ("tri,HC,1,3,true,0.001,4,", ":3: diff_percent must be '-25.00' for k_colors 3 "
                                     "and best_known '4', got ''"),
        ("tri,HC,1,3,true,0.001,,0.00", ":3: diff_percent must be '' for k_colors 3 "
                                        "and best_known '', got '0.00'"),
        ("tri,HC,1,3,true,0.001,4,nan", ":3: diff_percent must be '-25.00' for k_colors 3 "
                                        "and best_known '4', got 'nan'"),
        ("tri,HC,-5,3,true,nan,4,-25.00", ":3: wall_seconds must be finite and >= 0, "
                                          "got 'nan'"),
        ("tri,HC,1,3,true,inf,,", ":3: wall_seconds must be finite and >= 0, got 'inf'"),
        ("tri,HC,1,3,true,-0.001,,", ":3: wall_seconds must be finite and >= 0, "
                                     "got '-0.001'"),
        # floats are ASCII text without `_` or surrounding whitespace
        ("tri,HC,1,3,true,1_0,,", ":3: could not convert string to float: '1_0'"),
        ("tri,HC,1,3,true, 5,,", ":3: could not convert string to float: ' 5'"),
        ("tri,HC,1,3,true,\uff15,,", ":3: could not convert string to float: '\uff15'"),
        ("tri,HC,1,3,true,0.001,4,-2_5.00",
         ":3: could not convert string to float: '-2_5.00'"),
        ("tri,HC,1,3,true,0.001,4,-\uff12\uff15.00",
         ":3: could not convert string to float: '-\uff12\uff15.00'"),
    ])
    def test_report_malformed_row_exits_2_naming_its_line(self, capsys, tmp_path,
                                                          row, message):
        results = tmp_path / "results.csv"
        results.write_text("instance,method,seed,k_colors,proper,wall_seconds,"
                           f"best_known,diff_percent\ntri,HC,1,3,true,0.001,,\n{row}\n",
                           encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--in", str(results))
        assert code == 2
        assert out == ""
        assert f"error: {results}{message}" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_rejected(self, capsys, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--manifest", str(tmp_path / "m"),
                  "--out", str(tmp_path / "r.csv"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestExact:
    def test_petersen(self, capsys):
        code, out, _ = run_cli(capsys, "exact", str(DATA_DIR / "petersen.col"))
        assert code == 0
        assert out.strip() == "petersen: chromatic_number=3"

    def test_empty_graph_has_chromatic_number_0(self, capsys, tmp_path):
        empty = tmp_path / "empty.col"
        empty.write_text("p edge 0 0\n")
        code, out, _ = run_cli(capsys, "exact", str(empty))
        assert code == 0
        assert out == "empty: chromatic_number=0\n"

    def test_refuses_oversized_instance(self, capsys):
        code, _, err = run_cli(capsys, "exact", str(DATA_DIR / "toy20.col"))
        assert code == 2
        assert "refuses 20" in err


# Values a fuzzed flag takes: numbers that parse or are refused, and text
# that int() or float() would read but chroma does not.
TOKENS = ["1", "0", "-1", "0.5", "nan", "inf", "1_0", "+5", "\uff15", " 5", "", "x"]


def flags(keys):
    """Up to three `--key value` pairs, keys from `keys`, values from TOKENS."""
    pair = st.tuples(st.sampled_from(keys), st.sampled_from(TOKENS))
    return st.lists(pair, max_size=3).map(
        lambda pairs: [arg for key, value in pairs
                       for arg in ("--" + key.replace("_", "-"), value)])


@st.composite
def files(draw, text):
    """Three times in four a file of the kind `text` draws; otherwise one of
    any kind chroma reads, or bytes that are not UTF-8."""
    if draw(st.integers(0, 3)):
        return draw(text).encode()
    return draw(st.one_of(dimacs_texts(), manifest_texts(), results_csv_texts())
                .map(str.encode) | non_utf8_bytes())


class TestExitContract:
    """Whatever the arguments and files, `main` exits 0, or 2 with a message;
    never 1, which is kept for an improper coloring, and never with a
    traceback."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["solve", "bench", "report", "exact"]),
           instance=files(dimacs_texts()),
           manifest=files(manifest_texts()),
           results=files(results_csv_texts()),
           method=st.sampled_from(["hc", "sa", "ts", "ils"]),
           params=flags(list(PARAM_KEYS)),
           limit=flags(["limit"]))
    def test_fuzzed_runs_exit_0_or_2(self, tmp_path, monkeypatch, command, instance,
                                     manifest, results, method, params, limit):
        monkeypatch.setenv("CHROMA_VIRTUAL_CLOCK", "1")
        monkeypatch.chdir(tmp_path)  # a drawn relative path names nothing else
        (tmp_path / "x.col").write_bytes(instance)
        (tmp_path / "results.csv").write_bytes(results)
        # a small fixed budget ahead of the drawn parameters keeps each run short
        (tmp_path / "run.manifest").write_bytes(
            b"budget = 1\ninstances = x.col\nmethods = hc\n" + manifest)
        argv = {
            "solve": ["solve", "x.col", "--method", method, "--budget", "1", *params],
            "bench": ["bench", "--manifest", "run.manifest", "--out", "r.csv",
                      "--jobs", "1"],
            "report": ["report", "--in", "results.csv"],
            "exact": ["exact", "x.col", *limit],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
