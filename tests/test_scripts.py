"""Smoke runs of the scripts under scripts/, each in a child process under the
virtual clock, so a change to the API they call cannot break them unseen."""

import csv
import importlib.util
import os
import subprocess
import sys

from chroma import random_graph, render_dimacs

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args, **env):
    pythonpath = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env={**os.environ, "PYTHONPATH": pythonpath, "CHROMA_VIRTUAL_CLOCK": "1", **env},
        capture_output=True, text=True, timeout=120,
    )


def test_oracle_check_prints_a_line_per_method():
    result = run_script("oracle_check.py", "--graphs", "2", "--budget", "1")
    assert result.returncode == 0, result.stderr
    tallies = [line for line in result.stdout.splitlines() if ": optimum in " in line]
    assert [line.split(":")[0].strip() for line in tallies] == ["HC", "SA", "TS", "ILS"]
    assert all("/2 " in line for line in tallies)


def test_dimacs_bench_without_instances_exits_2(tmp_path):
    result = run_script("run_dimacs_bench.py", CHROMA_DIMACS_DIR=str(tmp_path))
    assert result.returncode == 2
    assert "no DSJC instances found" in result.stderr


def test_dimacs_bench_writes_a_row_per_cell(tmp_path):
    g = random_graph(30, 0.1, seed=1)
    edges = [(u, v) for u in range(g.vertex_count) for v in g.adjacency[u] if u < v]
    (tmp_path / "DSJC125.1.col").write_text(render_dimacs(g.vertex_count, edges))
    out = tmp_path / "r.csv"
    result = run_script("run_dimacs_bench.py", "--budget", "1", "--seeds", "1",
                        "--methods", "hc", "--jobs", "1", "--out", str(out),
                        CHROMA_DIMACS_DIR=str(tmp_path))
    assert result.returncode == 0, result.stderr
    with out.open() as stream:
        rows = list(csv.DictReader(stream))
    assert [(r["instance"], r["method"], r["seed"], r["proper"]) for r in rows] == [
        ("DSJC125.1", "HC", "1", "true")]
    assert (tmp_path / "r.manifest").exists()


def test_every_mutant_names_text_found_once_and_existing_test_files():
    # the mutants themselves run in a CI job of their own; this keeps their
    # replacement texts from drifting away from the source unseen
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for mutant in mutants.MUTANTS:
        source = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert all((REPO_ROOT / test.split("::")[0]).exists() for test in mutant.tests)
