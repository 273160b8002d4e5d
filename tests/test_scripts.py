"""Smoke runs of the scripts under scripts/, each in a child process under the
virtual clock, so a change to the API they call cannot break them unseen; and
a check of the committed DSJC manifest."""

import importlib.util
import os
import subprocess
import sys

from chroma import SolverParams
from chroma.bench import parse_manifest

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


def test_dsjc_manifest_names_the_protocol_cells():
    manifest = parse_manifest(REPO_ROOT / "data" / "dimacs" / "dsjc.manifest")
    assert manifest.instances == [f"data/dimacs/DSJC{n}.{p}.col"
                                  for n in (125, 250) for p in (1, 5, 9)]
    assert manifest.methods == ["HC", "SA", "TS", "ILS"]
    assert manifest.seeds == [1, 2, 3]
    assert manifest.params == SolverParams(wall_budget_seconds=600.0)
    assert manifest.references_path is None


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
