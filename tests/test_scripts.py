"""Checks of what lives beside the code: the committed DSJC manifest and
scripts/mutants.py. The mutant table's replacement texts must still be found
in the source and its named tests must still be defined, and a test run that
does not end must count as failing. No script is run here."""

import ast
import importlib.util
import subprocess

from chroma import SolverParams
from chroma.bench import parse_manifest

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def test_dsjc_manifest_names_the_protocol_cells():
    manifest = parse_manifest(REPO_ROOT / "data" / "dimacs" / "dsjc.manifest")
    assert manifest.instances == [f"data/dimacs/DSJC{n}.{p}.col"
                                  for n in (125, 250) for p in (1, 5, 9)]
    assert manifest.methods == ["HC", "SA", "TS", "ILS"]
    assert manifest.seeds == [1, 2, 3]
    assert manifest.params == SolverParams(wall_budget_seconds=600.0)
    assert manifest.references_path is None


def load_mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_names_text_found_once_and_existing_test_files():
    # the mutants themselves run in a CI job of their own; this keeps their
    # replacement texts from drifting away from the source unseen
    for mutant in load_mutants_script().MUTANTS:
        source = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
        assert source.count(mutant.old) == 1, mutant.name
        assert all((REPO_ROOT / test.split("::")[0]).exists() for test in mutant.tests)


def test_every_test_a_mutant_names_is_defined():
    # a renamed or deleted test would leave its id in the table, and the
    # mutant run would then select nothing for that mutant
    def defined(body, names):
        if not names:
            return True
        return any(isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name == names[0]
                   and defined(node.body if isinstance(node, ast.ClassDef) else [],
                               names[1:])
                   for node in body)

    for mutant in load_mutants_script().MUTANTS:
        for test in mutant.tests:
            path, *names = test.split("::")
            names = [name.split("[")[0] for name in names if name]
            tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
            assert defined(tree.body, names), f"{mutant.name}: {test}"


def test_a_test_run_that_times_out_counts_as_not_passing(monkeypatch, tmp_path):
    # a mutant that freezes a loop must not hold the mutant run until the CI
    # job's own limit
    script = load_mutants_script()
    timeouts = []

    def frozen_run(cmd, **kwargs):
        timeouts.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(script.subprocess, "run", frozen_run)
    assert script.run_tests(tmp_path, ("tests/test_search.py",)) is False
    assert timeouts == [script.TIMEOUT_SECONDS]
