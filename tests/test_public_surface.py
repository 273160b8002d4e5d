"""The package exports only what the program itself uses: every name in
chroma.__all__ is read somewhere in src/ (outside __init__.py), perfbench/ or
scripts/. A name only the tests use belongs in conftest.py."""

import ast

import chroma

from conftest import REPO_ROOT


def used_names():
    """Every Name, Attribute and import alias in the program's sources.
    String constants, docstrings among them, are not uses."""
    sources = [path for path in (REPO_ROOT / "src").rglob("*.py")
               if path.name != "__init__.py"]
    for folder in ("perfbench", "scripts"):
        sources += (REPO_ROOT / folder).rglob("*.py")
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_exported_name_is_used_by_the_program():
    unused = sorted(set(chroma.__all__) - used_names())
    assert unused == [], f"exported but used only by tests: {unused}"
