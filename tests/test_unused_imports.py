"""Every name a kyfan module, script or test imports is used there or exported.

No linter runs on this repository, so this test does the one check of
pyflakes' F401 that matters most here: a name bound by an import statement
must be read somewhere in its module (an attribute chain ``np.linalg.svd``
reads ``np``) or be listed in the module's ``__all__``.  An import statement
marked ``# noqa: F401`` on any of its lines is exempt; the marker's comment
gives the reason the name is kept.  ``from __future__`` imports bind no name
that code reads, and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "kyfan").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """The names that ``source``'s unexempted imports bind and nothing reads, with
    their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read | _exported(tree))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "import os.path\n"
              "from math import pi  # noqa: F401\n"
              "__all__ = ['np']\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = os.sep\n")
    assert unused_imports(source) == [(1, "field")]
