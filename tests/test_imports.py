"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vcsndp"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` (`__future__` aside)
    that no expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0]
                      for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\n"
        "from typing import Iterable, Mapping\n"
        "def f(x: Iterable) -> None:\n    return os.path.join(x)\n"
    ) == ["system", "Mapping"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
