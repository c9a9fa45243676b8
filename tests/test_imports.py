"""Import hygiene: every module in src/psbck uses each name it imports.

The project takes no linter as a dependency, so this is a stdlib ``ast``
check.  A name counts as used when it appears as a name anywhere in the module (an
attribute chain ``x.y`` uses ``x``) or is listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import product as prod, chain\n"
        "from .algebra import validate\n"
        "__all__ = ['validate']\n"
        "def f():\n"
        "    return list(chain())\n"
    )
    assert unused_imports(source) == ["os", "prod"]
