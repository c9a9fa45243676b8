"""Dead code: every function, class and method defined in src/psbck is used,
and every dataclass field is read.

A stdlib ``ast`` check, like ``test_imports.py``.  A definition counts as
used when its name is read somewhere outside its own body: as a name or an
attribute anywhere in ``src/`` or ``perfbench/``, or as a word of a code
span of README.md, which documents the library; a word of its prose
("its kernel") names no definition.  A definition that only tests read is
reported: it is kept for its tests alone.  The dunder methods that the
language or ``psbck._records`` calls implicitly (``IMPLICIT``) are not
checked; any other dunder is checked like a plain name.  A field of a ``@dataclass`` counts as read
when some attribute load in ``src/`` or ``tests/`` names it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "psbck"
IMPLICIT = {
    "__init__", "__repr__", "__str__", "__eq__", "__hash__",
    "__post_init__", "__setattr__", "__delattr__",
}


def _definitions(tree):
    """(name, node) of each top-level function or class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _references(tree):
    """(name, line) of every name or attribute read in the tree.  An
    attribute of a literal (``", ".join``) names a method of the literal's
    type, not a definition, and is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(
            node.value, (ast.Constant, ast.JoinedStr)
        ):
            yield node.attr, node.lineno


def unreferenced(defined: dict[str, str], others: dict[str, str], text: str = "") -> list[str]:
    """Definitions in the ``defined`` sources (path -> source) that nothing
    reads: not the ``defined`` sources outside their own body, not the
    ``others`` sources, not ``text``."""
    trees = {path: ast.parse(src) for path, src in {**others, **defined}.items()}
    reads = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _references(tree):
            reads[name].append((path, line))
    words = {w for span in re.findall(r"`+([^`]+)`+", text) for w in re.findall(r"\w+", span)}
    dead = []
    for path in defined:
        for name, node in _definitions(trees[path]):
            if name in IMPLICIT or name in words:
                continue
            if not any(
                p != path or not node.lineno <= line <= node.end_lineno
                for p, line in reads[name]
            ):
                dead.append(f"{Path(path).stem}.{name}")
    return sorted(dead)


def _sources(paths):
    return {str(p): p.read_text(encoding="utf-8") for p in paths}


def test_every_definition_is_referenced():
    defined = _sources(sorted(SRC.glob("*.py")))
    others = _sources(sorted((ROOT / "perfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced(defined, others, readme) == []


def test_unreferenced_definitions_are_reported():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "def documented():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.items = []\n"
        "    def __le__(self, other):\n"
        "        return True\n"
        "    def size(self):\n"
        "        return len(self.items)\n"
        "    def stale(self):\n"
        "        return self.size()\n"
        "def tested():\n"
        "    return 2\n"
        "def join(parts):\n"
        "    return parts\n"
        "def label(parts):\n"
        "    return ', '.join(parts) + f'{parts}'.join(parts)\n"
    )
    bench = "from mod import Box, label\nassert Box() is not None and label('')\n"
    # a test is no reader, so ``tested``, read only there, is reported
    test = "from mod import tested\nassert tested() == 2\n"
    text = "see `documented`; the stale entry is kept in prose only"
    found = unreferenced({"mod.py": source}, {"bench.py": bench}, text)
    # ``join`` is read only as a method of string literals, so it is
    # reported; ``__le__`` is a dunder that nothing calls implicitly; a
    # prose word is no reader, so ``stale`` is reported
    assert found == ["mod.__le__", "mod.join", "mod.recursive", "mod.stale", "mod.tested"]
    assert "mod.tested" not in unreferenced({"mod.py": source}, {"test_mod.py": test})


def _is_dataclass(node):
    """``@dataclass`` or ``@dataclass(...)`` decorates the class."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def unread_fields(defined: dict[str, str], others: dict[str, str]) -> list[str]:
    """Fields of the dataclasses in the ``defined`` sources that no
    attribute load in ``defined`` or ``others`` names."""
    trees = {path: ast.parse(src) for path, src in {**others, **defined}.items()}
    loads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in defined:
        for node in trees[path].body:
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in loads:
                        unread.append(f"{Path(path).stem}.{node.name}.{item.target.id}")
    return sorted(unread)


def test_every_field_is_read():
    defined = _sources(sorted(SRC.glob("*.py")))
    others = _sources(sorted((ROOT / "tests").glob("*.py")))
    assert unread_fields(defined, others) == []


def test_unread_fields_are_reported():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "    spare: tuple = field(default=())\n"
        "    def total(self):\n"
        "        return self.left + 1\n"
        "@dataclass\n"
        "class Stored:\n"
        "    written: int\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    test = "from mod import Pair, Stored\nassert Pair(1, 2).right == 2\ns = Stored(0)\ns.written = 1\n"
    found = unread_fields({"mod.py": source}, {"test_mod.py": test})
    assert found == ["mod.Pair.spare", "mod.Stored.written"]
