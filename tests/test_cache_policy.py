"""Cache policy: no module-level caches in src/psbck.

A ``functools.cache``/``lru_cache`` at module level keeps every argument it
has seen, algebras included, for the life of the process, and a
``cached_property`` materialises the instance ``__dict__``.  Derived values
live on the object they are derived from (``FiniteAlgebra.memo``,
``UnaryMap.memo``, ``Homomorphism.memo``) and die with it.  A cache made inside one call, like
``run_suite``'s ``svto`` cache, dies with that call and stays allowed.
This is a stdlib ``ast`` check: it flags each use of those names that runs
at import time, i.e. outside every function body.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"

CACHES = {"cache", "lru_cache", "cached_property"}


def module_level_caches(source: str) -> list[tuple[int, str]]:
    """(line, name) of each cache evaluated when the module is imported."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # decorators and defaults run at definition time, the body later
            for sub in node.decorator_list + node.args.defaults + node.args.kw_defaults:
                if sub is not None:
                    visit(sub)
            return
        if isinstance(node, ast.Lambda):
            return
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if name in CACHES:
            found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_no_module_level_cache(path):
    assert module_level_caches(path.read_text(encoding="utf-8")) == []


def test_module_level_caches_are_reported():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, partial\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "class C:\n"
        "    @cached_property\n"
        "    def p(self):\n"
        "        return cache(partial(f, 1))\n"
        "g = cache(f)\n"
        "def run(A, h=lambda: cache(f)):\n"
        "    ops = cache(partial(f, A))\n"
        "    return ops\n"
    )
    assert module_level_caches(source) == [
        (3, "lru_cache"),
        (7, "cached_property"),
        (10, "cache"),
    ]
