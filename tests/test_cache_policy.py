"""Cache policy: no module-level caches in src/psbck.

A ``functools.cache``/``lru_cache`` at module level keeps every argument it
has seen, algebras included, for the life of the process, and a
``cached_property`` materialises the instance ``__dict__``.  Derived values
live on the object they are derived from (``FiniteAlgebra.memo``,
``UnaryMap.memo``, ``Homomorphism.memo``) and die with it.  A cache made inside one call, like
the caches of ``run_suite``'s checks (``smarandache-antitone``'s operators,
the pair families' composite verdicts), dies with that call and stays
allowed.
This is a stdlib ``ast`` check: it flags each use of those names that runs
at import time, i.e. outside every function body.  A second ``ast`` check
flags every ``global`` statement: module state that a function writes
outlives its caller just as such a cache does, and no cache name shows it.

A third check walks what an algebra's memo refers to (``gc.get_referents``)
after ``run_suite``: it keeps plain data only, and no deductive system,
quotient, operator or homomorphism, each of which refers to an algebra.
Those live on their own objects (``DeductiveSystem.memo`` keeps a quotient,
``UnaryMap.memo`` the operator's systems and lifts).
"""

import ast
import gc
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

from psbck.algebra import validate
from psbck.deduction import DeductiveSystem, QuotientAlgebra, enumerate_ds
from psbck.generate import _seed_pool
from psbck.morphisms import Homomorphism
from psbck.operators import UnaryMap, identity_map
from psbck.suite import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"

REFERRING = (DeductiveSystem, QuotientAlgebra, UnaryMap, Homomorphism)

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


def global_statements(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a ``global`` statement declares."""
    return [
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_writes_no_global(path):
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_global_statements_are_reported():
    source = (
        "_POOL = None\n"
        "def pool():\n"
        "    global _POOL\n"
        "    if _POOL is None:\n"
        "        _POOL = []\n"
        "    return _POOL\n"
        "class C:\n"
        "    def m(self):\n"
        "        global _A, _B\n"
    )
    assert global_statements(source) == [(3, "_POOL"), (9, "_A"), (9, "_B")]


def referring_objects(memo) -> list:
    """Every object of a ``REFERRING`` type reachable from ``memo``.  The
    walk does not enter classes or modules, and enters a function only
    through its closure, so it stays inside what the memo holds."""
    found, seen, stack = [], set(), [memo]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, REFERRING):
            found.append(obj)
        if isinstance(obj, FunctionType):
            stack.extend(obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_algebra_memos_keep_no_object_that_refers_to_an_algebra():
    pool = _seed_pool()
    for A in pool:
        run_suite(A)
    assert all(A.memo for A in pool)
    assert [A.element_names for A in pool if referring_objects(A.memo)] == []


def _closure_over_an_operator(A):
    v = identity_map(A)
    return {"lift": lambda: v}


@pytest.mark.parametrize("plant", [
    lambda A: enumerate_ds(A)[0],
    lambda A: [(1, identity_map(A))],
    _closure_over_an_operator,
], ids=["system", "nested-operator", "closure"])
def test_a_planted_referring_entry_is_reported(plant):
    A = _seed_pool()[2]
    A = validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)
    run_suite(A)
    assert referring_objects(A.memo) == []
    A.memo["planted"] = plant(A)
    assert referring_objects(A.memo)
