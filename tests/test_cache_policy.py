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

A fourth, ``ast``, check is a census of memo writes: each key is written
by the one function that derives it, so a checker keeps its own verdict
and a caller only calls it.  A key written from a second place shows up
as an edit to ``WRITERS``.
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
from psbck.suite import FAMILIES, Facts, run_suite

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


# each memo key and the one function that writes it; ``first_isomorphism``
# also writes "hom" on the corestriction onto the image, which is a
# homomorphism by theorem, and "vto" on u restricted to the image, which
# is very true by theorem, so no check runs on either
WRITERS = {
    "order": ["algebra.FiniteAlgebra.order_masks"],
    "double-neg": ["algebra.FiniteAlgebra.double_negations"],
    "glivenko": ["algebra.FiniteAlgebra.is_glivenko"],
    "odot": ["classes.pseudo_product"],
    "classify": ["classes.classify"],
    "mp-pairs": ["deduction._mp_pairs"],
    "is-ds": ["deduction._is_ds"],
    "is-normal": ["deduction._is_normal"],
    "ds": ["deduction.enumerate_ds"],
    "ds_v": ["deduction.enumerate_ds_v"],
    "quotient": ["deduction.congruence_from"],
    "lift": ["deduction.lift_vto_to_quotient"],
    "kernel": ["morphisms.Homomorphism.kernel"],
    "hom": ["morphisms.first_isomorphism", "morphisms.is_hom"],
    "image-closed": ["morphisms.transport"],
    "factor": ["morphisms.factor"],
    "first-iso": ["morphisms.first_isomorphism"],
    "vto": ["morphisms.first_isomorphism", "operators.is_vto"],
}


def _functions(tree, module):
    """(module.function or module.Class.method, node) of each definition."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def _is_memo(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "memo") or (
        isinstance(node, ast.Attribute) and node.attr == "memo"
    )


def memo_writes(source: str, module: str) -> list[tuple[str, str]]:
    """(key, writer) of each store into a ``memo`` (a name or an
    attribute), by subscript or ``setdefault``.  A tuple key counts by its
    first item, and a key held in a local name by what the name is bound
    to; a key that is no string reads as its source text."""
    found = []
    for writer, fn in _functions(ast.parse(source), module):
        bound = {
            node.targets[0].id: node.value
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }

        def key(node):
            node = bound.get(node.id, node) if isinstance(node, ast.Name) else node
            node = node.elts[0] if isinstance(node, ast.Tuple) else node
            return node.value if isinstance(node, ast.Constant) else ast.unparse(node)

        for node in ast.walk(fn):
            targets = node.targets if isinstance(node, ast.Assign) else []
            for t in targets:
                if isinstance(t, ast.Subscript) and _is_memo(t.value):
                    found.append((key(t.slice), writer))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and _is_memo(node.func.value)
            ):
                found.append((key(node.args[0]), writer))
    return found


def test_each_memo_key_has_one_writer():
    census = {}
    for path in sorted(SRC.glob("*.py")):
        for k, writer in memo_writes(path.read_text(encoding="utf-8"), path.stem):
            census.setdefault(k, set()).add(writer)
    assert {k: sorted(w) for k, w in census.items()} == WRITERS


def test_a_caller_side_memo_write_is_reported():
    source = (
        "def is_vto(f):\n"
        "    f.memo['vto'] = True\n"
        "class C:\n"
        "    def m(self, A, S):\n"
        "        memo = A.memo\n"
        "        key = ('image-ds', S)\n"
        "        memo[key] = memo.setdefault('n', {})\n"
        "def certify(f, k):\n"
        "    f.memo['vto'] = f.memo[k] = True\n"
    )
    assert memo_writes(source, "m") == [
        ("vto", "m.is_vto"),
        ("image-ds", "m.C.m"),
        ("n", "m.C.m"),
        ("vto", "m.certify"),
        ("k", "m.certify"),
    ]


def test_homomorphism_memos_keep_five_kinds_of_key():
    kinds = set()
    for A in _seed_pool():
        facts = Facts.of(A)
        for _, gate, check in FAMILIES:
            if gate is None or gate(facts):
                check(facts)
        for f in facts.homs or ():
            kinds |= {k if isinstance(k, str) else k[0] for k in f.memo}
    assert kinds == {"kernel", "hom", "first-iso", "factor", "image-closed"}
