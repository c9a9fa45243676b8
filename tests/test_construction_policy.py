"""Construction policy: every ``FiniteAlgebra`` is certified.

Tables that come from outside a theorem (parsed, golden or generated) are
certified by ``validate``.  Two constructions build their algebra directly,
each covered by a theorem that their own hypothesis checks establish:

- ``FiniteAlgebra.subalgebra``: every pseudo-BCK axiom is a universal
  sentence in ->, ~>, 1 and 0, so a subset closed under both implications
  and containing 1 inherits them all;
- ``deduction.congruence_from``: the quotient by a normal deductive system,
  once its class tables are well defined, is a pseudo-BCK algebra.

Likewise every ``DeductiveSystem`` is decided: ``from_members`` checks
closure under modus ponens and decides normality from the tables.  Three
constructions build their system directly, each covered by its reason:

- ``deduction.enumerate_ds``: each mask is closed by the walk, and its
  normal flag is decided by ``_is_normal``;
- ``operators.lift_to_den_quotient``: on a good algebra with the Glivenko
  property, Den(A) is a normal deductive system by theorem (x->y is dense
  iff x <= y^{-~} iff x~>y is dense, and x and x->y dense make y dense);
  oracle in ``tests/test_operators.py``;
- ``morphisms.first_isomorphism``: the kernel of a homomorphism f is a
  normal deductive system by theorem (f(x) = f(x->y) = 1 gives
  f(y) = f(x)->f(y) = 1, and x->y and x~>y lie in Ker f exactly when
  f(x) <= f(y)); oracle over every endomorphism of the seed pool in
  ``tests/test_morphisms.py``, which also checks that the corestriction
  onto the image, taken there as a homomorphism by theorem, is one.

This is a stdlib ``ast`` check: it lists each function in src/psbck that
calls ``FiniteAlgebra(...)`` or ``DeductiveSystem(...)``.  A new direct
construction fails here until the reason that covers it is named above and
its function pinned below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"

CERTIFIED = {
    ("algebra.py", "validate"),
    ("algebra.py", "FiniteAlgebra.subalgebra"),
    ("deduction.py", "congruence_from"),
}

DECIDED = {
    ("deduction.py", "enumerate_ds"),
    ("operators.py", "lift_to_den_quotient"),
    ("morphisms.py", "first_isomorphism"),
}


def direct_constructions(
    source: str, cls: str = "FiniteAlgebra"
) -> list[tuple[int, str]]:
    """(line, qualified name of the enclosing function or "<module>") of
    each call to ``cls`` or ``<anything>.cls``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name == cls:
                found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def _constructors(cls):
    return {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for _, scope in direct_constructions(path.read_text(encoding="utf-8"), cls)
    }


def test_only_certified_functions_build_algebras_directly():
    assert _constructors("FiniteAlgebra") == CERTIFIED


def test_only_pinned_functions_build_deductive_systems_directly():
    assert _constructors("DeductiveSystem") == DECIDED


def test_direct_constructions_are_reported():
    source = (
        "from . import algebra\n"
        "from .algebra import FiniteAlgebra, validate\n"
        "def parse(text):\n"
        "    return validate(*text)\n"
        "class Builder:\n"
        "    def build(self, rows):\n"
        "        return FiniteAlgebra(*rows)\n"
        "def copy(A):\n"
        "    keep = lambda: algebra.FiniteAlgebra(A.element_names)\n"
        "    return isinstance(A, FiniteAlgebra) and keep()\n"
        "EMPTY = FiniteAlgebra((), 0, (), ())\n"
        "def den(A):\n"
        "    return DeductiveSystem.from_members(A, A.dense_elements())\n"
        "def top(A):\n"
        "    return deduction.DeductiveSystem(A, frozenset(A.elements), True)\n"
    )
    assert direct_constructions(source) == [
        (7, "Builder.build"),
        (9, "copy"),
        (11, "<module>"),
    ]
    assert direct_constructions(source, "DeductiveSystem") == [(15, "top")]

