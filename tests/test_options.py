"""Options: the census of defaulted parameters in src/psbck.

A parameter with a default is an option, and an option no caller sets is
a knob kept only by habit.  Caps come from ``algebra.size_cap`` (the
PSBCK_MAX_N override), and an operator carries its algebra, so neither
is passed alongside.  This stdlib ``ast`` check pins the (module,
function, parameter) triple of every defaulted parameter, nested
functions included, so a new option shows up as an edit to ``OPTIONS``.
A second check finds parameters, defaulted or not, that the body never
reads.  A third pins the ``@dataclass`` classes (the decorator is
``psbck._records.dataclass``), so a new verdict or report type shows up as
an edit to ``DATACLASSES``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"

OPTIONS = {
    # the record decorator keeps the stdlib's spelling: 3 bare ``@dataclass``
    # classes pass ``cls``, 13 set ``frozen``, and 4 memo fields set
    # ``init``, ``repr`` and ``compare`` to False
    ("_records", "dataclass", "cls"),
    ("_records", "dataclass", "frozen"),
    ("_records", "field", "compare"),
    ("_records", "field", "init"),
    ("_records", "field", "repr"),
    ("algebra", "diagnose", "zero"),
    ("algebra", "record", "detail"),
    ("algebra", "validate", "zero"),
    ("cli", "common", "algebra"),
    ("cli", "main", "argv"),
    ("errors", "__init__", "column"),
    ("errors", "__init__", "line"),
    ("textfmt", "_fail", "tok"),
}


def defaulted_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) of each parameter with a default, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            found += [(node.name, a.arg) for a in defaulted]
    return sorted(found)


def test_every_option_is_pinned():
    census = {
        (path.stem, fn, param)
        for path in sorted(SRC.glob("*.py"))
        for fn, param in defaulted_parameters(path.read_text(encoding="utf-8"))
    }
    assert census == OPTIONS
    assert len(OPTIONS) == 13


def test_defaulted_parameters_are_reported():
    source = (
        "def f(a, b=1, *, c, d=None):\n"
        "    def inner(x=0):\n"
        "        return x\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self, e, /, g=2):\n"
        "        return lambda h=3: h\n"
    )
    assert defaulted_parameters(source) == [
        ("f", "b"),
        ("f", "d"),
        ("inner", "x"),
        ("m", "g"),
    ]


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) of each parameter of a function or lambda that
    its body never reads, sorted; ``self``, ``cls`` and names starting with
    ``_`` are exempt.  A read inside a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
        else:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (name, a.arg)
            for a in params
            if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_")
        ]
    return sorted(found)


def test_every_parameter_is_read():
    unread = {
        (path.stem, fn, param)
        for path in sorted(SRC.glob("*.py"))
        for fn, param in unread_parameters(path.read_text(encoding="utf-8"))
    }
    assert unread == set()


def test_unread_parameters_are_reported():
    source = (
        "def f(a, b, _c, *args, **kw):\n"
        "    return a + len(args)\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return lambda y, z=x: y\n"
        "    @classmethod\n"
        "    def k(cls, w, *, s):\n"
        "        def inner(q):\n"
        "            return w\n"
        "        s = 1\n"
        "        return inner\n"
    )
    assert unread_parameters(source) == [
        ("<lambda>", "z"),
        ("f", "b"),
        ("f", "kw"),
        ("inner", "q"),
        ("k", "s"),
    ]


DATACLASSES = {
    ("algebra", "FiniteAlgebra"),
    ("algebra", "Witness"),
    ("classes", "ClassificationReport"),
    ("deduction", "DeductiveSystem"),
    ("deduction", "QuotientAlgebra"),
    ("morphisms", "FactorResult"),
    ("morphisms", "Homomorphism"),
    ("morphisms", "VtHomomorphism"),
    ("operators", "UnaryMap"),
    ("suite", "Facts"),
    ("suite", "SuiteResult"),
    ("textfmt", "AlgebraBlock"),
    ("textfmt", "RawDocument"),
    ("textfmt", "Token"),
    ("textfmt", "WorkbenchDocument"),
    ("valuations", "PseudoValuation"),
}


def dataclass_names(source: str) -> list[str]:
    """Each class decorated with ``dataclass`` or ``dataclass(...)``, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                    found.append(node.name)
    return sorted(found)


def test_every_dataclass_is_pinned():
    census = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in dataclass_names(path.read_text(encoding="utf-8"))
    }
    assert census == DATACLASSES
    assert len(DATACLASSES) == 16


def test_dataclasses_are_reported():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    @dataclass\n"
        "    class Inner:\n"
        "        y: int\n"
        "@dataclasses.dataclass\n"
        "class C:\n"
        "    pass\n"
        "class D:\n"
        "    pass\n"
    )
    assert dataclass_names(source) == ["A", "B", "C", "Inner"]
