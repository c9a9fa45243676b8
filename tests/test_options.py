"""Options: the census of defaulted parameters in src/psbck.

A parameter with a default is an option, and an option no caller sets is
a knob kept only by habit.  Caps come from ``algebra.size_cap`` (the
PSBCK_MAX_N override), and an operator carries its algebra, so neither
is passed alongside.  This stdlib ``ast`` check pins the (module,
function, parameter) triple of every defaulted parameter, nested
functions included, so a new option shows up as an edit to ``OPTIONS``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"

OPTIONS = {
    ("algebra", "check", "witness"),
    ("algebra", "diagnose", "zero"),
    ("algebra", "record", "detail"),
    ("algebra", "validate", "zero"),
    ("cli", "common", "algebra"),
    ("cli", "main", "argv"),
    ("errors", "__init__", "column"),
    ("errors", "__init__", "line"),
    ("generate", "heyting_from_order", "names"),
    ("generate", "random_algebra", "max_size"),
    ("generate", "random_batch", "max_size"),
    ("generate", "relabel", "prefix"),
    ("morphisms", "_hom_search", "injective"),
    ("operators", "_map_search", "injective"),
    ("operators", "lift_to_den_quotient", "kind"),
    ("operators", "lift_to_reg", "kind"),
    ("textfmt", "_fail", "tok"),
    ("textfmt", "serialize_algebra", "name"),
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
    assert len(OPTIONS) == 18


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
