"""Caps: ``algebra.size_cap`` is the only reader of a ``DEFAULT_*`` cap.

Every search cap is ``size_cap(DEFAULT_*)``, so PSBCK_MAX_N replaces each
of them; a cap compared or passed on its own ignores the override.  This
stdlib ``ast`` check finds each load of a ``DEFAULT_*`` name or attribute
in ``src/psbck`` that is not an argument of a ``size_cap`` call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psbck"


def _is_size_cap(call: ast.Call) -> bool:
    f = call.func
    return getattr(f, "id", getattr(f, "attr", None)) == "size_cap"


def default_loads(source: str) -> tuple[set[str], list[tuple[int, str]]]:
    """(names read through ``size_cap``, sorted (line, name) of every other
    load of a ``DEFAULT_*`` constant)."""
    tree = ast.parse(source)
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _is_size_cap(n)]
    capped = {id(arg) for call in calls for arg in call.args}
    through, other = set(), []
    for n in ast.walk(tree):
        name = getattr(n, "id", getattr(n, "attr", ""))
        if name.startswith("DEFAULT_") and isinstance(n.ctx, ast.Load):
            if id(n) in capped:
                through.add(name)
            else:
                other.append((n.lineno, name))
    return through, sorted(other)


def test_every_default_cap_is_read_through_size_cap():
    through, other = set(), set()
    for path in sorted(SRC.glob("*.py")):
        names, loads = default_loads(path.read_text(encoding="utf-8"))
        through |= names
        other |= {(path.stem, line, name) for line, name in loads}
    assert other == set()
    assert through == {
        "DEFAULT_ENUM_CAP",
        "DEFAULT_HOM_CAP",
        "DEFAULT_MAX_CARRIER",
        "DEFAULT_SMARANDACHE_CAP",
        "DEFAULT_SUBSET_CAP",
    }


def test_default_loads_are_reported():
    source = (
        "from .m import DEFAULT_A\n"
        "DEFAULT_B = 3\n"
        "def f(n):\n"
        "    cap = size_cap(DEFAULT_A)\n"
        "    if n <= DEFAULT_B or n > algebra.size_cap(m.DEFAULT_C):\n"
        "        return m.DEFAULT_D\n"
        "    return g(DEFAULT_A)\n"
    )
    assert default_loads(source) == (
        {"DEFAULT_A", "DEFAULT_C"},
        [(5, "DEFAULT_B"), (6, "DEFAULT_D"), (7, "DEFAULT_A")],
    )
