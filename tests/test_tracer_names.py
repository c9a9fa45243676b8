"""The benchmark's tracer wraps psbck functions by name, so each must exist.

``perfbench/tracer.py`` lists them as ``module.function`` in ``LAYERS``,
``SEARCHES``, ``REPEAT`` and ``KEPT``.  Deleting or renaming one of them
would break ``perfbench/run.py --trace 1``; this stdlib ``ast`` check
reads the lists without importing the benchmark, so tier-1 catches it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _literals():
    """Name -> value of each module-level literal assignment in tracer.py."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    found[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return found


def _traced_names():
    lists = _literals()
    names = [f"{mod}.{fn}" for mod, fns in lists["LAYERS"].items() for fn in fns]
    names += [*lists["SEARCHES"], *lists["REPEAT"]]
    names += [name for pair in lists["KEPT"].items() for name in pair]
    return names


def test_every_traced_function_exists_in_psbck():
    names = _traced_names()
    assert "classes.enumerate_vto_flw" in names and "suite.run_suite" in names
    missing = []
    for name in names:
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"psbck.{mod}"), fn, None)):
            missing.append(name)
    assert not missing
