"""``run_suite`` as one pass over the family table ``suite.FAMILIES``.

The table is an ordered tuple of (name, gate, check).  ``run_suite`` builds
``suite.Facts`` once and reports, in table order, each family whose gate is
None or holds.  It reads ``FAMILIES`` when it is called, so a harness that
swaps in wrapped checks sees every family it reports.  A stdlib ``ast``
check pins the shape of ``run_suite``: no nested function and no ``if``
statement, so every family and every gate lives in the table.
"""

import ast
from pathlib import Path

import pytest

from conftest import golden_up_sets
from psbck import goldens, suite
from psbck.generate import _seed_pool, lukasiewicz_chain
from psbck.suite import FAMILIES, Facts, run_suite

SRC = Path(suite.__file__)
GOLDENS = (
    goldens.four_element_bounded,
    goldens.six_element_involutive,
    goldens.six_element_smarandache,
    goldens.one_element,
    goldens.two_chain,
)


@pytest.fixture(scope="module")
def suites(random_batch_suites):
    """(algebra, run_suite results) over the pool, the goldens, their
    up-sets and a 9-element chain, past the endomorphism cap."""
    rest = list(_seed_pool()) + [g() for g in GOLDENS] + list(golden_up_sets())
    rest.append(lukasiewicz_chain(9))
    return random_batch_suites + [(A, run_suite(A)) for A in rest]


def test_names_are_the_table_rows_whose_gate_holds(suites):
    names = [name for name, _, _ in FAMILIES]
    assert len(names) == len(set(names))
    reported, skipped = set(), set()
    for A, results in suites:
        facts = Facts.of(A)
        open_rows = [name for name, gate, _ in FAMILIES if gate is None or gate(facts)]
        assert [r.name for r in results] == open_rows, A.element_names
        reported |= set(open_rows)
        skipped |= set(names) - set(open_rows)
    # every family runs somewhere, and every gate is closed somewhere
    assert reported == set(names)
    assert skipped == {name for name, gate, _ in FAMILIES if gate is not None}


def test_a_wrapped_table_sees_each_reported_family_once(suites, monkeypatch):
    seen = []

    def wrapped(name, check):
        def counted(facts):
            seen.append(name)
            return check(facts)

        return counted

    table = tuple((name, gate, wrapped(name, check)) for name, gate, check in FAMILIES)
    monkeypatch.setattr(suite, "FAMILIES", table)
    for A, results in suites:
        seen.clear()
        again = run_suite(A)
        assert again == results, A.element_names
        assert seen == [r.name for r in results], A.element_names


def _run_suite_node():
    tree = ast.parse(SRC.read_text(encoding="utf-8"))
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_suite")


def nested_defs_and_ifs(fn: ast.FunctionDef) -> list[str]:
    """The kind of each nested function and each ``if`` statement in fn."""
    found = []
    for node in ast.walk(fn):
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append("def")
        elif isinstance(node, ast.If):
            found.append("if")
    return found


def test_run_suite_is_one_pass_over_the_table():
    fn = _run_suite_node()
    assert nested_defs_and_ifs(fn) == []
    # the table is read by name inside the call, not bound at import
    assert fn.args.defaults == [] and fn.args.kw_defaults == []
    loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert "FAMILIES" in loads


def test_nested_defs_and_ifs_are_reported():
    source = (
        "def run_suite(A):\n"
        "    def inner(x):\n"
        "        return x\n"
        "    if A:\n"
        "        return [r for r in A if r]\n"
        "    return inner\n"
    )
    fn = ast.parse(source).body[0]
    assert nested_defs_and_ifs(fn) == ["def", "if"]
