"""The closer contract of ``deduction._closed_sets``.

``close(A, closed, new)`` is the least closed superset of ``closed | new``,
given that ``closed`` is already closed.  Both closers are checked against
the from-scratch fixpoint loops they replaced: every member against every
element, pass after pass, until a pass adds nothing.
"""

import pytest

from conftest import golden_up_sets
from psbck import goldens
from psbck.classes import _close_implications
from psbck.deduction import _closed_sets, _saturate
from psbck.generate import direct_product, goedel_chain, lukasiewicz_chain


def saturate_reference(A, mask):
    """Close a bitset under modus ponens for both implications."""
    els, ar, sq = A.elements, A.arrow, A.squig
    changed = True
    while changed:
        changed = False
        for x in els:
            if not mask >> x & 1:
                continue
            for y in els:
                if mask >> y & 1:
                    continue
                if mask >> ar[x][y] & 1 or mask >> sq[x][y] & 1:
                    mask |= 1 << y
                    changed = True
    return mask


def close_implications_reference(A, mask):
    """Close a bitset under both implications."""
    changed = True
    while changed:
        changed = False
        members = [x for x in A.elements if mask >> x & 1]
        for x in members:
            for y in members:
                new = 1 << A.arrow[x][y] | 1 << A.squig[x][y]
                if new & ~mask:
                    mask |= new
                    changed = True
    return mask


CLOSERS = pytest.mark.parametrize(
    "close, reference",
    [(_saturate, saturate_reference), (_close_implications, close_implications_reference)],
    ids=["modus-ponens", "implications"],
)


@CLOSERS
def test_adjoining_one_element_matches_the_reference(small_pool, close, reference):
    six = [goldens.six_element_involutive(), goldens.six_element_smarandache()]
    # on L3 x G2 x G2 some steps under both implications need a pair of two
    # elements that the step itself adjoined
    g2 = goedel_chain(2)
    l3b4 = direct_product(lukasiewicz_chain(3), direct_product(g2, g2))
    for A in small_pool + list(golden_up_sets()) + six + [l3b4]:
        # from the empty set, the walk visits every closed set of A
        for C in _closed_sets(A, close, 0):
            assert reference(A, C) == C, (A.element_names, C)
            for e in A.elements:
                if not C >> e & 1:
                    assert close(A, C, 1 << e) == reference(A, C | 1 << e), (
                        A.element_names, C, e,
                    )


@CLOSERS
def test_closing_any_set_matches_the_reference(small_pool, close, reference):
    for A in small_pool:
        masks = range(1 << A.n)
        fixed = sorted(
            (m for m in masks if reference(A, m) == m),
            key=lambda m: (bin(m).count("1"), m),
        )
        closed_sets = _closed_sets(A, close, 0)
        assert closed_sets == fixed, A.element_names
        for C in closed_sets:  # the empty set among them
            for mask in masks:
                assert close(A, C, mask) == reference(A, C | mask), (
                    A.element_names, C, mask,
                )
