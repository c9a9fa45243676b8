"""The closed-set walk ``deduction._closed_sets`` and its step ``_adjoin``.

``_adjoin(A, pairs, closed, new)`` is the least closed superset of
``closed | new``, given that ``closed`` is already closed.  It is checked
for both pair tables against the from-scratch fixpoint loops it replaced:
every member against every element, pass after pass, until a pass adds
nothing.  The Close-by-One walk is checked against the breadth-first walk
it replaced, which keeps a seen set and closes every element outside every
closed set, here driven by those fixpoint loops.

The modus ponens table holds -> alone.  On a set that contains 1 its
reference is modus ponens for both implications, the paper's definition,
and the two agree there by the theorem beside ``deduction._mp_pairs``,
which is tested on its own.  On a set without 1 they can differ, and the
reference is the fixpoint over -> alone, which is what the table encodes.
"""

import pytest

from conftest import golden_up_sets
from psbck import classes, deduction, goldens
from psbck.deduction import _adjoin, _closed_sets, _implication_pairs, _mp_pairs
from psbck.generate import (
    _seed_pool,
    direct_product,
    goedel_chain,
    lukasiewicz_chain,
    random_batch,
)
from psbck.suite import run_suite


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


def arrow_reference(A, mask):
    """Close a bitset under modus ponens for -> alone."""
    els, ar = A.elements, A.arrow
    changed = True
    while changed:
        changed = False
        for x in els:
            if not mask >> x & 1:
                continue
            for y in els:
                if not mask >> y & 1 and mask >> ar[x][y] & 1:
                    mask |= 1 << y
                    changed = True
    return mask


def modus_ponens_reference(A, mask):
    """Both implications from a set that contains 1, -> alone from one
    without."""
    if mask >> A.one & 1:
        return saturate_reference(A, mask)
    return arrow_reference(A, mask)


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


def closed_sets_reference(A, reference, start):
    """Every bitset closed under ``reference`` containing ``start``, ordered
    by (cardinality, bitset value): a breadth-first walk that adjoins each
    element outside each closed set and keeps the sets it has not seen."""
    bottom = reference(A, start)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for mask in frontier:
            for e in A.elements:
                if mask >> e & 1:
                    continue
                grown = reference(A, mask | 1 << e)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(seen, key=lambda m: (bin(m).count("1"), m))


TABLES = pytest.mark.parametrize(
    "table, reference",
    [(_mp_pairs, modus_ponens_reference), (_implication_pairs, close_implications_reference)],
    ids=["modus-ponens", "implications"],
)


def _l3b4():
    # on L3 x G2 x G2 some steps under both implications need a pair of two
    # elements that the step itself adjoined
    g2 = goedel_chain(2)
    return direct_product(lukasiewicz_chain(3), direct_product(g2, g2))


def _six():
    return [goldens.six_element_involutive(), goldens.six_element_smarandache()]


def test_arrow_alone_closes_a_set_that_contains_one_under_both(small_pool):
    """The theorem beside ``_mp_pairs``: from every set that contains 1,
    closing under -> alone and under both implications agree."""
    for A in small_pool + list(golden_up_sets()) + _six() + [_l3b4()]:
        one = 1 << A.one
        for rest in range(1 << A.n):
            if not rest & one:
                mask = rest | one
                assert arrow_reference(A, mask) == saturate_reference(A, mask), (
                    A.element_names, mask,
                )


@TABLES
def test_adjoining_one_element_matches_the_reference(small_pool, table, reference):
    for A in small_pool + list(golden_up_sets()) + _six() + [_l3b4()]:
        pairs = table(A)
        # from the empty set, the walk visits every closed set of A
        for C in _closed_sets(A, pairs, 0):
            assert reference(A, C) == C, (A.element_names, C)
            for e in A.elements:
                if not C >> e & 1:
                    assert _adjoin(A, pairs, C, 1 << e) == reference(A, C | 1 << e), (
                        A.element_names, C, e,
                    )


@TABLES
def test_closing_any_set_matches_the_reference(small_pool, table, reference):
    for A in small_pool:
        pairs = table(A)
        masks = range(1 << A.n)
        fixed = sorted(
            (m for m in masks if reference(A, m) == m),
            key=lambda m: (bin(m).count("1"), m),
        )
        closed_sets = _closed_sets(A, pairs, 0)
        assert closed_sets == fixed, A.element_names
        for C in closed_sets:  # the empty set among them
            for mask in masks:
                assert _adjoin(A, pairs, C, mask) == reference(A, C | mask), (
                    A.element_names, C, mask,
                )


@TABLES
def test_the_walk_matches_the_reference_walk(small_pool, table, reference):
    g2 = goedel_chain(2)
    g2x4 = direct_product(direct_product(g2, g2), direct_product(g2, g2))
    larger = [
        goedel_chain(8),
        lukasiewicz_chain(8),
        direct_product(g2, lukasiewicz_chain(4)),
        direct_product(g2, lukasiewicz_chain(5)),
        g2x4,
    ]
    assert g2x4.n == 16
    for A in small_pool + list(golden_up_sets()) + _six() + [_l3b4()] + larger:
        starts = {0, 1 << A.one}
        if A.zero is not None:
            starts.add(1 << A.one | 1 << A.zero)
        for start in starts:
            assert _closed_sets(A, table(A), start) == closed_sets_reference(
                A, reference, start
            ), (A.element_names, start)


def test_suite_searches_close_each_set_by_one_walk():
    """The closure calls of the walks that ``run_suite`` makes, a figure
    independent of the machine.  The breadth-first walk made 2,712 calls
    for these 324 searches; a walk that closes sets it has already reached
    makes more."""
    g2 = goedel_chain(2)
    algebras = (
        list(_seed_pool())
        + random_batch(seed=2026, count=100, max_size=6)
        + random_batch(seed=7, count=40, max_size=6)
        + [
            goedel_chain(8),
            lukasiewicz_chain(8),
            direct_product(g2, lukasiewicz_chain(4)),
            direct_product(g2, lukasiewicz_chain(5)),
        ]
    )
    searches, calls, walking = [0], [0], [False]

    def adjoin(*args):
        calls[0] += walking[0]
        return _adjoin(*args)

    def closed_sets(A, pairs, start):
        searches[0] += 1
        walking[0] = True
        try:
            return _closed_sets(A, pairs, start)
        finally:
            walking[0] = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deduction, "_adjoin", adjoin)
        mp.setattr(deduction, "_closed_sets", closed_sets)
        mp.setattr(classes, "_closed_sets", closed_sets)
        for A in algebras:
            run_suite(A)
    assert len(algebras) == 162
    assert searches[0] == 324
    assert calls[0] == 1871
