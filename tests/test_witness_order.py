"""Witness order: every law checker names the first failing law and, for
it, the first failing tuple in ``product(A.elements, repeat=k)`` order.

The checkers written as law rows for ``algebra.first_witness`` are
compared here with the hand-written loops they replaced, kept as
references, on every map of the small pool algebras, fixed-seed hedge
pairs and fixed-seed valuation vectors.
"""

import random
from fractions import Fraction
from itertools import product

from psbck import goldens
from psbck.algebra import FiniteAlgebra, Witness, derived_law_suite, first_failure
from psbck.classes import _vto_flw_witness, classify, lattice_tables
from psbck.operators import UnaryMap, enumerate_vto, is_closure, is_vtst, sigma_hedges
from psbck.suite import _verdict
from psbck.valuations import PseudoValuation, derived_facts


def _name(A, axiom, tup):
    return Witness(axiom, tuple(A.name(t) for t in tup))


def closure_loops(f):
    A, im = f.parent, f.image
    for x in A.elements:
        if not A.leq(x, im[x]):
            return _name(A, "CO1", (x,))
    for x, y in product(A.elements, repeat=2):
        if A.leq(x, y) and not A.leq(im[x], im[y]):
            return _name(A, "CO2", (x, y))
    for x in A.elements:
        if im[im[x]] != im[x]:
            return _name(A, "CO3", (x,))
    return None


def vtst_loops(v, s1, s2):
    A = v.parent
    if s1.image[A.zero] != A.zero or s2.image[A.zero] != A.zero:
        return _name(A, "ST1", (A.zero,))
    for x in A.elements:
        if not A.leq(x, s1.image[x]) or not A.leq(x, s2.image[x]):
            return _name(A, "ST2", (x,))
    for x, y in product(A.elements, repeat=2):
        if not A.leq(v.image[A.arrow[x][y]], A.arrow[s1.image[x]][s1.image[y]]):
            return _name(A, "ST3", (x, y))
        if not A.leq(v.image[A.squig[x][y]], A.squig[s2.image[x]][s2.image[y]]):
            return _name(A, "ST3", (x, y))
    return None


def vto_flw_loops(jt, v):
    A, im = v.parent, v.image
    for x, y in product(A.elements, repeat=2):
        if not A.leq(im[jt[x][y]], jt[im[x]][im[y]]):
            return _name(A, "VT5", (x, y))
    for x, y in product(A.elements, repeat=2):
        if im[jt[x][y]] != jt[im[x]][im[y]]:
            return _name(A, "VT5-equality", (x, y))
    return None


def derived_facts_loops(phi):
    A = phi.parent
    for x, y in product(A.elements, repeat=2):
        if A.leq(x, y) and phi.values[x] < phi.values[y]:
            return _name(A, "pv4", (x, y))
    for x in A.elements:
        if phi.values[x] < 0:
            return _name(A, "pv5", (x,))
    return None


def test_first_failure_scans_in_product_order(four_elt):
    A = four_elt
    assert first_failure(A, 2, lambda x, y: (x, y) < (1, 2)) == (1, 2)
    assert first_failure(A, 3, lambda x, y, z: True) is None


def test_law_rows_name_the_witness_of_the_loops(small_pool):
    rng = random.Random(2026)
    seen = set()

    def agree(got, want):
        assert got == want
        if want is not None:
            seen.add(want.axiom)

    for A in small_pool:
        maps = [UnaryMap(A, im) for im in product(A.elements, repeat=A.n)]
        for f in maps:
            agree(is_closure(f), closure_loops(f))
        if classify(A).flw:
            (_, jt), _ = lattice_tables(A)
            for f in maps:
                agree(_vto_flw_witness(jt, f), vto_flw_loops(jt, f))
        if A.bounded:
            # maps that fix 0 and lie above the identity pass ST1 and ST2,
            # so that pairs of them reach ST3
            above = [
                f for f in maps
                if f.image[A.zero] == A.zero and all(A.leq(x, f.image[x]) for x in A.elements)
            ]
            for v in enumerate_vto(A):
                pairs = [sigma_hedges(v)]
                pairs += [(rng.choice(maps), rng.choice(maps)) for _ in range(6)]
                pairs += [(rng.choice(above), rng.choice(above)) for _ in range(6)]
                for s1, s2 in pairs:
                    agree(is_vtst(v, s1, s2), vtst_loops(v, s1, s2))
        for _ in range(30):
            values = tuple(Fraction(rng.randint(-2, 3)) for _ in A.elements)
            phi = PseudoValuation(A, values)
            agree(derived_facts(phi), derived_facts_loops(phi))
    # the comparison reached a failure of every law, not only passes
    assert seen >= {"CO1", "CO2", "CO3", "ST1", "ST2", "ST3", "VT5", "VT5-equality",
                    "pv4", "pv5"}


def test_derived_laws_name_the_first_failing_law_and_its_least_tuple():
    # the four-element golden with a -> b corrupted from 1 to b: exchange
    # still holds, and left-antitone fails first at (a, c, b)
    A = goldens.four_element_bounded()
    a, b = A.index("a"), A.index("b")
    arrow = [list(row) for row in A.arrow]
    arrow[a][b] = b
    forged = FiniteAlgebra(
        A.element_names, A.one, tuple(map(tuple, arrow)), A.squig, A.zero
    )
    w = derived_law_suite(forged)
    assert w == Witness("left-antitone", ("a", "c", "b"))
    assert _verdict(w) == (False, "left-antitone[a,c,b]")
    assert _verdict(derived_law_suite(A)) == (True, "")
