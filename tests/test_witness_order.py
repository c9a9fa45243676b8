"""Witness order: every law checker names the first failing law and, for
it, the first failing tuple in ``product(A.elements, repeat=k)`` order.

The checkers written as law rows for ``algebra.first_witness`` are
compared here with the hand-written loops they replaced, kept as
references, on every map of the small pool algebras, fixed-seed hedge
pairs and fixed-seed valuation vectors.  ``diagnose``, rewritten as loops
over hoisted rows, is compared the same way with the loops it replaced, on
mutated tables; ``lattice_tables`` and the pseudo-product table are checked
against a least/greatest scan in ``test_classes``.
"""

import random
from fractions import Fraction
from itertools import product

from psbck import goldens
from psbck.algebra import (
    FiniteAlgebra,
    Witness,
    _intransitive_triple,
    derived_law_suite,
    diagnose,
    first_failure,
)
from psbck.classes import _vto_flw_witness, classify, lattice_tables
from psbck.generate import direct_product, goedel_chain
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


# -- kernels rewritten as loops over hoisted rows -------------------------------


def diagnose_loops(names, one, arrow, squig, zero):
    """The axiom loops of ``diagnose`` as they were before its rows were
    hoisted, on tables that pass its structural checks."""
    rng = range(len(names))

    def leq(x, y):
        return arrow[x][y] == one

    diags = []

    def record(axiom, witness, detail=""):
        diags.append(Witness(axiom, tuple(names[w] for w in witness), detail))

    for x in rng:
        if arrow[x][x] != one or squig[x][x] != one:
            record("psBCK3", (x,), "x -> x and x ~> x must be 1")
            break
    for x in rng:
        if arrow[x][one] != one or squig[x][one] != one:
            record("psBCK4", (x,), "x <= 1 must hold in both tables")
            break
    for x, y in product(rng, repeat=2):
        if (arrow[x][y] == one) != (squig[x][y] == one):
            record("psBCK6", (x, y), "arrow and squig must agree on the order")
            break
    for x, y in product(rng, repeat=2):
        if x != y and arrow[x][y] == one and arrow[y][x] == one:
            record("psBCK5", (x, y), "antisymmetry fails")
            break
    ok1 = True
    for x, y, z in product(rng, repeat=3):
        if not leq(arrow[x][y], squig[arrow[y][z]][arrow[x][z]]):
            record("psBCK1", (x, y, z), "arrow half fails")
            ok1 = False
            break
        if not leq(squig[x][y], arrow[squig[y][z]][squig[x][z]]):
            record("psBCK1", (x, y, z), "squig half fails")
            ok1 = False
            break
    for x, y in product(rng, repeat=2):
        if not leq(x, squig[arrow[x][y]][y]) or not leq(x, arrow[squig[x][y]][y]):
            record("psBCK2", (x, y))
            break
    if zero is not None:
        for x in rng:
            if arrow[zero][x] != one or squig[zero][x] != one:
                record("bound", (x,), "0 <= x fails")
                break
    if ok1 and not diags:
        for x, y, z in product(rng, repeat=3):
            if leq(x, y) and leq(y, z) and not leq(x, z):
                record("order-transitivity", (x, y, z))
                break
    return diags


def _mutants(A, cells):
    """(arrow, squig) of A with each (table, x, y, value) of ``cells`` set."""
    tables = [[list(row) for row in A.arrow], [list(row) for row in A.squig]]
    for t, x, y, v in cells:
        tables[t][x][y] = v
    return tuple(tuple(map(tuple, tab)) for tab in tables)


def _b16():
    g2 = goedel_chain(2)
    return direct_product(direct_product(direct_product(g2, g2), g2), g2)


def test_diagnose_names_the_witnesses_of_its_old_loops(pool):
    rng = random.Random(2026)
    small = {(A.one, A.zero, A.arrow, A.squig): A for A in pool if A.n <= 5}
    cases = []
    for A in small.values():
        for t, x, y in product((0, 1), A.elements, A.elements):
            old = (A.arrow, A.squig)[t][x][y]
            cases += [(A, [(t, x, y, v)]) for v in A.elements if v != old]
    for A in (goedel_chain(8), _b16()):
        for _ in range(150):
            k = rng.randint(2, 4)
            cases.append((A, [
                (rng.randint(0, 1), rng.randrange(A.n), rng.randrange(A.n), rng.randrange(A.n))
                for _ in range(k)
            ]))
    seen, failing = set(), 0
    for A, cells in cases:
        arrow, squig = _mutants(A, cells)
        args = (A.element_names, A.one, arrow, squig, A.zero)
        got = diagnose(*args)
        assert got == diagnose_loops(*args), (A.element_names, cells)
        seen.update((w.axiom, w.detail) for w in got)
        failing += bool(got)
    # every axiom and both halves of psBCK1 were reached, on thousands of tables
    assert {axiom for axiom, _ in seen} >= {
        "psBCK1", "psBCK2", "psBCK3", "psBCK4", "psBCK5", "psBCK6", "bound"
    }
    assert {("psBCK1", "arrow half fails"), ("psBCK1", "squig half fails")} <= seen
    assert failing > 3000


def test_intransitive_triple_is_the_least_of_the_triple_loop():
    # no table that passes psBCK1 reaches the transitivity check, so the
    # bitset scan is compared with the triple loop on random relations
    rng = random.Random(7)
    found = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        up = [rng.getrandbits(n) for _ in range(n)]
        want = next(
            (
                (x, y, z) for x, y, z in product(range(n), repeat=3)
                if up[x] >> y & 1 and up[y] >> z & 1 and not up[x] >> z & 1
            ),
            None,
        )
        assert _intransitive_triple(up) == want, up
        found += want is not None
    assert 0 < found < 3000
