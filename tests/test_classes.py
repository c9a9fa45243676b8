import gc
import weakref
from itertools import product

import pytest

from conftest import golden_up_sets
from psbck import classes, goldens
from psbck.algebra import FiniteAlgebra, Witness, validate
from psbck.classes import (
    ClassificationReport,
    classify,
    enumerate_vto_flw,
    flw_arithmetic_suite,
    is_vto_flw,
    join,
    lattice_tables,
    meet,
    mtl_characterization,
    mv_characterization,
    pseudo_product,
    restrict_vto,
    smarandache_search,
    svto,
    vt4_equivalence_check,
    vt_pp_suite,
)
from psbck.deduction import enumerate_ds
from psbck.errors import NotFLw, NotSmarandache, PPRequired
from psbck.generate import (
    direct_product,
    goedel_chain,
    lukasiewicz_chain,
    nonlinear_heyting,
    random_batch,
)
from psbck.operators import UnaryMap, enumerate_interior, enumerate_vto, globalization
from psbck.suite import run_suite

SM_SVTO = [
    ("0", "0", "0", "1"),
    ("0", "c", "d", "1"),
    ("0", "d", "d", "1"),
]


def test_classification_four_element(four_elt):
    r = classify(four_elt)
    assert r.levels() == {
        "bounded": True,
        "lattice": True,
        "pp": True,
        "flw": True,
        "mtl": True,
        "divisible": False,
        "bl": False,
        "mv": False,
    }
    assert r.witness("divisible") is not None


def test_classification_six_element_not_a_lattice(six_elt):
    r = classify(six_elt)
    assert not r.lattice and r.pp and not r.flw
    assert r.witness("lattice") == "no bound for (a,b)"


def test_classification_smarandache_has_no_product(six_sm):
    r = classify(six_sm)
    assert r.lattice and not r.pp
    assert r.witness("pp") == "no pseudo-product at (a,a)"
    with pytest.raises(PPRequired):
        vt_pp_suite(enumerate_vto(six_sm)[0])
    with pytest.raises(NotFLw):
        enumerate_vto_flw(six_sm)


def test_classification_chains_and_heyting():
    assert classify(goedel_chain(4)).levels()["bl"] is True
    assert classify(goedel_chain(4)).levels()["mv"] is False
    assert classify(lukasiewicz_chain(4)).levels()["mv"] is True
    r = classify(nonlinear_heyting())
    assert r.flw and r.divisible and not r.mtl and not r.bl


def test_lattice_tables_on_chain(four_elt):
    lat, wit = lattice_tables(four_elt)
    assert wit is None
    b, c = four_elt.index("b"), four_elt.index("c")
    assert meet(four_elt, b, c) == c
    assert join(four_elt, b, c) == b


def test_product_table_on_the_chain_substructure(six_sm):
    # the linearly ordered substructure {0,c,d,1} carries the product
    #   c (.) c = d, c (.) d = d, c (.) 1 = c, d (.) x = d for x in {c,d}
    # (a published rendering swaps the two middle row labels, which would
    # break the unit law; the residuation oracle is authoritative)
    q = frozenset(six_sm.index(n) for n in ("0", "c", "d", "1"))
    sub = six_sm.subalgebra(q)
    od, wit = pseudo_product(sub)
    assert wit is None
    name = sub.name
    rows = {
        name(x): tuple(name(od[x][y]) for y in sub.elements)
        for x in sub.elements
    }
    assert rows["0"] == ("0", "0", "0", "0")
    assert rows["c"] == ("0", "d", "d", "c")
    assert rows["d"] == ("0", "d", "d", "d")
    assert rows["1"] == ("0", "c", "d", "1")


def test_smarandache_search_finds_the_chain(six_sm):
    found = smarandache_search(six_sm)
    subsets = [frozenset(six_sm.name(x) for x in q) for q, _, _ in found]
    assert frozenset({"0", "c", "d", "1"}) in subsets
    for _, sub, report in found:
        assert report.mtl


def test_smarandache_search_matches_subset_scan(pool):
    # reference: every subset of the carrier, filtered by the definition
    # and sorted by (size, bitset)
    bounded = {
        (A.one, A.zero, A.arrow, A.squig): A
        for A in pool
        if A.bounded and A.n <= 8
    }
    for A in bounded.values():
        brute = []
        for mask in range(1 << A.n):
            q = frozenset(x for x in A.elements if mask >> x & 1)
            if (
                {A.zero, A.one} <= q
                and 3 <= len(q) < A.n
                and all(
                    A.arrow[x][y] in q and A.squig[x][y] in q
                    for x, y in product(q, repeat=2)
                )
            ):
                sub = A.subalgebra(q)
                if classify(sub).mtl:
                    brute.append((q, sub, classify(sub)))
        brute.sort(key=lambda t: (len(t[0]), sum(1 << x for x in t[0])))
        found = smarandache_search(A)
        assert found == brute
        # every substructure keeps 0 as its 0
        for q, sub, _ in found:
            assert sub.zero == sorted(q).index(A.zero)


def test_svto_golden(six_sm):
    q = frozenset(six_sm.index(n) for n in ("0", "c", "d", "1"))
    maps = svto(six_sm, q)
    assert [f.names() for f in maps] == SM_SVTO


def test_restriction_identities(six_sm):
    # v1 restricts to the first substructure operator, v2/v4/v5 to the
    # identity, v3 to the third
    A = six_sm
    q = frozenset(A.index(n) for n in ("0", "c", "d", "1"))
    v1, v2, v3, v4, v5 = enumerate_vto(A)
    expected = {
        0: SM_SVTO[0],
        1: SM_SVTO[1],
        2: SM_SVTO[2],
        3: SM_SVTO[1],
        4: SM_SVTO[1],
    }
    for i, v in enumerate((v1, v2, v3, v4, v5)):
        restr, reason = restrict_vto(v, q)
        assert reason is None
        assert restr.names() == expected[i]


def test_restrict_rejects_bad_subsets(six_sm):
    with pytest.raises(NotSmarandache):
        svto(six_sm, {six_sm.index("0"), six_sm.one})
    with pytest.raises(NotSmarandache):
        svto(six_sm, set(six_sm.elements))


def test_vto_flw_requires_join_inequality():
    A = nonlinear_heyting()
    certified = enumerate_vto_flw(A)
    for v in certified:
        assert is_vto_flw(v) is None
    plain = enumerate_vto(A)
    assert {f.image for f in certified} <= {f.image for f in plain}


def test_characterizations_agree():
    for A in (goedel_chain(4), lukasiewicz_chain(4), nonlinear_heyting()):
        ops = enumerate_vto_flw(A)
        assert mtl_characterization(A, ops)
        assert mv_characterization(A, ops)


def test_the_mtl_characterization_reports_a_disagreement():
    # G2xG2 is prelinear, but globalization does not split 1 at the
    # incomparable pair, so the two sides differ
    A = direct_product(goedel_chain(2), goedel_chain(2))
    assert classify(A).mtl
    assert mtl_characterization(A, [globalization(A)]) is False


def test_pp_suite_and_equivalence(four_elt):
    for v in enumerate_vto(four_elt):
        assert vt_pp_suite(v) is None
    assert vt4_equivalence_check(four_elt, enumerate_interior(four_elt))
    assert vt4_equivalence_check(goedel_chain(4), enumerate_interior(goedel_chain(4)))


def test_a_map_planted_as_very_true_fails_pp_transfer(four_elt):
    # pp-transfer follows from VT4'' and monotonicity, so only a map that
    # is not very true fails it: plant the pass that is_vto would keep
    A = four_elt
    v = UnaryMap(A, tuple(A.index(s) for s in ("1", "1", "1", "a")))
    v.memo["vto"] = True
    assert vt_pp_suite(v) == Witness("pp-transfer", ("1", "a", "c"))


@pytest.mark.parametrize(
    "kernel, clause", [("_vt4_dprime", "pp-submult"), ("_vt4_prime", "vt4-prime")]
)
def test_a_planted_formulation_witness_is_returned_and_named_by_pp_arithmetic(
    four_elt, monkeypatch, kernel, clause
):
    # on a certified operator VT4' and VT4'' agree with VT4, and no map
    # planted as very true on four_elt fails them before pp-transfer, so
    # the formulation's kernel is planted to disagree on the last operator
    A = four_elt
    vto = enumerate_vto(A)
    planted, last, real = Witness(clause, ("a", "b")), vto[-1].image, getattr(classes, kernel)
    monkeypatch.setattr(classes, kernel, lambda *args: planted if args[-1] == last else real(*args))
    assert [vt_pp_suite(v) for v in vto] == [None] * (len(vto) - 1) + [planted]
    got = {r.name: (r.ok, r.detail) for r in run_suite(A)}["pp-arithmetic"]
    assert got == (False, str(vto[-1].names()))


def test_pp_submult_is_reported_before_vt4_prime(four_elt, monkeypatch):
    v = enumerate_vto(four_elt)[-1]
    for kernel, clause in (("_vt4_prime", "vt4-prime"), ("_vt4_dprime", "pp-submult")):
        monkeypatch.setattr(classes, kernel, lambda *args, w=Witness(clause, ()): w)
    assert vt_pp_suite(v) == Witness("pp-submult", ())


def test_flw_arithmetic():
    for A in (goedel_chain(5), lukasiewicz_chain(5), nonlinear_heyting()):
        assert flw_arithmetic_suite(A) is None


def _chain_substructure(six_sm):
    q = frozenset(six_sm.index(n) for n in ("0", "c", "d", "1"))
    return six_sm.subalgebra(q)


def _swap_rows_c_d(sub, table):
    # the published rendering named in test_product_table_on_the_chain_substructure
    c, d = sub.index("c"), sub.index("d")
    table[c], table[d] = table[d], table[c]


def _set_cell(x, y, v):
    def edit(sub, table):
        table[sub.index(x)][sub.index(y)] = sub.index(v)

    return edit


@pytest.mark.parametrize(
    "edit, witness",
    [
        (_swap_rows_c_d, "unit[c]"),
        (_set_cell("c", "d", "1"), "associativity[c,c,c]"),
        (_set_cell("c", "c", "1"), "residuation[c,c,c]"),
    ],
    ids=["unit", "associativity", "residuation"],
)
def test_planted_product_fault_fails_the_flw_statements(six_sm, monkeypatch, edit, witness):
    # classify decides FLw without these laws, so a wrong product table
    # still reaches the suite, and the suite's own statements must catch it
    sub = _chain_substructure(six_sm)
    od, _ = pseudo_product(sub)
    table = [list(r) for r in od]
    edit(sub, table)
    planted = tuple(map(tuple, table))
    real = classes.pseudo_product
    monkeypatch.setattr(
        classes, "pseudo_product", lambda A: (planted, None) if A is sub else real(A)
    )
    assert classify(sub).flw
    assert str(flw_arithmetic_suite(sub)) == witness


# -- classification and pseudo-product, derived once per instance ----------


def _fresh(A):
    return validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)


def _order_rows(A):
    """(down, up) order rows built from ``leq`` alone."""
    down = tuple(sum(1 << y for y in A.elements if A.leq(y, x)) for x in A.elements)
    up = tuple(sum(1 << y for y in A.elements if A.leq(x, y)) for x in A.elements)
    return down, up


def test_cached_derivations_match_fresh_ones(pool):
    for A in pool:
        first, again = _fresh(A), _fresh(A)
        report, product_first = classify(first), pseudo_product(first)
        assert classify(first) == report
        assert pseudo_product(first) == product_first
        rows = first.order_masks()
        assert first.order_masks() is rows
        assert rows == _order_rows(first) == _fresh(A).order_masks()
        # the product on an algebra classified earlier, and the
        # classification on one whose product was taken first
        classify(again)
        assert pseudo_product(again) == product_first
        other = _fresh(A)
        assert pseudo_product(other) == product_first
        assert classify(other) == report


def _double_negation_facts(A):
    """Regular and dense elements, goodness and the Glivenko property."""
    return A.regular_elements(), A.dense_elements(), A.is_good(), A.is_glivenko()


def _double_negation_scan(A):
    """The same four facts from neg_minus and neg_sim, each law scanned in
    full over the carrier."""
    ms = [A.neg_sim(A.neg_minus(x)) for x in A.elements]
    sm = [A.neg_minus(A.neg_sim(x)) for x in A.elements]
    good = ms == sm
    law = all(
        ms[tab[x][y]] == tab[x][ms[y]]
        for x, y in product(A.elements, repeat=2)
        for tab in (A.arrow, A.squig)
    )
    return (
        frozenset(x for x in A.elements if ms[x] == x and sm[x] == x),
        frozenset(x for x in A.elements if ms[x] == A.one and sm[x] == A.one),
        good,
        good and law,
    )


def test_double_negations_match_a_fresh_scan(pool):
    bounded = [A for A in pool if A.bounded]
    verdicts = set()
    for A in bounded:
        first = _fresh(A)
        want = _double_negation_scan(first)
        verdicts.add(want[2:])
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert _double_negation_facts(first) == want
        vectors = first.double_negations()
        assert first.double_negations() is vectors
        # the verdict first, on an algebra whose vectors are not yet kept
        other = _fresh(A)
        assert other.is_glivenko() == want[3]
        assert _double_negation_facts(other) == want
    # both verdicts occur (no pool algebra is good without being Glivenko)
    assert verdicts == {(True, True), (False, False)}


# each fills A.memo: the order rows alone, or with what is derived from
# them; is_glivenko (the double negations and the verdict) needs a bottom;
# enumerate_ds keeps the closed masks, and _is_normal their normal flags
FILLS = (
    FiniteAlgebra.order_masks, classify, pseudo_product, FiniteAlgebra.is_glivenko, enumerate_ds,
)


def _fills(pool):
    """(algebra, fill) for every fill that applies to the algebra."""
    return [
        (A, fill)
        for A, fill in product(pool, FILLS)
        if A.bounded or fill is not FiniteAlgebra.is_glivenko
    ]


def test_cache_is_invisible_to_equality_hash_and_repr(pool):
    for A, fill in _fills(pool):
        a, b = _fresh(A), _fresh(A)
        fill(a)
        assert a.memo and not b.memo
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)


def test_cached_algebra_is_freed_without_the_cycle_collector(pool):
    # the cache must hold no reference back to its algebra, or each
    # algebra would live until the cyclic collector runs
    gc.disable()
    try:
        for A, fill in _fills(pool):
            a = _fresh(A)
            fill(a)
            ref = weakref.ref(a)
            del a
            assert ref() is None, (A.element_names, fill.__name__)
    finally:
        gc.enable()


# -- meets, joins and the product against a least/greatest scan -------------


def _least(A, s):
    return next((m for m in s if all(A.leq(m, c) for c in s)), None)


def _greatest(A, s):
    return next((m for m in s if all(A.leq(c, m) for c in s)), None)


def _scan_meet(A, x, y):
    return _greatest(A, [z for z in A.elements if A.leq(z, x) and A.leq(z, y)])


def _scan_join(A, x, y):
    return _least(A, [z for z in A.elements if A.leq(x, z) and A.leq(y, z)])


def _scan_lattice_tables(A):
    rng = A.elements
    for x, y in product(rng, repeat=2):
        if _scan_meet(A, x, y) is None or _scan_join(A, x, y) is None:
            return None, (x, y)
    mt = tuple(tuple(_scan_meet(A, x, y) for y in rng) for x in rng)
    jt = tuple(tuple(_scan_join(A, x, y) for y in rng) for x in rng)
    return (mt, jt), None


def _scan_product(A):
    rng = A.elements
    table = [[None] * A.n for _ in rng]
    for x, y in product(rng, repeat=2):
        m1 = _least(A, [z for z in rng if A.leq(x, A.arrow[y][z])])
        m2 = _least(A, [z for z in rng if A.leq(y, A.squig[x][z])])
        if m1 is None or m1 != m2:
            return None, (x, y)
        table[x][y] = m1
    return tuple(map(tuple, table)), None


def test_bounds_and_product_match_a_least_greatest_scan(pool):
    large = [
        goedel_chain(8),
        lukasiewicz_chain(8),
        direct_product(goedel_chain(2), lukasiewicz_chain(4)),
        direct_product(goedel_chain(2), lukasiewicz_chain(5)),
    ]
    missing = no_lattice = no_product = 0
    for A in pool + list(golden_up_sets()) + large + random_batch(7, 40):
        for x, y in product(A.elements, repeat=2):
            assert meet(A, x, y) == _scan_meet(A, x, y), (A.element_names, x, y)
            assert join(A, x, y) == _scan_join(A, x, y), (A.element_names, x, y)
            missing += meet(A, x, y) is None
        assert lattice_tables(A) == _scan_lattice_tables(A), A.element_names
        assert pseudo_product(A) == _scan_product(A), A.element_names
        no_lattice += lattice_tables(A)[0] is None
        no_product += pseudo_product(A)[0] is None
    # some inputs do lack meets, so the witness pairs were compared too
    assert missing and no_lattice and no_product


# -- classify against a reference that still tests the FLw theorems ---------


def _reference_classify(A):
    """The class tower with the unit, associativity and residuation loops
    that ``classify`` leaves to theorems, on the product scanned from both
    residuation sets (``_scan_product`` compares the two)."""
    wit = []

    def name_pair(t):
        return ",".join(A.name(v) for v in t)

    bounded = A.zero is not None
    if not bounded:
        wit.append(("bounded", "no bottom element"))
    lat, lat_wit = _scan_lattice_tables(A)
    lattice = lat is not None
    if not lattice:
        wit.append(("lattice", f"no bound for ({name_pair(lat_wit)})"))
    od, pp_wit = _scan_product(A)
    pp = od is not None
    if not pp:
        wit.append(("pp", f"no pseudo-product at ({name_pair(pp_wit)})"))

    def first(level, message, points, fails):
        bad = next((t for t in points if fails(*t)), None)
        if bad is not None:
            wit.append((level, f"{message} at ({name_pair(bad)})"))
        return bad is None

    rng, ar, sq, one = A.elements, A.arrow, A.squig, A.one
    pairs, triples = list(product(rng, repeat=2)), list(product(rng, repeat=3))
    flw = bounded and lattice and pp
    if flw:
        unit = next((x for x in rng if od[x][one] != x or od[one][x] != x), None)
        if unit is not None:
            wit.append(("flw", f"unit law fails at {A.name(unit)}"))
        flw = (
            unit is None
            and first(
                "flw", "associativity fails", triples,
                lambda x, y, z: od[od[x][y]][z] != od[x][od[y][z]],
            )
            and first(
                "flw", "residuation fails", triples,
                lambda x, y, z: not (
                    A.leq(od[x][y], z) == A.leq(x, ar[y][z]) == A.leq(y, sq[x][z])
                ),
            )
        )
    elif bounded or lattice or pp:
        wit.append(("flw", "requires bounded + lattice + pseudo-product"))
    mt, jt = lat if flw else (None, None)
    mtl = flw and first(
        "mtl", "prelinearity fails", pairs,
        lambda x, y: jt[ar[x][y]][ar[y][x]] != one or jt[sq[x][y]][sq[y][x]] != one,
    )
    divisible = flw and first(
        "divisible", "divisibility fails", pairs,
        lambda x, y: od[ar[x][y]][x] != mt[x][y] or od[x][sq[x][y]] != mt[x][y],
    )
    mv = flw and first(
        "mv", "join identity fails", pairs,
        lambda x, y: not jt[x][y] == sq[ar[x][y]][y] == ar[sq[x][y]][y],
    )
    return ClassificationReport(
        bounded, lattice, pp, flw, mtl, divisible, mtl and divisible, mv, tuple(wit)
    )


def test_classify_matches_a_reference_that_tests_the_theorems(pool):
    large = [
        goedel_chain(8),
        lukasiewicz_chain(8),
        direct_product(goedel_chain(2), lukasiewicz_chain(4)),
        direct_product(goedel_chain(2), lukasiewicz_chain(5)),
    ]
    # a finite pP algebra has a least element (the product of all its
    # elements), so pP without a declared zero and without a lattice is the only
    # kind of input that tells "bounded or lattice or pp" from "bounded or
    # lattice" when the flw witness is written
    G = goldens.six_element_involutive()
    pp_only = validate(G.element_names, G.one, G.arrow, G.squig)
    report = classify(pp_only)
    assert (report.bounded, report.lattice, report.pp) == (False, False, True)
    assert ("flw", "requires bounded + lattice + pseudo-product") in report.witnesses
    algebras = pool + list(golden_up_sets()) + large + random_batch(7, 40) + [pp_only]
    levels = set()
    for A in algebras:
        report = classify(A)
        assert report == _reference_classify(A), A.element_names
        if report.flw:
            assert flw_arithmetic_suite(A) is None, A.element_names
        levels.add(tuple(report.levels().values()))
    assert len(levels) >= 5  # the inputs reach several different towers
