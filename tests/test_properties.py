"""Invariant families checked across the whole instance pool.

Every family in :mod:`psbck.suite` must hold on each bundled document and
on a seeded batch of randomly generated certified algebras.  A failure
anywhere means either a wrong table or a wrongly stated law.
"""

from itertools import product

import pytest

from conftest import golden_up_sets
from psbck import goldens, suite
from psbck.algebra import FiniteAlgebra, diagnose, restrict
from psbck.deduction import (
    QuotientAlgebra,
    _closed_sets,
    _implication_pairs,
    _mask,
    enumerate_congruences,
)
from psbck.generate import _seed_pool, direct_product, goedel_chain
from psbck.operators import (
    UnaryMap,
    Witness,
    _interior_witness,
    _vto_witness,
    compose,
    enumerate_interior,
    enumerate_vto,
    is_vto,
)
from psbck.suite import run_suite


def _violations(results):
    return [(r.name, r.detail) for r in results if not r.ok]


def test_suite_on_corpus(corpus_docs):
    for doc in corpus_docs.values():
        for A in doc.algebras.values():
            assert _violations(run_suite(A)) == []


def test_suite_on_seed_pool():
    for A in _seed_pool():
        assert _violations(run_suite(A)) == [], A.element_names


def test_suite_on_random_batch(random_batch_suites):
    for A, results in random_batch_suites:
        assert _violations(results) == [], A.element_names


def test_suite_on_unbounded_up_sets():
    ups = list(golden_up_sets())
    assert len(ups) == 10
    assert sorted(U.n for U in ups) == [2, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    for U in ups:
        assert U.zero is None
        assert _violations(run_suite(U)) == [], U.element_names


# -- structures certified by theorem ------------------------------------------
#
# Subalgebras and quotients are built without going back through validate:
# every pseudo-BCK axiom and VT1-VT4 is a universal sentence in ->, ~>, 1
# (and v), so a closed subset containing 1 inherits them, and the quotient by
# a normal deductive system is a pseudo-BCK algebra.  These oracles re-run the
# checkers the constructions skip.


def _theorem_pool(pool):
    return pool + list(golden_up_sets())


def _closed_subsets(A):
    """Every subset of A closed under both implications and containing 1."""
    for mask in _closed_sets(A, _implication_pairs(A), 1 << A.one):
        yield frozenset(x for x in A.elements if mask >> x & 1)


def _diagnose(A):
    return diagnose(A.element_names, A.one, A.arrow, A.squig, A.zero)


def test_every_closed_subset_is_a_certified_subalgebra(pool):
    for A in _theorem_pool(pool):
        assert _diagnose(A) == [], A.element_names
        for q in _closed_subsets(A):
            sub = A.subalgebra(q)
            assert _diagnose(sub) == [], (A.element_names, sorted(q))
            # the tables restrict the parent's rows, numbered as restrict numbers them
            keep = sorted(q)
            assert sub.arrow == tuple(restrict(A.arrow[x], q) for x in keep)
            assert sub.squig == tuple(restrict(A.squig[x], q) for x in keep)


def test_very_true_operators_restrict_to_stable_subalgebras(pool):
    for A in _theorem_pool(pool):
        vto = enumerate_vto(A)
        for q in _closed_subsets(A):
            sub = A.subalgebra(q)
            for v in vto:
                if v.preserves(_mask(q)):
                    restr = UnaryMap(sub, restrict(v.image, q))
                    assert is_vto(restr) is None, (v.names(), sorted(q))


def test_every_quotient_is_certified(pool):
    for A in _theorem_pool(pool):
        for quot in enumerate_congruences(A):
            assert _diagnose(quot.algebra) == [], (A.element_names, quot.by.names())


# -- the commutation families decide each unordered pair once ----------------
#
# A checker that reports a planted witness for one composite must change the
# verdict and the "f/g" detail exactly as a scan over every ordered pair would.
# The families test each composite's image vector with the law code of
# is_interior/is_vto, so the checker is planted on that code.


def _ordered_scan(maps, holds):
    for f, g in product(maps, repeat=2):
        if not holds(f, g):
            return False, f"{f.names()}/{g.names()}"
    return True, ""


def _planted(real, A, image):
    def checker(B, im):
        if B is A and im == image:
            return Witness("planted", ())
        return real(B, im)

    return checker


def _three_way(interior):
    def holds(f, g):
        A = f.parent
        fg, gf = compose(f, g), compose(g, f)
        a = fg.image == gf.image
        b = interior(A, fg.image) is None and interior(A, gf.image) is None
        c = compose(fg, fg).image == fg.image and compose(gf, gf).image == gf.image
        return a == b == c

    return holds


def _vto_commutation(vto):
    def holds(f, g):
        A = f.parent
        fg, gf = compose(f, g), compose(g, f)
        both = vto(A, fg.image) is None and vto(A, gf.image) is None
        return both == (fg.image == gf.image)

    return holds


@pytest.mark.parametrize(
    "family, name, enumerate_maps, real, holds",
    [
        ("_interior_witness", "interior-commutation", enumerate_interior, _interior_witness,
         _three_way),
        ("_vto_witness", "vto-composition-commutation", enumerate_vto, _vto_witness,
         _vto_commutation),
    ],
    ids=["interior", "vto"],
)
def test_planted_fault_in_a_pair_family_matches_an_ordered_scan(
    monkeypatch, family, name, enumerate_maps, real, holds
):
    failed = set()
    for A in (
        goldens.four_element_bounded(),
        goldens.six_element_involutive(),
        goedel_chain(5),
        direct_product(goedel_chain(2), goedel_chain(2)),
    ):
        maps = enumerate_maps(A)
        last = len(maps) - 1
        for i, j in ((0, 0), (1, last), (last, 1), (last, last - 1)):
            checker = _planted(real, A, compose(maps[i], maps[j]).image)
            monkeypatch.setattr(suite, family, checker)
            got = {r.name: (r.ok, r.detail) for r in run_suite(A)}[name]
            assert got == _ordered_scan(maps, holds(checker)), (A.element_names, i, j)
            if not got[0]:
                failed.add(got[1])
    assert len(failed) >= 4  # the planted witnesses do change the verdicts


def test_planted_fault_in_smarandache_antitone_fails_the_family(six_sm, monkeypatch):
    # the identity on a substructure Q2 restricts to the identity on each
    # smaller Q1, so dropping it on the three-element ones must fail the
    # first nested pair: {0,1,a} inside {0,1,a,b,c}
    real = suite.enumerate_vto_flw

    def drops_identity(B):
        return [v for v in real(B) if B.n > 3 or v.image != tuple(B.elements)]

    assert {r.name: r.ok for r in run_suite(six_sm)}["smarandache-antitone"]
    monkeypatch.setattr(suite, "enumerate_vto_flw", drops_identity)
    got = {r.name: (r.ok, r.detail) for r in run_suite(six_sm)}["smarandache-antitone"]
    assert got == (False, "[0, 1, 5] in [0, 1, 2, 3, 5]")


def test_planted_transposed_quotient_table_fails_the_quotients_family(four_elt, monkeypatch):
    # on a quotient with two or more classes, x->y = 1 != y->x for some
    # x < y, so the projection onto the transposed table breaks hom-arrow
    real = suite.congruence_from

    def transposed(A, H):
        quot = real(A, H)
        q = quot.algebra
        planted = FiniteAlgebra(q.element_names, q.one, tuple(zip(*q.arrow)), q.squig, q.zero)
        return QuotientAlgebra(quot.parent, quot.by, planted, quot.class_of)

    assert {r.name: r.ok for r in run_suite(four_elt)}["quotients"]
    monkeypatch.setattr(suite, "congruence_from", transposed)
    got = {r.name: (r.ok, r.detail) for r in run_suite(four_elt)}["quotients"]
    assert got == (False, "projection not a homomorphism")
