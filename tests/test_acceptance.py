"""Top-level acceptance gate.

Each test checks one headline capability end to end and prints a single
unbuffered pass/fail line, so the gate can be read off the test log even
when it is captured or truncated.
"""

import subprocess
import sys
import time
from fractions import Fraction

from conftest import CORPUS, report

from psbck.algebra import derived_law_suite
from psbck.classes import pseudo_product, restrict_vto, smarandache_search, svto
from psbck.deduction import enumerate_ds, enumerate_ds_v
from psbck.generate import _seed_pool
from psbck.morphisms import enumerate_hom, enumerate_vthom
from psbck.operators import (
    compose,
    enumerate_interior,
    enumerate_vto,
    is_vto,
)
from psbck.suite import run_suite
from psbck.valuations import certify, compose_with_vto

FOUR_INTO = [
    ("1", "a", "a", "a"),
    ("1", "a", "b", "a"),
    ("1", "a", "b", "c"),
    ("1", "a", "c", "c"),
    ("a", "a", "a", "a"),
    ("b", "a", "b", "a"),
    ("b", "a", "b", "c"),
    ("c", "a", "c", "c"),
]
FOUR_VTO = FOUR_INTO[:4]
PSI = [
    ("1", "1", "1", "1", "1", "1"),
    ("1", "a", "b", "c", "d", "e"),
    ("1", "b", "a", "d", "c", "e"),
]
SM_SVTO = [
    ("0", "0", "0", "1"),
    ("0", "c", "d", "1"),
    ("0", "d", "d", "1"),
]


def _names(maps):
    return [f.names() for f in maps]


def _gate(criterion, label, ok):
    report(criterion, ok, label)
    assert ok, label


def test_criterion_1_operator_enumeration(four_elt):
    start = time.monotonic()
    into = _names(enumerate_interior(four_elt))
    vto = _names(enumerate_vto(four_elt))
    elapsed = time.monotonic() - start
    ok = into == FOUR_INTO and vto == FOUR_VTO and elapsed < 1.0
    _gate(1, "interior and very true operators on the four-element algebra", ok)


def test_criterion_2_composition(four_elt):
    A = four_elt
    v1, v2, v4 = (
        next(f for f in enumerate_vto(A) if f.names() == n)
        for n in (FOUR_VTO[0], FOUR_VTO[1], FOUR_VTO[3])
    )
    ok = (
        compose(v1, v2).image == compose(v2, v1).image == v1.image
        and is_vto(compose(v1, v2)) is None
        and compose(v4, v2).image != compose(v2, v4).image
        and is_vto(compose(v4, v2)) is not None
        and is_vto(compose(v2, v4)) is None
    )
    _gate(2, "operator composition including the non-commuting pair", ok)


def test_criterion_3_deductive_systems(four_elt):
    A = four_elt

    def members(fam):
        return {frozenset(A.name(x) for x in d.members) for d in fam}

    v1, v2, v3, v4 = enumerate_vto(A)
    everything = {
        frozenset({"1"}),
        frozenset({"1", "b"}),
        frozenset({"1", "a", "b", "c"}),
    }
    trivial = {frozenset({"1"}), frozenset({"1", "a", "b", "c"})}
    ok = (
        members(enumerate_ds(A)) == everything
        and members(enumerate_ds_v(v1)) == trivial
        and members(enumerate_ds_v(v4)) == trivial
        and members(enumerate_ds_v(v2)) == everything
        and members(enumerate_ds_v(v3)) == everything
    )
    _gate(3, "deductive systems and their operator-stable families", ok)


def test_criterion_4_morphisms(six_elt):
    A = six_elt
    start = time.monotonic()
    vto = enumerate_vto(A)
    homs = sorted(_names(enumerate_hom(A, A)))
    small = {PSI[0], PSI[1]}
    families_ok = all(
        {f.names() for f in enumerate_vthom(A, v, A, v)} == small
        for v in vto[1:-1]
    ) and all(
        {f.names() for f in enumerate_vthom(A, v, A, v)} == set(PSI)
        for v in (vto[0], vto[-1])
    )
    elapsed = time.monotonic() - start
    ok = len(vto) == 10 and homs == sorted(PSI) and families_ok and elapsed < 10.0
    _gate(4, "endomorphisms and structure-preserving families", ok)


def test_criterion_5_valuation_composition(four_elt):
    A = four_elt
    phi = certify(A, (0, 3, 1, 2))
    v2 = next(f for f in enumerate_vto(A) if f.names() == FOUR_VTO[1])
    got = compose_with_vto(phi, v2).values
    ok = got == (Fraction(0), Fraction(3), Fraction(1), Fraction(3))
    _gate(5, "exact valuation composition", ok)


def test_criterion_6_substructures(six_sm):
    A = six_sm
    q = frozenset(A.index(n) for n in ("0", "c", "d", "1"))
    found = {frozenset(A.name(x) for x in s) for s, _, _ in smarandache_search(A)}
    sub = A.subalgebra(q)
    od, wit = pseudo_product(sub)
    name = sub.name
    rows = {
        name(x): tuple(name(od[x][y]) for y in sub.elements)
        for x in sub.elements
    }
    restrictions = []
    for v in enumerate_vto(A):
        restr, reason = restrict_vto(v, q)
        restrictions.append(reason is None and restr.names() in SM_SVTO)
    ok = (
        len(enumerate_vto(A)) == 5
        and frozenset({"0", "c", "d", "1"}) in found
        and _names(svto(A, q)) == SM_SVTO
        and all(restrictions)
        and wit is None
        and rows["c"] == ("0", "d", "d", "c")
        and rows["d"] == ("0", "d", "d", "d")
        and rows["1"] == ("0", "c", "d", "1")
    )
    _gate(6, "substructure operators and the induced product", ok)


def test_criterion_7_theorem_suites(corpus_docs, random_batch_suites):
    runs = [
        (A, run_suite(A))
        for doc in corpus_docs.values()
        for A in doc.algebras.values()
    ]
    runs.extend(random_batch_suites)
    bad = [
        (A.element_names, r.name)
        for A, results in runs
        for r in results
        if not r.ok
    ]
    _gate(7, f"invariant families on {len(runs)} instances", bad == [])


def test_criterion_8_derived_laws(corpus_docs):
    pool = [A for doc in corpus_docs.values() for A in doc.algebras.values()]
    pool.extend(_seed_pool())
    ok = all(derived_law_suite(A) is None for A in pool)
    _gate(8, "derived implication laws on every instance", ok)


def test_criterion_9_cli_determinism():
    commands = [
        ["enum", "vto", str(CORPUS / "ex_2_5.alg"), "--json"],
        ["props", str(CORPUS / "ex_6_8.alg"), "--json"],
        ["quotient", str(CORPUS / "ex_6_8.alg"), "--ds", "H"],
        ["suite", str(CORPUS / "ex_2_chain.alg")],
    ]
    ok = True
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "psbck.cli", *args],
                capture_output=True,
                timeout=120,
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout
    _gate(9, "byte-identical command line output across runs", ok)
