"""Call counts of one ``run_suite`` pass over the pool, independent of the
machine.

Each result is derived once and shared by every check that reads it:
the deductive systems of an algebra are searched once (their masks stay in
``A.memo``), a quotient's tables are built once per system object (they
stay in ``H.memo``), and the operator-pair families decide each distinct
composite once per check call.  The pass runs on fresh copies of the 118
pool algebras, as the benchmark does, so no memo is filled beforehand.
"""

import itertools
from collections import Counter

import pytest

from psbck import deduction, suite
from psbck.algebra import validate
from psbck.generate import _seed_pool, random_batch


@pytest.fixture(scope="module")
def one_pass():
    pool = [
        validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)
        for A in list(_seed_pool()) + random_batch(seed=2026, count=100, max_size=6)
    ]
    keep = []  # every counted object stays alive, so no id is reused
    searches, builds, verdicts = Counter(), Counter(), Counter()
    systems, check_call, calls = [], [None], itertools.count()
    real_closed_sets, real_congruence_from = deduction._closed_sets, deduction.congruence_from
    real_algebra = deduction.FiniteAlgebra

    def closed_sets(A, pairs, start):
        if pairs is deduction._mp_pairs(A):
            keep.append(A)
            searches[id(A)] += 1
        return real_closed_sets(A, pairs, start)

    def congruence_from(A, H):
        keep.append(H)
        systems.append(H)
        try:
            return real_congruence_from(A, H)
        finally:
            systems.pop()

    def quotient_algebra(*args, **kwargs):
        # the one FiniteAlgebra that deduction builds is a quotient's
        builds[id(systems[-1])] += 1
        return real_algebra(*args, **kwargs)

    def tagged(check):
        def run(facts):
            check_call[0] = next(calls)
            return check(facts)
        return run

    def counted(law, real):
        def run(A, image):
            verdicts[law, check_call[0], image] += 1
            return real(A, image)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deduction, "_closed_sets", closed_sets)
        mp.setattr(deduction, "congruence_from", congruence_from)
        mp.setattr(suite, "congruence_from", congruence_from)
        mp.setattr(deduction, "FiniteAlgebra", quotient_algebra)
        mp.setattr(suite, "FAMILIES", tuple((n, g, tagged(c)) for n, g, c in suite.FAMILIES))
        mp.setattr(suite, "_interior_witness", counted("interior", suite._interior_witness))
        mp.setattr(suite, "_vto_witness", counted("vto", suite._vto_witness))
        for A in pool:
            suite.run_suite(A)
    return pool, searches, builds, verdicts


def test_each_algebra_searches_its_deductive_systems_once(one_pass):
    pool, searches, _, _ = one_pass
    assert set(searches) == {id(A) for A in pool}
    assert set(searches.values()) == {1}
    assert len(pool) == 118


def test_each_system_object_builds_its_quotient_once(one_pass):
    _, _, builds, _ = one_pass
    assert set(builds.values()) == {1}
    # 390 systems of the pool algebras (the quotients family), and 727
    # dense systems, one built afresh per lift_to_den_quotient call
    assert sum(builds.values()) == 390 + 727


@pytest.mark.parametrize("law, distinct", [("interior", 3939), ("vto", 1054)])
def test_each_composite_is_decided_once_per_check_call(one_pass, law, distinct):
    _, _, _, verdicts = one_pass
    counts = [n for (kind, _, _), n in verdicts.items() if kind == law]
    assert set(counts) == {1}
    assert len(counts) == distinct
