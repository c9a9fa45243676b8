"""Call counts of one ``run_suite`` pass over the pool, independent of the
machine.

Each result is derived once and shared by every check that reads it:
the deductive systems of an algebra are searched once (their masks stay in
``A.memo``), a quotient's tables are built once per system object (they
stay in ``H.memo``), and the operator-pair families decide each distinct
composite once per check call, and ``interior-absorption`` forms none.  A
checker keeps its own pass, so its kernel runs once per object however
many callers ask: ``_is_ds`` once per (algebra object, member bitset),
``is_hom`` once per ``Homomorphism`` object, and ``is_vto`` once per
operator object it accepts; ``transport`` asks ``_is_ds`` by bitset only.
The pass runs on fresh copies of the 118 pool algebras, as the benchmark
does, so no memo is filled beforehand.
"""

import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from psbck import classes, deduction, morphisms, operators, suite
from psbck.algebra import FiniteAlgebra, validate
from psbck.generate import _seed_pool, random_batch


@pytest.fixture(scope="module")
def one_pass():
    pool = [
        validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)
        for A in list(_seed_pool()) + random_batch(seed=2026, count=100, max_size=6)
    ]
    keep = []  # every counted object stays alive, so no id is reused
    searches, builds, verdicts = Counter(), Counter(), Counter()
    ds_closures, hom_kernels, vto_kernels = Counter(), Counter(), Counter()
    composites, transport_asks = Counter(), Counter()
    systems, check_call, calls, asking = [], [None, None], itertools.count(), []
    transporting = []
    real_closed_sets, real_congruence_from = deduction._closed_sets, deduction.congruence_from
    real_algebra = deduction.FiniteAlgebra
    real_is_ds, real_adjoin = deduction._is_ds, deduction._adjoin
    real_is_hom, real_hom_witness = morphisms.is_hom, morphisms._hom_witness
    real_is_vto, real_vto_witness = operators.is_vto, operators._vto_witness
    real_composite, real_transport = suite._composite, morphisms.transport

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

    def asked(real):
        # the kernel runs below are counted against the question asked
        def ask(obj, *args):
            keep.append(obj)
            asking.append((id(obj), *args))
            try:
                return real(obj, *args)
            finally:
                asking.pop()
        return ask

    ds_question = asked(real_is_ds)

    def ds_closure(A, pairs, closed, new):
        if asking:
            ds_closures[asking[-1]] += 1
        return real_adjoin(A, pairs, closed, new)

    def hom_witness(A, B, m):
        hom_kernels[asking[-1]] += 1
        return real_hom_witness(A, B, m)

    def vto_witness(A, im):
        w = real_vto_witness(A, im)
        vto_kernels[asking[-1], w is None] += 1
        return w

    def tagged(name, check):
        def run(facts):
            check_call[:] = next(calls), name
            return check(facts)
        return run

    def composite(fi, gi):
        composites[check_call[1]] += 1
        return real_composite(fi, gi)

    def transport(g):
        transporting.append(g)
        try:
            return real_transport(g)
        finally:
            transporting.pop()

    def transport_is_ds(A, mask):
        if transporting:
            transport_asks[type(mask)] += 1
        return ds_question(A, mask)

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
        mp.setattr(suite, "FAMILIES", tuple((n, g, tagged(n, c)) for n, g, c in suite.FAMILIES))
        mp.setattr(suite, "_composite", composite)
        mp.setattr(suite, "transport", transport)
        mp.setattr(suite, "_interior_witness", counted("interior", suite._interior_witness))
        mp.setattr(suite, "_vto_witness", counted("vto", suite._vto_witness))
        mp.setattr(deduction, "_is_ds", ds_question)
        mp.setattr(morphisms, "_is_ds", transport_is_ds)
        mp.setattr(deduction, "_adjoin", ds_closure)
        for module in (morphisms, suite):
            mp.setattr(module, "is_hom", asked(real_is_hom))
        mp.setattr(morphisms, "_hom_witness", hom_witness)
        for module in (operators, deduction, classes):
            mp.setattr(module, "is_vto", asked(real_is_vto))
        mp.setattr(operators, "_vto_witness", vto_witness)
        for A in pool:
            suite.run_suite(A)
    return SimpleNamespace(
        pool=pool, searches=searches, builds=builds, verdicts=verdicts,
        ds_closures=ds_closures, hom_kernels=hom_kernels, vto_kernels=vto_kernels,
        composites=composites, transport_asks=transport_asks,
    )


def test_each_algebra_searches_its_deductive_systems_once(one_pass):
    pool, searches = one_pass.pool, one_pass.searches
    assert set(searches) == {id(A) for A in pool}
    assert set(searches.values()) == {1}
    assert len(pool) == 118


def test_each_system_object_builds_its_quotient_once(one_pass):
    builds = one_pass.builds
    assert set(builds.values()) == {1}
    # 390 systems of the pool algebras (the quotients family), and 114
    # dense systems, one per Glivenko algebra: dense-quotient-lift lifts
    # all its operators in one lift_to_den_quotient call
    assert sum(builds.values()) == 390 + 114


@pytest.mark.parametrize("law, distinct", [("interior", 3939), ("vto", 1054)])
def test_each_composite_is_decided_once_per_check_call(one_pass, law, distinct):
    counts = [n for (kind, _, _), n in one_pass.verdicts.items() if kind == law]
    assert set(counts) == {1}
    assert len(counts) == distinct


def test_each_deductive_system_question_is_closed_once_per_algebra(one_pass):
    assert set(one_pass.ds_closures.values()) == {1}
    assert len(one_pass.ds_closures) == 420


def test_transport_asks_the_deductive_system_checker_by_bitset(one_pass):
    asks = one_pass.transport_asks
    assert set(asks) == {int}
    assert asks[int] == 18889


def test_interior_absorption_forms_no_composite(one_pass):
    composites = one_pass.composites
    assert composites["interior-absorption"] == 0
    assert composites["interior-commutation"] > 0  # the count sees composites


def test_each_homomorphism_object_runs_the_hom_kernel_once(one_pass):
    assert set(one_pass.hom_kernels.values()) == {1}


def test_each_operator_object_runs_the_vto_kernel_until_it_passes(one_pass):
    # a failure is not kept, so the runs on a rejected map may repeat
    kernels = one_pass.vto_kernels
    assert set(n for (_, passed), n in kernels.items() if passed) == {1}
    composites = sum(n for (kind, _, _), n in one_pass.verdicts.items() if kind == "vto")
    # u restricted to the image in first_isomorphism (3,403 per pass) is
    # very true by theorem and runs no kernel
    assert sum(kernels.values()) + composites == 7293


def test_each_suite_call_builds_each_lift_target_once(monkeypatch):
    """``regular-lift`` builds Reg(A)'s subalgebra and
    ``dense-quotient-lift`` Den(A)'s quotient once per ``run_suite`` call,
    and lifts every very true operator onto it."""
    targets, lifting, sizes = Counter(), [], []
    real_subalgebra, real_congruence_from = FiniteAlgebra.subalgebra, deduction.congruence_from

    def lift_spy(kind, real):
        def lift(ops):
            lifting.append(kind)
            try:
                target, lifted = real(ops)
            finally:
                lifting.pop()
            assert len(lifted) == len(ops)
            sizes.append(len(ops))
            return target, lifted
        return lift

    def built(kind, real):
        def build(*args):
            if lifting and lifting[-1] == kind:
                targets[kind] += 1
            return real(*args)
        return build

    monkeypatch.setattr(suite, "lift_to_reg", lift_spy("reg", suite.lift_to_reg))
    monkeypatch.setattr(suite, "lift_to_den_quotient", lift_spy("den", suite.lift_to_den_quotient))
    monkeypatch.setattr(FiniteAlgebra, "subalgebra", built("reg", real_subalgebra))
    monkeypatch.setattr(deduction, "congruence_from", built("den", real_congruence_from))
    for A in _seed_pool():
        targets.clear()
        names = {r.name for r in suite.run_suite(A)}
        glivenko = "regular-lift" in names
        assert targets == ({"reg": 1, "den": 1} if glivenko else {}), A.element_names
    assert max(sizes) > 1  # some call lifts several operators onto one target


def test_the_factor_loop_leaves_ker_f_to_first_isomorphism(monkeypatch):
    """``vthom-transport`` factors each very true endomorphism g through
    every stable normal H strictly inside Ker g; at H = Ker g,
    ``first_isomorphism`` has decided the same lift and factored map."""
    factored, first = [], []
    real_factor, real_first_isomorphism = suite.factor, suite.first_isomorphism

    def factor(g, H):
        factored.append((g.base.kernel(), H.members))
        return real_factor(g, H)

    def first_isomorphism(g):
        first.append(g.base.kernel())
        return real_first_isomorphism(g)

    monkeypatch.setattr(suite, "factor", factor)
    monkeypatch.setattr(suite, "first_isomorphism", first_isomorphism)
    for A in _seed_pool():
        suite.run_suite(A)
    assert factored and first
    assert all(H < ker for ker, H in factored)
