from collections import Counter
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from conftest import identity_map, values_tried
from psbck import deduction, morphisms, operators, suite
from psbck.deduction import DeductiveSystem, enumerate_ds_v
from psbck.algebra import FiniteAlgebra, validate
from psbck.errors import (
    KernelContainmentViolated,
    MalformedInput,
    ParentMismatch,
)
from psbck.generate import _seed_pool, direct_product, goedel_chain, lukasiewicz_chain, relabel
from psbck.morphisms import (
    Homomorphism,
    VtHomomorphism,
    enumerate_hom,
    enumerate_vthom,
    factor,
    first_isomorphism,
    intertwine_failure,
    is_hom,
    is_isomorphic,
    is_vthom,
    transport,
)
from psbck.operators import UnaryMap, Witness, enumerate_vto, is_vtst

PSI = [
    ("1", "1", "1", "1", "1", "1"),
    ("1", "a", "b", "c", "d", "e"),
    ("1", "b", "a", "d", "c", "e"),
]


def _hom(A, names):
    return Homomorphism(A, A, tuple(A.index(n) for n in names))


def _injective(f):
    return len(set(f.map)) == f.source.n


def _bijective(f):
    return _injective(f) and f.source.n == f.target.n


def test_endomorphisms_six_element(six_elt):
    homs = enumerate_hom(six_elt, six_elt)
    assert sorted(f.names() for f in homs) == sorted(PSI)
    assert all(is_hom(f) is None for f in homs)


def test_vthom_families_six_element(six_elt):
    # every map intertwines with the identity operator, so the first
    # operator admits all three endomorphisms just like the last one;
    # the eight in between reject the swap
    A = six_elt
    vto = enumerate_vto(A)
    assert len(vto) == 10
    small = {PSI[0], PSI[1]}
    for v in vto[1:-1]:
        got = {f.names() for f in enumerate_vthom(A, v, A, v)}
        assert got == small, v.names()
    for v in (vto[0], vto[-1]):
        assert {f.names() for f in enumerate_vthom(A, v, A, v)} == set(PSI)


def test_is_hom_witness(six_elt):
    bad = Homomorphism(six_elt, six_elt, tuple([six_elt.index("a")] * 6))
    assert is_hom(bad) is not None


def test_transport_swap_endomorphism(six_elt, monkeypatch):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi3 = _hom(A, PSI[2])
    g = VtHomomorphism(psi3, v10, v10)
    assert is_vthom(psi3, v10, v10) is None
    asked, real = [], morphisms._is_ds
    monkeypatch.setattr(morphisms, "_is_ds", lambda B, mask: asked.append(mask) or real(B, mask))
    assert transport(g) is None
    # psi3 is bijective, so f(D) was asked for every D in DS_v, in order,
    # right after Ker f
    pushed = [deduction._mask({psi3.map[x] for x in D.members}) for D in enumerate_ds_v(v10)]
    assert asked[0] == 1 << A.one
    assert asked[1 : 1 + len(pushed)] == pushed
    assert psi3.kernel() == frozenset({A.one})


def test_a_very_true_homomorphism_is_certified_when_built(corpus_docs):
    doc = corpus_docs["ex_2_6"]
    A = doc.algebras["A"]
    psi3, v2, v10 = (doc.maps[name][1] for name in ("psi3", "v2", "v10"))
    # psi3 is a homomorphism that does not intertwine v2 with itself; v10
    # read as a map is not a homomorphism at all
    with pytest.raises(MalformedInput, match=r"^not a very true homomorphism: intertwine\[a\]$"):
        VtHomomorphism(Homomorphism(A, A, psi3.image), v2, v2)
    with pytest.raises(MalformedInput, match=r"^not a very true homomorphism: hom-arrow\[a,b\]$"):
        VtHomomorphism(Homomorphism(A, A, v10.image), v10, v10)


def test_is_hom_raises_on_a_map_that_is_not_total_until_a_pass_is_kept(four_elt, monkeypatch):
    A = four_elt
    # one value short, and a value outside the target carrier
    for m in ((A.one,) * (A.n - 1), (A.n,) * A.n):
        f = Homomorphism(A, A, m)
        for _ in range(2):  # nothing is kept, so each call scans again
            with pytest.raises(MalformedInput, match="not total"):
                is_hom(f)
        assert not f.memo
    f = Homomorphism(A, A, tuple(A.elements))
    assert is_hom(f) is None and f.memo == {"hom": True}
    # a pass is kept only after the scan, and the map is a tuple, so the
    # kept pass answers before any scan: a map forced past the frozen
    # dataclass shows it
    monkeypatch.setattr(morphisms, "_hom_witness", None)
    object.__setattr__(f, "map", (A.n,) * A.n)
    assert is_hom(f) is None


def test_transport_constant_map_skips_pushforward(six_elt, monkeypatch):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi1 = _hom(A, PSI[0])
    asked, real = set(), morphisms._is_ds
    monkeypatch.setattr(morphisms, "_is_ds", lambda B, mask: asked.add(mask) or real(B, mask))
    assert transport(VtHomomorphism(psi1, v10, v10)) is None
    # every preimage under the constant map is A; the map is not onto, so
    # no f(D) is asked
    assert asked == {(1 << A.n) - 1}


TRANSPORT_FACTS = [
    "image-vt-subalgebra",
    "kernel-normal-vds",
    "pushforward",
    "pullback",
]


@pytest.mark.parametrize("fact", TRANSPORT_FACTS)
def test_transport_names_the_fact_a_planted_fault_breaks(six_elt, monkeypatch, fact):
    """On certified input every fact holds, so each is broken by a plant:
    a wrong kept verdict, checker or system list.  The identity map is
    onto, so every fact is evaluated, and u is a twin of v, so the systems
    of v and u are derived apart.  The broken set lacks 1, so it is truly
    no deductive system."""
    A = six_elt
    v = enumerate_vto(A)[-1]
    u = UnaryMap(A, v.image)
    f = Homomorphism(A, A, tuple(A.elements))
    bad = frozenset(A.elements) - {A.one}
    real_ds_v = morphisms.enumerate_ds_v
    if fact == "image-vt-subalgebra":
        f.memo["image-closed"] = False
    elif fact == "kernel-normal-vds":
        monkeypatch.setattr(morphisms, "_is_normal", lambda B, mask: False)
    else:
        w0 = v if fact == "pushforward" else u
        monkeypatch.setattr(
            morphisms,
            "enumerate_ds_v",
            lambda w: real_ds_v(w) + [SimpleNamespace(members=bad)] * (w is w0),
        )
    assert transport(VtHomomorphism(f, v, u)) == Witness(fact, f.names())


def test_operators_must_live_on_the_algebras_they_are_checked_on(six_elt, six_sm):
    # six_sm has as many elements as six_elt, so only the parent check can
    # tell its operators apart; an equal copy of six_elt is the same algebra
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi3 = _hom(A, PSI[2])
    stranger = identity_map(six_sm)
    with pytest.raises(ParentMismatch):
        is_vthom(psi3, stranger, v10)
    with pytest.raises(ParentMismatch):
        is_vthom(psi3, v10, stranger)
    with pytest.raises(ParentMismatch):
        is_vtst(v10, stranger, identity_map(A))
    with pytest.raises(ParentMismatch):
        is_vtst(v10, identity_map(A), stranger)
    copy = validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)
    assert is_vthom(psi3, UnaryMap(copy, v10.image), v10) is None
    assert is_vtst(v10, identity_map(copy), identity_map(A)) is None


def test_vt_subalgebra_check(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]

    def is_vt_subalgebra(members):
        # contains 1, closed under both implications, stable under v10
        closed = A.one in members and A.unclosed_pair(members) is None
        return closed and v10.preserves(deduction._mask(members))

    assert is_vt_subalgebra(set(A.elements))
    assert is_vt_subalgebra({A.one, A.index("e")})
    assert not is_vt_subalgebra({A.index("e")})


def test_factor_through_trivial_system(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi3 = _hom(A, PSI[2])
    H = DeductiveSystem.from_members(A, {A.one})
    res = factor(VtHomomorphism(psi3, v10, v10), H)
    assert res.unique and res.image_preserved and res.kernel_is_quotient_of_kernel
    assert res.quotient.algebra.n == A.n


def test_factor_requires_kernel_containment(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi3 = _hom(A, PSI[2])
    whole = DeductiveSystem.from_members(A, set(A.elements))
    with pytest.raises(KernelContainmentViolated):
        factor(VtHomomorphism(psi3, v10, v10), whole)


def test_first_isomorphism_constant_map(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi1 = _hom(A, PSI[0])
    res = first_isomorphism(VtHomomorphism(psi1, v10, v10))
    assert res.quotient.algebra.n == 1
    assert _bijective(res.factored.base)
    assert res.unique


def test_first_isomorphism_swap(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    res = first_isomorphism(VtHomomorphism(_hom(A, PSI[2]), v10, v10))
    assert res.quotient.algebra.n == A.n
    assert _bijective(res.factored.base)


def test_first_isomorphism_builds_what_holds_by_theorem():
    # first_isomorphism takes Ker f as a normal deductive system and the
    # corestriction onto the image as a homomorphism, unchecked; over every
    # endomorphism of the seed pool, both agree with the checks
    seen = 0
    for A in _seed_pool():
        identity = identity_map(A)
        for f in enumerate_hom(A, A):
            res = first_isomorphism(VtHomomorphism(f, identity, identity))
            assert res.quotient.by == DeductiveSystem.from_members(A, f.kernel())
            image = A.subalgebra(f.image())
            onto_image = Homomorphism(A, image, tuple(map(image.index, f.names())))
            assert is_hom(onto_image) is None
            factored = res.factored.base
            assert factored.target == image
            assert onto_image.map == tuple(factored.map[c] for c in res.quotient.class_of)
            # what vthom-transport no longer checks apart: the kernel and
            # image verdicts make the factored map a bijection
            assert res.image_preserved and res.kernel_is_quotient_of_kernel
            assert _bijective(factored)
            seen += 1
    assert seen > 100


def test_first_isomorphism_takes_u_on_the_image_as_very_true_by_theorem(
    small_pool, monkeypatch
):
    # the image is a u-stable subalgebra, and VT1-VT4 are universal
    # sentences; on every (f, v) that vthom-transport visits, the kernel
    # agrees with the pass first_isomorphism keeps on the restriction
    restrictions, real = [], suite.first_isomorphism

    def recording(g):
        res = real(g)
        restrictions.append(res.factored.u)
        return res

    monkeypatch.setattr(suite, "first_isomorphism", recording)
    for A in _seed_pool() + small_pool:
        suite.run_suite(A)
    assert len(restrictions) == 747
    for u in restrictions:
        assert u.memo == {"vto": True}
        assert operators._vto_witness(u.parent, u.image) is None, u.names()


def test_isomorphism_detection(four_elt, six_elt):
    perm = [3, 0, 2, 1]
    other = relabel(four_elt, perm, prefix="y")
    iso = is_isomorphic(four_elt, other)
    assert iso is not None and is_hom(iso) is None
    assert is_isomorphic(four_elt, six_elt) is None


# -- brute-force oracles on every distinct pool algebra with n <= 4 ----------


def test_enumerate_hom_matches_brute_force(small_pool, small_pool_one_last):
    # the relabelled sources, where 1 has the largest id, make the search
    # force f(1) from every pair x <= y before it reaches 1
    for A, B in product(small_pool + small_pool_one_last, small_pool):
        every = (
            Homomorphism(A, B, m) for m in product(range(B.n), repeat=A.n)
        )
        brute = [f.map for f in every if is_hom(f) is None]
        homs = enumerate_hom(A, B)
        assert [f.map for f in homs] == brute
        # the lemma behind is_isomorphic: kernel {1} makes f injective (and
        # an injective f, with f(1) = 1, has kernel {1})
        assert all(_injective(f) == (f.kernel() == {A.one}) for f in homs)
        # homs-monotone passes by theorem: f(1) = f(x->x) = 1, so x <= y
        # gives f(x)->f(y) = f(x->y) = 1
        assert all(
            B.leq(f.map[x], f.map[y])
            for f in homs
            for x, y in product(A.elements, repeat=2)
            if A.leq(x, y)
        )


def test_is_isomorphic_matches_permutation_search(small_pool, small_pool_one_last):
    for A, B in product(small_pool + small_pool_one_last, small_pool):
        exists = A.n == B.n and any(
            is_hom(Homomorphism(A, B, p)) is None for p in permutations(B.elements)
        )
        iso = is_isomorphic(A, B)
        assert (iso is not None) == exists
        if iso is not None:
            assert is_hom(iso) is None and _injective(iso)


# -- the values the endomorphism search tries, pinned -------------------------


@pytest.mark.parametrize(
    "A, tried, before, homs",
    [
        (goedel_chain(8), 3_712, 27_456, 128),
        (lukasiewicz_chain(8), 541, 39_130, 2),
        (direct_product(goedel_chain(2), lukasiewicz_chain(4)), 448, 39_258, 10),
    ],
    ids=["G8", "L8", "G2xL4"],
)
def test_forward_propagation_prunes_the_endomorphism_search(A, tried, before, homs):
    # 1 has the largest id in all three, so without forcing every order
    # check x->y = 1 waits for the leaf; ``before`` is the count the search
    # made then, and forcing must not lose an endomorphism
    assert A.one == A.n - 1
    got, found = values_tried(enumerate_hom, A, A)
    assert (got, len(found)) == (tried, homs)
    assert got < before


def test_isomorphism_search_on_b16_tries_pinned_values():
    # the Boolean algebra of 16 elements against one fixed relabelling of
    # it: the values tried and the first isomorphism found, in search order
    B16 = direct_product(
        direct_product(direct_product(goedel_chain(2), goedel_chain(2)), goedel_chain(2)),
        goedel_chain(2),
    )
    B = relabel(B16, [(5 * i + 3) % 16 for i in B16.elements], "x")
    tried, h = values_tried(is_isomorphic, B16, B)
    assert tried == 28
    assert h.map == (3, 7, 8, 12, 11, 15, 0, 4, 13, 1, 2, 6, 5, 9, 10, 14)


def test_intertwine_witness_matches_brute_force(small_pool):
    # the least x with f(v(x)) != u(f(x)), over every endomorphism f and
    # every pair (v, u) of very true operators
    for A in small_pool:
        vto = enumerate_vto(A)
        for f, v, u in product(enumerate_hom(A, A), vto, vto):
            clash = [x for x in A.elements if f.map[v.image[x]] != u.image[f.map[x]]]
            want = Witness("intertwine", (A.name(clash[0]),)) if clash else None
            assert is_vthom(f, v, u) == want, (f.names(), v.names(), u.names())


def _unique_by_brute_force(g, res):
    """Uniqueness as first stated: of every very true homomorphism from the
    quotient, exactly the factored one commutes with the projection."""
    quot, vhat = res.quotient, res.lifted_operator
    q, B, u = quot.algebra, g.target, g.u
    matches = [
        m
        for m in product(range(B.n), repeat=q.n)
        if all(m[quot.class_of[x]] == g.base.map[x] for x in g.source.elements)
        and all(m[vhat.image[c]] == u.image[m[c]] for c in q.elements)
        and is_hom(Homomorphism(q, B, m)) is None
    ]
    return matches == [res.factored.base.map]


def _factor_calls(monkeypatch, algebras):
    """(g, factor's result) for every ``factor`` call that ``run_suite``
    makes over ``algebras``, and for H = Ker g, which the family leaves to
    ``first_isomorphism``."""
    visited = []
    real, real_first_isomorphism = morphisms.factor, morphisms.first_isomorphism

    def recording(g, H):
        res = real(g, H)
        visited.append((g, res))
        return res

    def recording_first_isomorphism(g):
        recording(g, DeductiveSystem.from_members(g.source, g.base.kernel()))
        return real_first_isomorphism(g)

    monkeypatch.setattr(suite, "factor", recording)
    monkeypatch.setattr(suite, "first_isomorphism", recording_first_isomorphism)
    for A in algebras:
        suite.run_suite(A)
    assert any(res.quotient.algebra.n < g.source.n for g, res in visited)
    return visited


def test_factor_uniqueness_matches_brute_force(small_pool, monkeypatch):
    for g, res in _factor_calls(monkeypatch, small_pool):
        assert res.unique == _unique_by_brute_force(g, res), g.base.names()


def _pinned_search_unique(g, res):
    """Uniqueness by the pinned search: the map search from the quotient
    with every class pinned to the value ``g`` takes on it, filtered by
    intertwining with the lifted operator, returns the factored map
    alone."""
    quot, vhat, want = res.quotient, res.lifted_operator, res.factored.base.map
    maps = morphisms._hom_search(quot.algebra, g.target, [[y] for y in want])
    matches = [m for m in maps if intertwine_failure(m, vhat, g.u) is None]
    return matches == [want]


def test_factor_uniqueness_matches_the_pinned_search(small_pool, monkeypatch):
    for g, res in _factor_calls(monkeypatch, [*_seed_pool(), *small_pool]):
        assert res.unique == _pinned_search_unique(g, res), g.base.names()


def test_run_suite_checks_each_homomorphism_once(monkeypatch):
    """A call count, independent of the machine: over the seed pool,
    ``is_hom`` runs its kernel ``_hom_witness`` at most once per
    ``Homomorphism`` object, whether ``homs-preserve``, ``is_vthom`` or
    ``factor`` asks; ``factor`` runs no map search; ``first_isomorphism``
    builds the image subalgebra at most once per homomorphism object and
    checks neither the corestriction nor Ker f, which hold by theorem.
    Over the seed pool the family factors 1,172 times, 1,674 before
    factoring at H = Ker f was left to ``first_isomorphism``, and the hom
    kernel runs 564 times (703 then)."""
    keep = []  # every counted object stays alive, so no id is reused
    hom_checks, subalgebras = Counter(), Counter()
    checking, corestricting, factoring, searched, decided, corestrictions = (
        [], [], [], [], [], set()
    )
    factor_calls = []
    real_is_hom, real_witness, real_search = is_hom, morphisms._hom_witness, morphisms._hom_search
    real_first_isomorphism, real_factor = first_isomorphism, morphisms._factor
    real_subalgebra, real_from_members = FiniteAlgebra.subalgebra, DeductiveSystem.from_members

    def counting_is_hom(f):
        keep.append(f)
        checking.append(id(f))
        try:
            return real_is_hom(f)
        finally:
            checking.pop()

    def counting_witness(A, B, m):
        hom_checks[checking[-1]] += 1
        return real_witness(A, B, m)

    def counting_first_isomorphism(g):
        keep.append(g)
        corestricting.append(id(g.base))
        try:
            return real_first_isomorphism(g)
        finally:
            corestricting.pop()

    def counting_subalgebra(A, members):
        if corestricting:
            subalgebras[corestricting[-1]] += 1
        return real_subalgebra(A, members)

    def counting_from_members(A, members):
        if corestricting:
            decided.append(members)
        return real_from_members(A, members)

    def counting_factor(base, v, u, H):
        keep.append(base)
        if corestricting:
            corestrictions.add(id(base))
        factoring.append(base)
        factor_calls.append(base)
        try:
            return real_factor(base, v, u, H)
        finally:
            factoring.pop()

    def counting_search(A, B, candidates):
        if factoring:
            searched.append(A)
        return real_search(A, B, candidates)

    monkeypatch.setattr(morphisms, "is_hom", counting_is_hom)
    monkeypatch.setattr(suite, "is_hom", counting_is_hom)
    monkeypatch.setattr(morphisms, "_hom_witness", counting_witness)
    monkeypatch.setattr(FiniteAlgebra, "subalgebra", counting_subalgebra)
    monkeypatch.setattr(DeductiveSystem, "from_members", counting_from_members)
    monkeypatch.setattr(morphisms, "_hom_search", counting_search)
    # the vthom-transport family factors through factor and first_isomorphism,
    # and both through _factor
    monkeypatch.setattr(suite, "first_isomorphism", counting_first_isomorphism)
    monkeypatch.setattr(morphisms, "_factor", counting_factor)
    for A in _seed_pool():
        suite.run_suite(A)
    assert hom_checks and subalgebras and corestrictions
    assert (len(factor_calls), sum(hom_checks.values())) == (1172, 564)
    assert max(hom_checks.values()) == 1
    assert max(subalgebras.values()) == 1
    assert searched == [] and decided == []
    assert not corestrictions & hom_checks.keys()


def _transport_questions(g):
    """The (algebra object, member bitset) questions that ``transport(g)``
    asks the deductive-system checker, built from member sets: Ker f, each
    f^-1(G) for G in DS_u and, when f is onto, each f(D) for D in DS_v."""
    A, B, m = g.source, g.target, g.base.map

    def bits(alg, members):
        return id(alg), sum(1 << x for x in set(members))

    def preimage(members):
        return bits(A, (x for x in A.elements if m[x] in members))

    asked = {bits(A, g.base.kernel())}
    asked |= {preimage(G.members) for G in enumerate_ds_v(g.u)}
    if len(set(m)) == B.n:
        asked |= {bits(B, (m[x] for x in D.members)) for D in enumerate_ds_v(g.v)}
    return asked


def test_transport_decides_each_operator_free_question_once(monkeypatch):
    """A call count, independent of the machine: over the seed pool, each
    ``transport`` call asks ``_is_ds`` by member bitset exactly its image,
    preimage and kernel questions, and ``_is_ds`` and ``_is_normal`` run
    their kernels (the ``_adjoin`` closure, the row scan) at most
    once per (algebra object, member bitset), however many homomorphisms
    and operators ``transport`` asks for them, and ``from_members`` and
    ``enumerate_ds`` with it."""
    keep = []  # every counted object stays alive, so no id is reused
    asks, runs, deciding, transporting, wrong = Counter(), Counter(), [], [], []
    real_transport = morphisms.transport

    def asking(kind, real):
        def ask(A, mask):
            keep.append(A)
            question = (kind, id(A), mask)
            asks[question] += 1
            if transporting and kind == "ds":
                transporting[-1].add((id(A), mask))
            deciding.append(question)
            try:
                return real(A, mask)
            finally:
                deciding.pop()
        return ask

    def kernel_of(kind, real):
        def run(*args, **kwargs):
            if deciding and deciding[-1][0] == kind:
                runs[deciding[-1]] += 1
            return real(*args, **kwargs)
        return run

    def recording_transport(g):
        keep.append(g)
        transporting.append(set())
        try:
            return real_transport(g)
        finally:
            if transporting.pop() != _transport_questions(g):
                wrong.append(g.base.names())

    is_ds, is_normal = asking("ds", deduction._is_ds), asking("normal", deduction._is_normal)
    for module in (deduction, morphisms):
        monkeypatch.setattr(module, "_is_ds", is_ds)
        monkeypatch.setattr(module, "_is_normal", is_normal)
    monkeypatch.setattr(deduction, "_adjoin", kernel_of("ds", deduction._adjoin))
    # the normality kernel zips the -> and ~> rows once per run
    monkeypatch.setattr(deduction, "zip", kernel_of("normal", zip), raising=False)
    monkeypatch.setattr(suite, "transport", recording_transport)
    for A in _seed_pool():
        suite.run_suite(A)
    assert wrong == []
    assert {type(mask) for _, _, mask in asks} == {int}
    assert {kind for kind, _, _ in runs} == {"ds", "normal"}
    assert runs.keys() == asks.keys()  # every question is decided, once
    assert set(runs.values()) == {1}
    assert sum(asks.values()) > 2 * len(runs)  # the same questions come back


def _vthom_transport(A):
    """The (ok, detail) of ``run_suite(A)``'s ``vthom-transport`` family."""
    (res,) = [r for r in suite.run_suite(A) if r.name == "vthom-transport"]
    return res.ok, res.detail


def test_vthom_transport_names_the_map_whose_transport_fails(four_elt, monkeypatch):
    """On certified input no transport fails, so the family's failure
    return runs only under a planted deductive-system verdict."""

    def copy():
        A = four_elt
        return validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)

    # outside the kept verdict: {1}, the kernel of the identity map, fails
    A, real_is_ds = copy(), morphisms._is_ds
    monkeypatch.setattr(
        morphisms, "_is_ds", lambda B, mask: mask != 1 << B.one and real_is_ds(B, mask)
    )
    assert _vthom_transport(A) == (False, "transport ('1', 'a', 'b', 'c')")
    monkeypatch.undo()
    assert _vthom_transport(A) == (True, "")  # nothing was kept under the plant

    # under the kept verdict: A's whole carrier, the preimage of the
    # system A under every map, closes to nothing, and A keeps that
    A, real_adjoin = copy(), deduction._adjoin
    carrier = (1 << A.n) - 1

    def adjoin(B, pairs, closed, new):
        if B is A and closed == 0 and new == carrier:
            return 0
        return real_adjoin(B, pairs, closed, new)

    monkeypatch.setattr(deduction, "_adjoin", adjoin)
    assert _vthom_transport(A) == (False, "transport ('1', '1', '1', '1')")
    monkeypatch.undo()
    assert _vthom_transport(A) == (False, "transport ('1', '1', '1', '1')")
    # an equal algebra built separately decides afresh
    assert _vthom_transport(copy()) == (True, "")
