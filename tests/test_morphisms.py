from collections import Counter
from itertools import permutations, product

import pytest

from conftest import values_tried
from psbck import morphisms, suite
from psbck.deduction import DeductiveSystem, enumerate_ds_v
from psbck.algebra import FiniteAlgebra, validate
from psbck.errors import (
    KernelContainmentViolated,
    MalformedInput,
    ParentMismatch,
    SurjectivityRequired,
)
from psbck.generate import _seed_pool, direct_product, goedel_chain, lukasiewicz_chain, relabel
from psbck.morphisms import (
    Homomorphism,
    VtHomomorphism,
    enumerate_hom,
    enumerate_vthom,
    factor,
    first_isomorphism,
    is_hom,
    is_isomorphic,
    is_vthom,
    pushforward_ds,
    transport,
)
from psbck.operators import UnaryMap, Witness, enumerate_vto, identity_map, is_vtst, kernel

PSI = [
    ("1", "1", "1", "1", "1", "1"),
    ("1", "a", "b", "c", "d", "e"),
    ("1", "b", "a", "d", "c", "e"),
]


def _hom(A, names):
    return Homomorphism(A, A, tuple(A.index(n) for n in names))


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


def test_transport_swap_endomorphism(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi3 = _hom(A, PSI[2])
    g = VtHomomorphism(psi3, v10, v10)
    assert is_vthom(psi3, v10, v10) is None
    rep = transport(g)
    assert rep.ok
    assert rep.pushforward_ok is True  # psi3 is bijective
    assert rep.kernel == frozenset({A.one})


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


def test_transport_constant_map_skips_pushforward(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    psi1 = _hom(A, PSI[0])
    rep = transport(VtHomomorphism(psi1, v10, v10))
    assert rep.pushforward_ok is None
    assert rep.image_ker_v_is_uds is None
    assert rep.ok
    with pytest.raises(SurjectivityRequired):
        pushforward_ds(
            VtHomomorphism(psi1, v10, v10),
            DeductiveSystem.from_members(A, {A.one}),
        )


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
        return A.one in members and A.unclosed_pair(members) is None and v10.preserves(members)

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
    assert res.factored.base.is_injective()
    assert res.factored.base.is_surjective()
    assert res.unique


def test_first_isomorphism_swap(six_elt):
    A = six_elt
    v10 = enumerate_vto(A)[-1]
    res = first_isomorphism(VtHomomorphism(_hom(A, PSI[2]), v10, v10))
    assert res.quotient.algebra.n == A.n
    assert res.factored.base.is_injective() and res.factored.base.is_surjective()


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
        assert all(f.is_injective() == (f.kernel() == {A.one}) for f in homs)


def test_is_isomorphic_matches_permutation_search(small_pool, small_pool_one_last):
    for A, B in product(small_pool + small_pool_one_last, small_pool):
        exists = A.n == B.n and any(
            is_hom(Homomorphism(A, B, p)) is None for p in permutations(B.elements)
        )
        iso = is_isomorphic(A, B)
        assert (iso is not None) == exists
        if iso is not None:
            assert is_hom(iso) is None and iso.is_injective()


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


def test_factor_uniqueness_matches_brute_force(small_pool, monkeypatch):
    visited = []
    real = morphisms.factor

    def recording(g, H):
        res = real(g, H)
        visited.append((g, res))
        return res

    # the vthom-transport family calls factor directly and via first_isomorphism
    monkeypatch.setattr(morphisms, "factor", recording)
    monkeypatch.setattr(suite, "factor", recording)
    for A in small_pool:
        suite.run_suite(A)
    assert any(res.quotient.algebra.n < g.source.n for g, res in visited)
    for g, res in visited:
        assert res.unique == _unique_by_brute_force(g, res), g.base.names()


def test_run_suite_checks_each_homomorphism_once(monkeypatch):
    """A call count, independent of the machine: over the seed pool,
    ``is_vthom`` runs ``is_hom`` at most once per ``Homomorphism`` object,
    ``first_isomorphism`` builds the image subalgebra at most once per
    homomorphism object, and ``factor``'s uniqueness search runs at most
    once per (homomorphism object, H, target), however many operators the
    homomorphism intertwines."""
    keep = []  # every counted object stays alive, so no id is reused
    hom_checks, subalgebras, searches = Counter(), Counter(), Counter()
    corestricting, factoring = [], []
    real_is_hom, real_search = is_hom, morphisms._hom_search
    real_first_isomorphism, real_factor = first_isomorphism, factor
    real_subalgebra = FiniteAlgebra.subalgebra

    def counting_is_hom(f):
        keep.append(f)
        hom_checks[id(f)] += 1
        return real_is_hom(f)

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

    def counting_factor(g, H):
        keep.append(g)
        factoring.append((id(g.base), H.members, id(g.target)))
        try:
            return real_factor(g, H)
        finally:
            factoring.pop()

    def counting_search(A, B, candidates):
        if factoring:
            searches[factoring[-1]] += 1
        return real_search(A, B, candidates)

    monkeypatch.setattr(morphisms, "is_hom", counting_is_hom)
    monkeypatch.setattr(FiniteAlgebra, "subalgebra", counting_subalgebra)
    monkeypatch.setattr(morphisms, "_hom_search", counting_search)
    # the vthom-transport family calls factor directly and via first_isomorphism
    monkeypatch.setattr(suite, "first_isomorphism", counting_first_isomorphism)
    monkeypatch.setattr(morphisms, "factor", counting_factor)
    monkeypatch.setattr(suite, "factor", counting_factor)
    for A in _seed_pool():
        suite.run_suite(A)
    assert hom_checks and subalgebras and searches
    assert max(hom_checks.values()) == 1
    assert max(subalgebras.values()) == 1
    assert max(searches.values()) == 1


def _transport_questions(g):
    """The operator-free questions ``transport(g)`` asks: whether Ker f is a
    normal deductive system, and whether f(S) or f^-1(S) is a deductive
    system, as (direction, S)."""
    asked = {("kernel",), ("preimage", kernel(g.u))}
    asked |= {("preimage", G.members) for G in enumerate_ds_v(g.u)}
    if g.base.is_surjective():
        asked |= {("image", kernel(g.v))}
        asked |= {("image", D.members) for D in enumerate_ds_v(g.v)}
    return asked


def test_transport_decides_each_operator_free_question_once(monkeypatch):
    """A call count, independent of the machine: over the seed pool,
    ``transport`` runs ``_is_ds`` at most once per (homomorphism object,
    direction, member set) and ``_is_normal`` at most once per homomorphism
    object, however many operators the homomorphism intertwines."""
    keep = []  # every counted object stays alive, so no id is reused
    transports, ds_checks, normal_checks = Counter(), Counter(), Counter()
    asked, current = {}, []
    real_transport, real_is_ds, real_is_normal = transport, morphisms._is_ds, morphisms._is_normal

    def counting_transport(g):
        keep.append(g)
        transports[id(g.base)] += 1
        asked.setdefault(id(g.base), set()).update(_transport_questions(g))
        current.append(id(g.base))
        try:
            return real_transport(g)
        finally:
            current.pop()

    def counting_is_ds(A, members):
        if current:
            ds_checks[current[-1]] += 1
        return real_is_ds(A, members)

    def counting_is_normal(A, members):
        if current:
            normal_checks[current[-1]] += 1
        return real_is_normal(A, members)

    monkeypatch.setattr(suite, "transport", counting_transport)
    monkeypatch.setattr(morphisms, "_is_ds", counting_is_ds)
    monkeypatch.setattr(morphisms, "_is_normal", counting_is_normal)
    for A in _seed_pool():
        suite.run_suite(A)
    assert max(transports.values()) > 1 and ds_checks and normal_checks
    assert all(ds_checks[h] <= len(asked[h]) for h in asked)
    assert max(normal_checks.values()) == 1
