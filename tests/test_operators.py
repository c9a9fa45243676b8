import gc
import random
import weakref
from itertools import product

import pytest

from conftest import golden_up_sets, identity_map, values_tried
from psbck import classes, deduction, goldens, morphisms, operators, suite
from psbck._records import fields
from psbck.algebra import validate
from psbck.deduction import (
    DeductiveSystem,
    enumerate_ds_nv,
    enumerate_ds_v,
    lift_vto_to_quotient,
)
from psbck.errors import (
    CarrierTooLarge,
    GlivenkoRequired,
    MalformedInput,
    NotVto,
    ParentMismatch,
    WellDefinednessFailure,
)
from psbck.generate import (
    _seed_pool,
    direct_product,
    goedel_chain,
    lukasiewicz_chain,
    random_batch,
)
from psbck.morphisms import (
    Homomorphism,
    VtHomomorphism,
    enumerate_hom,
    factor,
    first_isomorphism,
    intertwine_failure,
    transport,
)
from psbck.operators import (
    UnaryMap,
    Witness,
    compose,
    certify_vto,
    enumerate_closure,
    enumerate_interior,
    enumerate_vto,
    fix_points,
    globalization,
    image_set,
    is_closure,
    is_interior,
    is_vto,
    is_vtst,
    lift_to_den_quotient,
    lift_to_reg,
    sigma_hedges,
)

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

SIX_VTO = [
    ("1", "a", "b", "c", "d", "e"),
    ("1", "a", "e", "a", "a", "e"),
    ("1", "a", "e", "a", "d", "e"),
    ("1", "a", "e", "c", "a", "e"),
    ("1", "e", "b", "b", "b", "e"),
    ("1", "e", "b", "b", "d", "e"),
    ("1", "e", "b", "c", "b", "e"),
    ("1", "e", "e", "c", "e", "e"),
    ("1", "e", "e", "e", "d", "e"),
    ("1", "e", "e", "e", "e", "e"),
]

SM_VTO = [
    ("0", "0", "0", "0", "0", "1"),
    ("0", "0", "0", "c", "d", "1"),
    ("0", "0", "0", "d", "d", "1"),
    ("0", "a", "a", "c", "d", "1"),
    ("0", "a", "b", "c", "d", "1"),
]


def test_interior_enumeration_four_element(four_elt):
    assert [f.names() for f in enumerate_interior(four_elt)] == FOUR_INTO


def test_vto_enumeration_four_element(four_elt):
    assert [f.names() for f in enumerate_vto(four_elt)] == FOUR_VTO


def test_vto_enumeration_six_element(six_elt):
    got = sorted(f.names() for f in enumerate_vto(six_elt))
    assert got == sorted(SIX_VTO)


def test_vto_enumeration_smarandache(six_sm):
    got = sorted(f.names() for f in enumerate_vto(six_sm))
    assert got == sorted(SM_VTO)


def test_vto_subset_of_interior(four_elt, six_elt, six_sm):
    for A in (four_elt, six_elt, six_sm):
        into = {f.image for f in enumerate_interior(A)}
        assert all(v.image in into for v in enumerate_vto(A))


def test_closure_enumeration_contains_identity(four_elt):
    clo = enumerate_closure(four_elt)
    assert identity_map(four_elt).image in {f.image for f in clo}
    assert all(is_closure(f) is None for f in clo)


def _by_names(A, names):
    return UnaryMap(A, tuple(A.index(n) for n in names))


def test_composition_golden(four_elt):
    A = four_elt
    v1, v2, v4 = (_by_names(A, n) for n in (FOUR_VTO[0], FOUR_VTO[1], FOUR_VTO[3]))
    assert compose(v1, v2).image == compose(v2, v1).image == v1.image
    assert is_vto(compose(v1, v2)) is None
    assert compose(v4, v2).image != compose(v2, v4).image
    assert is_vto(compose(v4, v2)) is not None


def test_one_sided_composition_can_succeed_without_commuting(four_elt):
    # v2 after v4 lands on v1, a certified operator, although the
    # reversed composite fails; hence the commutation law must quantify
    # over both composites.
    A = four_elt
    v1, v2, v4 = (_by_names(A, n) for n in (FOUR_VTO[0], FOUR_VTO[1], FOUR_VTO[3]))
    assert compose(v2, v4).image == v1.image
    assert is_vto(compose(v2, v4)) is None
    assert compose(v2, v4).image != compose(v4, v2).image


def test_globalization_and_identity(four_elt, six_sm):
    for A in (four_elt, six_sm):
        assert is_vto(identity_map(A)) is None
        assert is_vto(globalization(A)) is None


def test_vto_maps_kernel_and_fixpoints(small_pool):
    # Ker v = {1}, as v(x) = 1 gives 1 <= x by VT2: transport and the
    # vds-family ask nothing about Ker v on the strength of it
    golden = [
        g()
        for g in (
            goldens.four_element_bounded,
            goldens.six_element_involutive,
            goldens.six_element_smarandache,
        )
    ]
    for A in small_pool + golden:
        for v in enumerate_vto(A):
            assert [x for x in A.elements if v.image[x] == A.one] == [A.one]
            assert image_set(v) == fix_points(v)


def test_certify_vto_raises(four_elt):
    bad = UnaryMap(four_elt, (0, 0, 0, 0))
    for _ in range(2):  # a failed certificate is not remembered
        with pytest.raises(NotVto):
            certify_vto(bad)
    assert not bad.memo


def test_hedges_are_closures_and_satisfy_axioms(six_elt):
    A = six_elt
    for v in enumerate_vto(A):
        s1, s2 = sigma_hedges(v)
        assert is_closure(s1) is None and is_closure(s2) is None
        assert is_vtst(v, s1, s2) is None
        ident = identity_map(A)
        assert is_vtst(v, ident, ident) is None
        assert all(A.leq(x, s.image[x]) for s in (s1, s2) for x in ident.image)


def test_the_identity_pair_satisfies_the_hedge_axioms_by_theorem(pool):
    # the hedges family does not ask: ST1 and ST2 hold for (Id, Id) by
    # construction, and its ST3, v(x->y) <= x->y, is VT2
    for A in pool:
        if A.bounded:
            ident = identity_map(A)
            assert all(is_vtst(v, ident, ident) is None for v in enumerate_vto(A))


def test_lift_to_reg_involutive_is_original(six_elt):
    # every element is regular, so each lift is the operator itself
    vto = enumerate_vto(six_elt)
    sub, lifted = lift_to_reg(vto)
    assert sub == six_elt
    assert [f.image for f in lifted] == [v.image for v in vto]


def test_lift_to_reg_smarandache(six_sm):
    sub, lifted = lift_to_reg(enumerate_vto(six_sm))
    assert sub.element_names == ("0", "1")
    assert lifted and all(is_vto(f) is None for f in lifted)


def test_lift_to_den_quotient_smarandache(six_sm):
    # the quotient collapses the five dense elements onto the class of 1
    quot, lifted = lift_to_den_quotient(enumerate_vto(six_sm))
    assert quot.algebra.n == 2
    assert lifted and all(is_vto(f) is None for f in lifted)


def test_lifting_a_list_lifts_each_operator_as_alone(pool):
    # one call builds the target once and lifts every operator onto it,
    # each as a call with that operator alone would
    glivenko = [A for A in pool if A.zero is not None and A.is_glivenko()]
    assert glivenko
    for A in glivenko:
        into = enumerate_interior(A)
        for lift in (lift_to_reg, lift_to_den_quotient):
            target, lifted = lift(into)
            assert len(lifted) == len(into)
            for f, g in zip(into, lifted):
                alone, (h,) = lift([f])
                assert alone == target and h == g


def test_lifts_refuse_operators_on_different_algebras(six_elt, six_sm):
    for lift in (lift_to_reg, lift_to_den_quotient):
        with pytest.raises(ParentMismatch):
            lift([identity_map(six_sm), identity_map(six_elt)])


def test_lift_to_den_quotient_direct_image_would_disagree(six_sm):
    # globalization sends the dense element a to 0, so applying the
    # operator to raw representatives is not constant on the class of 1;
    # the double-negation form is what the lift must use
    A = six_sm
    v = globalization(A)
    a = A.index("a")
    assert A.double_negations()[0][a] == A.one  # a^{-~} = (a -> 0) ~> 0
    assert v.image[a] == A.zero and v.image[A.one] == A.one
    quot, (lifted,) = lift_to_den_quotient([v])
    assert lifted.image == identity_map(quot.algebra).image


def test_den_is_a_normal_deductive_system_on_every_glivenko_algebra(pool):
    # lift_to_den_quotient builds Den(A) directly, as a normal deductive
    # system by theorem; from_members decides both properties from the tables
    algebras = pool + random_batch(7, 40, 6) + list(golden_up_sets())
    glivenko = [A for A in algebras if A.zero is not None and A.is_glivenko()]
    assert len(glivenko) == 153
    for A in glivenko:
        den = DeductiveSystem.from_members(A, A.dense_elements())
        assert den.normal, A.element_names
        assert lift_to_den_quotient([identity_map(A)])[0].by == den


def test_lift_requires_glivenko(four_elt):
    with pytest.raises(GlivenkoRequired):
        lift_to_reg([identity_map(four_elt)])


def test_interior_lifts(six_sm):
    # an interior map that is not very true is lifted as an interior one
    into = enumerate_interior(six_sm)
    assert any(is_vto(f) is not None for f in into)
    for lift in (lift_to_reg, lift_to_den_quotient):
        _, lifted = lift(into)
        assert all(is_interior(f) is None for f in lifted)


def test_lifts_refuse_a_map_that_is_not_interior(six_sm):
    top = UnaryMap(six_sm, (six_sm.one,) * six_sm.n)
    for lift in (lift_to_reg, lift_to_den_quotient):
        with pytest.raises(NotVto):
            lift([identity_map(six_sm), top])


def test_lifts_raise_unless_the_lifted_operator_is_very_true(six_sm, monkeypatch):
    # a planted fault rejects every map off v's own algebra; each lift must
    # refuse its result, and run_suite, which no longer re-checks the
    # lifted operators itself, must let the failure through
    A = six_sm
    real, real_core = operators.is_vto, operators._vto_witness

    def planted(f):
        return real(f) if f.parent is A else Witness("planted", ())

    def planted_core(B, im):
        return real_core(B, im) if B is A else Witness("planted", ())

    for module in (operators, deduction, classes):
        monkeypatch.setattr(module, "is_vto", planted)
    # run_suite tests composites with the law code of is_vto directly
    monkeypatch.setattr(suite, "_vto_witness", planted_core)
    v = identity_map(A)
    for lift in (lift_to_reg, lift_to_den_quotient):
        with pytest.raises(WellDefinednessFailure):
            lift([v])
    for H in enumerate_ds_nv(v):
        with pytest.raises(WellDefinednessFailure):
            lift_vto_to_quotient(v, H)
    with pytest.raises(WellDefinednessFailure):
        suite.run_suite(A)


def test_enumeration_cap(monkeypatch):
    A = goldens.six_element_involutive()
    monkeypatch.setenv("PSBCK_MAX_N", "4")
    with pytest.raises(CarrierTooLarge):
        enumerate_vto(A)


# -- brute-force oracles on every distinct pool algebra with n <= 4 ----------


@pytest.mark.parametrize(
    "enumerate_maps, check",
    [
        (enumerate_interior, is_interior),
        (enumerate_closure, is_closure),
        (enumerate_vto, is_vto),
    ],
    ids=["interior", "closure", "vto"],
)
def test_enumeration_matches_brute_force(small_pool, enumerate_maps, check):
    for A in small_pool:
        every = (UnaryMap(A, im) for im in product(A.elements, repeat=A.n))
        brute = [f.image for f in every if check(f) is None]
        assert [f.image for f in enumerate_maps(A)] == brute


# -- the map search engine against a filtered itertools.product ---------------


def _filtered_product(candidates, checks):
    return [
        m
        for m in product(*candidates)
        if all(m[z] == tab[m[x]][m[y]] for x, y, z, tab in checks)
    ]


def _engine_cases(count, seed):
    """(candidates, checks) drawn from a fixed seed: n <= 5
    elements, each with a shuffled subset of k <= 5 values as candidates,
    and checks on two random k x k tables; half the checks put z after x
    and y, where it is forced, the rest put it anywhere."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        candidates = [rng.sample(range(k), rng.randint(1, k)) for _ in range(n)]
        tabs = [
            [[rng.randrange(k) for _ in range(k)] for _ in range(k)] for _ in range(2)
        ]
        checks = []
        for _ in range(rng.randint(0, n + 1)):
            x, y = rng.randrange(n), rng.randrange(n)
            later = max(x, y) + 1
            z = rng.randrange(later, n) if later < n and rng.random() < 0.5 else rng.randrange(n)
            checks.append((x, y, z, rng.choice(tabs)))
        yield candidates, checks


def _position(x, y, z):
    if z > max(x, y):
        return "after"
    if z < min(x, y):
        return "before"
    return "between" if min(x, y) < z < max(x, y) else "on"


def test_map_search_matches_filtered_product():
    seen = set()
    for candidates, checks in _engine_cases(1000, seed=5):
        got = list(operators._map_search(len(candidates), candidates, checks))
        assert got == _filtered_product(candidates, checks), (candidates, checks)
        seen.update(_position(*c[:3]) for c in checks)
        seen.add(("results", bool(got)))
    # z before, between, on and after x and y; with and without results
    assert seen >= {"before", "between", "on", "after"}
    assert seen >= {("results", False), ("results", True)}


FIRST = [[0, 0], [1, 1]]  # FIRST[a][b] = a
ZERO = [[0, 0], [0, 0]]


@pytest.mark.parametrize(
    "candidates, checks, expected",
    [
        # m[1] = m[0] is forced at depth 0, but only 1 is a candidate for m[1]
        ([[0, 1], [1]], [(0, 0, 1, FIRST)], [(1, 1)]),
        # m[1] forced to m[0] and to 0: the two agree on one branch only
        ([[0, 1], [0, 1]], [(0, 0, 1, FIRST), (0, 0, 1, ZERO)], [(0, 0)]),
        # m[2] = m[0] is forced, then the second check fails on m[0] = 0:
        # the value forced on m[2] must be released before m[0] = 1
        ([[0, 1], [1], [0, 1]], [(0, 0, 2, FIRST), (0, 0, 1, FIRST)], [(1, 1, 1)]),
        # m[2] = m[0], released when depth 0 backtracks
        (
            [[0, 1], [0, 1], [0, 1]],
            [(0, 0, 2, FIRST)],
            [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)],
        ),
        # m[1] = m[0] is forced to the value m[0] has taken
        ([[0, 1], [0, 1]], [(0, 0, 1, FIRST)], [(0, 0), (1, 1)]),
    ],
    ids=[
        "forced-outside-candidates",
        "forced-apart",
        "released-after-failed-attempt",
        "released-on-backtrack",
        "forced-taken-not-injective",
    ],
)
def test_map_search_forcing_paths(candidates, checks, expected):
    got = list(operators._map_search(len(candidates), candidates, checks))
    assert got == _filtered_product(candidates, checks) == expected


@pytest.mark.parametrize(
    "A, tried",
    [
        (goedel_chain(8), (897, 1_696, 449)),
        (lukasiewicz_chain(8), (897, 1_696, 449)),
        (direct_product(goedel_chain(2), lukasiewicz_chain(4)), (641, 942, 319)),
    ],
    ids=["G8", "L8", "G2xL4"],
)
def test_monotone_searches_try_the_same_values_as_without_forcing(A, tried):
    # each pair check tests f(x) against f(y) with x <= max(x, y), so nothing
    # is forced; the idempotence cells of its table prune at the depth where
    # the pair is complete, not at the leaves
    searches = (enumerate_interior, enumerate_closure, enumerate_vto)
    assert tuple(values_tried(search, A)[0] for search in searches) == tried


# -- idempotence in the monotone tables against a final filter ---------------


def _monotone_then_idempotent(A, allowed):
    """The monotone search on the plain low table, filtered afterwards to
    the maps that fix every value they take."""
    low = [[a if A.leq(a, b) else -1 for b in A.elements] for a in A.elements]
    checks = [
        (x, y, x, low) for x, y in product(A.elements, repeat=2) if x != y and A.leq(x, y)
    ]
    every = operators._map_search(A.n, allowed, checks)
    return [v for v in every if all(v[w] == w for w in v)]


@pytest.mark.parametrize("kind", ["interior", "closure", "vto"])
def test_idempotence_cells_match_a_final_filter(pool, kind):
    large = [
        goedel_chain(8),
        lukasiewicz_chain(8),
        direct_product(goedel_chain(2), lukasiewicz_chain(4)),
        direct_product(goedel_chain(2), lukasiewicz_chain(5)),
    ]
    for A in pool + list(golden_up_sets()) + large:
        down = [sorted(A.down_set(x)) for x in A.elements]
        allowed = {
            "interior": down,
            "closure": [sorted(A.up_set(x)) for x in A.elements],
            "vto": [[A.one] if x == A.one else down[x] for x in A.elements],
        }[kind]
        got = [f.image for f in operators._enumerate_monotone(A, allowed)]
        assert got == _monotone_then_idempotent(A, allowed), A.element_names


# -- what is derived once per operator is kept in UnaryMap.memo --------------


def _operators(pool):
    """(v, every endomorphism of v's algebra) over the pool's operators."""
    for A in pool:
        homs = enumerate_hom(A, A)
        for v in enumerate_vto(A):
            yield v, homs


def _endomorphisms(v, homs):
    """v as a very true endomorphism along each hom f with f.v = v.f."""
    return [
        VtHomomorphism(f, v, v)
        for f in homs
        if all(f.map[v.image[x]] == v.image[f.map[x]] for x in f.source.elements)
    ]


def _fill_memo(v, homs):
    A = v.parent
    certify_vto(v)
    for H in enumerate_ds_nv(v):
        lift_vto_to_quotient(v, H)
    for g in _endomorphisms(v, homs):
        transport(g)
        first_isomorphism(g)


def test_cached_derivations_match_fresh_ones(pool):
    for v, homs in _operators(pool):
        A = v.parent
        first = enumerate_ds_v(v)
        again = enumerate_ds_v(v)
        assert again == first == enumerate_ds_v(UnaryMap(A, v.image))
        assert again is not first  # each call gets its own list
        for H in enumerate_ds_nv(v):
            fresh = lift_vto_to_quotient(UnaryMap(A, v.image), H)
            for _ in range(2):  # the first call fills the memo, the second reads it
                quot, lifted = lift_vto_to_quotient(v, H)
                assert (quot, lifted) == fresh and quot.by is H
            same = DeductiveSystem.from_members(A, H.members)
            quot, lifted = lift_vto_to_quotient(v, same)
            assert (quot, lifted) == fresh and quot.by is same
            assert "vto" in lifted.memo
        for g in _endomorphisms(v, homs):
            # a fresh operator on a fresh homomorphism: both memos empty;
            # g.base is shared by every operator of A it intertwines
            twin = UnaryMap(A, v.image)
            fresh = VtHomomorphism(Homomorphism(A, A, g.base.map), twin, twin)
            want = _factorizations(fresh)
            for _ in range(2):  # the first call fills the memos, the second reads them
                _assert_same_factorizations(_factorizations(g), want)


def test_cache_is_invisible_to_equality_hash_and_repr(pool):
    for v, homs in _operators(pool):
        twin = UnaryMap(v.parent, v.image)
        _fill_memo(v, homs)
        assert v.memo and not twin.memo
        assert v == twin
        assert hash(v) == hash(twin)
        assert repr(v) == repr(twin)


def test_cached_operator_is_freed_without_the_cycle_collector(pool):
    # the memo must hold no reference back to its operator, or each
    # operator would live until the cyclic collector runs
    gc.disable()
    try:
        for v, homs in _operators(pool):
            w = UnaryMap(v.parent, v.image)
            _fill_memo(w, homs)
            ref = weakref.ref(w)
            del w
            assert ref() is None, v.names()
    finally:
        gc.enable()


# -- what is derived once per homomorphism is kept in Homomorphism.memo ------


def _shared_endomorphisms(algebras):
    """(f, the very true operators v with f.v = v.f) for each endomorphism f
    that at least two operators share, as run_suite hands it to each v."""
    for A in algebras:
        vto = enumerate_vto(A)
        for f in enumerate_hom(A, A):
            vs = [v for v in vto if intertwine_failure(f.map, v, v) is None]
            if len(vs) >= 2:
                yield f, vs


def _factorizations(g):
    """transport, first_isomorphism and factor at each stable H in Ker g,
    as the vthom-transport family of run_suite calls them."""
    ker = g.base.kernel()
    return (
        transport(g),
        first_isomorphism(g),
        [(H, factor(g, H)) for H in enumerate_ds_nv(g.v) if H.members <= ker],
    )


def _assert_same_fields(got, want):
    """Field-by-field equality of two reports of one record class."""
    for fld in fields(got):
        assert getattr(got, fld.name) == getattr(want, fld.name), fld.name


def _assert_same_factor_result(got, want) -> bool:
    """Field-by-field equality; True if ``got`` read a factored map kept
    under another operator."""
    _assert_same_fields(got, want)
    # the kept factored map's source is the first operator's quotient: an
    # equal algebra, not always the same object
    assert got.factored.source == got.quotient.algebra
    return got.factored.source is not got.quotient.algebra


def _assert_same_factorizations(got, want) -> int:
    """Field-by-field equality of two ``_factorizations``; the number of
    factor results that read a factored map kept under another operator."""
    (rep, iso, factored), (rep_want, iso_want, factored_want) = got, want
    assert rep == rep_want
    assert [H for H, _ in factored] == [H for H, _ in factored_want]
    pairs = [(iso, iso_want)] + [(r, w) for (_, r), (_, w) in zip(factored, factored_want)]
    return sum(_assert_same_factor_result(r, w) for r, w in pairs)


def test_homomorphism_memo_gives_what_fresh_twins_give():
    reused = 0
    for f, vs in _shared_endomorphisms(_seed_pool()):
        A = f.source
        for v in vs:  # from the second operator on, f.memo is read back
            got = _factorizations(VtHomomorphism(f, v, v))
            twin = UnaryMap(A, v.image)
            want = _factorizations(VtHomomorphism(Homomorphism(A, A, f.map), twin, twin))
            reused += _assert_same_factorizations(got, want)
        assert "hom" in f.memo and "first-iso" in f.memo
    assert reused


def _reference_transport(g, is_ds):
    """``transport(g)`` with every check run afresh: each set is tested by
    ``is_ds`` on its algebra, then for stability under the operator.  Every
    fact is evaluated; the first that fails, in ``transport``'s order, is
    returned as a witness naming the map, or None."""
    A, B, v, u, m = g.source, g.target, g.v, g.u, g.base.map

    def bits(members):
        return sum(1 << x for x in members)

    def vds(w, alg, members):
        return is_ds(alg, bits(members)) and w.preserves(bits(members))

    def image(members):
        return frozenset(m[x] for x in members)

    def preimage(members):
        return frozenset(x for x in A.elements if m[x] in members)

    ker, img = g.base.kernel(), g.base.image()
    surjective = len(img) == B.n
    facts = [
        # a very true subalgebra: contains 1, closed under both
        # implications and stable under the operator
        ("image-vt-subalgebra",
         B.one in img and B.unclosed_pair(img) is None and u.preserves(bits(img))),
        ("kernel-normal-vds", vds(v, A, ker) and deduction._is_normal(A, bits(ker))),
        ("pushforward",
         not surjective or all(vds(u, B, image(D.members)) for D in enumerate_ds_v(v))),
        ("pullback", all(vds(v, A, preimage(G.members)) for G in enumerate_ds_v(u))),
    ]
    return next((Witness(name, g.base.names()) for name, holds in facts if not holds), None)


def _reference_questions(g):
    """The member bitsets whose verdict ``_reference_transport(g)`` asks:
    every image, preimage and kernel of its facts."""
    asked = set()
    _reference_transport(g, lambda alg, mask: asked.add(mask) or deduction._is_ds(alg, mask))
    return asked


def test_transport_memo_answers_each_question_with_its_own_verdict(monkeypatch):
    # on certified input every verdict holds, so a kept verdict that
    # answered one question with another's would go unseen; plant a failing
    # closure on one member bitset at a time instead, on a fresh algebra
    # whose verdicts _is_ds keeps under the plant, and compare the fact
    # each operator's transport names with the reference's under the same
    # plant
    real_is_ds, real_adjoin = deduction._is_ds, deduction._adjoin
    planted, named = 0, set()
    for f, vs in _shared_endomorphisms(_seed_pool()):
        A = f.source
        calls = []  # the member bitsets each transport call asks
        monkeypatch.setattr(
            morphisms, "_is_ds", lambda B, mask: calls[-1].add(mask) or real_is_ds(B, mask)
        )
        for v in vs:
            g = VtHomomorphism(f, v, v)
            calls.append(set())
            transport(g)
            assert calls[-1] == _reference_questions(g), (f.names(), v.names())
        monkeypatch.setattr(morphisms, "_is_ds", real_is_ds)
        asked = set().union(*calls)
        for bad in asked:
            fresh = validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)

            def adjoin(B, pairs, closed, new, fresh=fresh, bad=bad):
                if B is fresh and closed == 0 and new == bad:
                    return 0  # the closure of ``bad`` alone comes out wrong
                return real_adjoin(B, pairs, closed, new)

            def is_ds(B, mask, bad=bad):
                return mask != bad and real_is_ds(A, mask)

            monkeypatch.setattr(deduction, "_adjoin", adjoin)
            h = Homomorphism(fresh, fresh, f.map)
            for v in vs:
                g = VtHomomorphism(h, v, v)
                got = transport(g)
                assert got == _reference_transport(g, is_ds), (f.names(), v.names())
                named.add(got and got.axiom)
            planted += 1
    assert planted
    # Ker u and Ker v are among the systems pulled back and pushed forward,
    # and the image is no deductive-system question, so a closure plant
    # breaks these facts first
    assert named == {None, "kernel-normal-vds", "pushforward", "pullback"}


def test_homomorphism_memo_is_invisible_to_equality_hash_and_repr():
    for f, vs in _shared_endomorphisms(_seed_pool()):
        twin = Homomorphism(f.source, f.target, f.map)
        for v in vs:
            _factorizations(VtHomomorphism(f, v, v))
        assert f.memo and not twin.memo
        assert f == twin
        assert hash(f) == hash(twin)
        assert repr(f) == repr(twin)


def test_filled_homomorphism_is_freed_without_the_cycle_collector():
    # the memo must hold no reference back to its homomorphism, or each
    # one would live until the cyclic collector runs
    shared = list(_shared_endomorphisms(_seed_pool()))
    gc.disable()
    try:
        for f, vs in shared:
            h = Homomorphism(f.source, f.target, f.map)
            for v in vs:
                _factorizations(VtHomomorphism(h, v, v))
            assert h.memo
            ref = weakref.ref(h)
            del h
            assert ref() is None, f.names()
    finally:
        gc.enable()


def test_a_failed_hom_check_is_not_remembered(four_elt):
    A = four_elt
    bad = Homomorphism(A, A, (A.zero,) * A.n)
    v = identity_map(A)
    for _ in range(2):  # each build checks the map again
        with pytest.raises(MalformedInput, match="hom-arrow"):
            VtHomomorphism(bad, v, v)
    assert not bad.memo
