import gc
import weakref
from itertools import combinations, product

import pytest

from psbck import goldens
from psbck._records import fields
from psbck.algebra import diagnose, validate
from psbck.deduction import (
    DeductiveSystem,
    QuotientAlgebra,
    _mask,
    congruence_from,
    enumerate_congruences,
    enumerate_ds,
    enumerate_ds_n,
    enumerate_ds_nv,
    enumerate_ds_v,
    lift_vto_to_quotient,
    vto_congruence_check,
)
from psbck.errors import (
    CarrierTooLarge,
    MalformedInput,
    NotNormal,
    NotVds,
    ParentMismatch,
    WellDefinednessFailure,
)
from psbck.generate import goedel_chain
from psbck.operators import UnaryMap, globalization, identity_map, is_vto
from psbck.operators import enumerate_vto


def _members(A, fam):
    return {frozenset(A.name(x) for x in d.members) for d in fam}


def test_ds_four_element(four_elt):
    A = four_elt
    assert _members(A, enumerate_ds(A)) == {
        frozenset({"1"}),
        frozenset({"1", "b"}),
        frozenset({"1", "a", "b", "c"}),
    }


def test_ds_v_families_four_element(four_elt):
    A = four_elt
    v1, v2, v3, v4 = enumerate_vto(A)
    trivial = {frozenset({"1"}), frozenset({"1", "a", "b", "c"})}
    everything = _members(A, enumerate_ds(A))
    assert _members(A, enumerate_ds_v(v1)) == trivial
    assert _members(A, enumerate_ds_v(v4)) == trivial
    assert _members(A, enumerate_ds_v(v2)) == everything
    assert _members(A, enumerate_ds_v(v3)) == everything


def test_normality_flags(four_elt, six_sm):
    flags = {d.names(): d.normal for d in enumerate_ds(four_elt)}
    assert flags[("1", "b")] is False
    assert flags[("1",)] is True
    flags = {d.names(): d.normal for d in enumerate_ds(six_sm)}
    assert flags == {
        ("1",): True,
        ("c", "d", "1"): False,
        ("a", "b", "c", "d", "1"): True,
        ("0", "a", "b", "c", "d", "1"): True,
    }


def test_ds_ordering_is_by_cardinality_then_bitset(six_sm):
    fam = enumerate_ds(six_sm)
    keys = [(len(d.members), sum(1 << x for x in d.members)) for d in fam]
    assert keys == sorted(keys)


def test_from_members_rejects_non_closed(four_elt):
    with pytest.raises(MalformedInput):
        DeductiveSystem.from_members(four_elt, {four_elt.one, four_elt.index("c")})
    with pytest.raises(MalformedInput):
        DeductiveSystem.from_members(four_elt, {four_elt.index("b")})


def test_quotient_by_the_dense_system(six_sm):
    A = six_sm
    H = DeductiveSystem.from_members(A, A.dense_elements())
    quot = congruence_from(A, H)
    q = quot.algebra
    assert q.n == 2
    assert q.element_names == ("[0]", "[a]")
    assert quot.class_of[A.index("0")] != quot.class_of[A.one]
    # the projection is a homomorphism onto a certified two-chain
    for x in A.elements:
        for y in A.elements:
            assert quot.class_of[A.arrow[x][y]] == q.arrow[quot.class_of[x]][quot.class_of[y]]


def test_induce_rejects_a_map_that_differs_inside_a_class(six_sm):
    A = six_sm
    quot = congruence_from(A, DeductiveSystem.from_members(A, A.dense_elements()))
    assert quot.induce(quot.class_of) == tuple(quot.algebra.elements)
    # the class of a is {a, b, c, d, 1}, and the identity splits it at b
    with pytest.raises(WellDefinednessFailure, match="inside class of b$"):
        quot.induce(list(A.elements))


def test_congruence_from_rejects_a_forged_normal_system(four_elt, six_elt, six_sm):
    # a system that is not normal, forged as normal, relates elements whose
    # implications fall in different classes: inducing the tables fails
    forged = [
        (A, DeductiveSystem(A, d.members, True))
        for A in (four_elt, six_elt, six_sm)
        for d in enumerate_ds(A)
        if not d.normal
    ]
    assert len(forged) == 4
    for A, H in forged:
        for _ in range(2):  # a failed check is not kept, so it fails again
            with pytest.raises(WellDefinednessFailure, match="map disagrees inside class of"):
                congruence_from(A, H)
        assert not H.memo


def test_a_kept_quotient_matches_a_fresh_one(pool):
    # congruence_from keeps A/H in H.memo; a later call, also on an equal
    # algebra built apart, matches a build on a system with an empty memo
    for A in pool:
        twin = validate(A.element_names, A.one, A.arrow, A.squig, zero=A.zero)
        for H in enumerate_ds_n(A):
            built = congruence_from(A, H).algebra
            for B in (A, twin):
                kept = congruence_from(B, H)
                assert kept.algebra is built and kept.parent is B and kept.by is H
                fresh = congruence_from(B, DeductiveSystem(B, H.members, True))
                for f in fields(QuotientAlgebra):
                    assert getattr(kept, f.name) == getattr(fresh, f.name), f.name


def test_a_system_and_its_kept_quotient_are_freed_without_the_cycle_collector(pool):
    # the kept quotient holds no reference back to its system or algebra,
    # so both go as soon as the system is dropped
    gc.disable()
    try:
        for A in pool:
            systems = enumerate_ds_n(A)
            refs = []
            for H in systems:
                refs += [weakref.ref(H), weakref.ref(congruence_from(A, H).algebra)]
            del systems, H
            assert all(ref() is None for ref in refs), A.element_names
    finally:
        gc.enable()


def test_quotient_requires_normal(four_elt):
    H = DeductiveSystem.from_members(
        four_elt, {four_elt.one, four_elt.index("b")}
    )
    assert not H.normal
    with pytest.raises(NotNormal):
        congruence_from(four_elt, H)


def test_enumerate_congruences_counts(four_elt, six_sm):
    assert len(enumerate_congruences(four_elt)) == 2
    assert len(enumerate_congruences(six_sm)) == 3


def test_lift_vto_to_quotient(six_sm):
    A = six_sm
    H = DeductiveSystem.from_members(A, A.dense_elements())
    stable = [v for v in enumerate_vto(A) if v.preserves(_mask(H.members))]
    assert stable, "at least the identity is stable"
    for v in stable:
        quot, lifted = lift_vto_to_quotient(v, H)
        assert is_vto(lifted) is None
    unstable = [v for v in enumerate_vto(A) if not v.preserves(_mask(H.members))]
    for v in unstable:
        with pytest.raises(NotVds):
            lift_vto_to_quotient(v, H)


def test_a_kept_lift_answers_before_the_stability_test(six_sm, monkeypatch):
    # a lift is kept only after H passed the stability test for the same
    # operator and members, so a second lift tests nothing again; an
    # unstable H keeps nothing and raises on every call
    A = six_sm
    H = DeductiveSystem.from_members(A, A.dense_elements())
    mask, vto = _mask(H.members), enumerate_vto(A)
    stable = [UnaryMap(A, v.image) for v in vto if v.preserves(mask)]
    unstable = [UnaryMap(A, v.image) for v in vto if not v.preserves(mask)]
    assert stable and unstable
    asked, real = [], UnaryMap.preserves
    monkeypatch.setattr(UnaryMap, "preserves", lambda f, m: asked.append(m) or real(f, m))
    for v in stable:
        first = lift_vto_to_quotient(v, H)
        assert asked == [mask]
        assert lift_vto_to_quotient(v, H) == first
        assert asked == [mask]
        asked.clear()
    for v in unstable:
        for _ in range(2):
            with pytest.raises(NotVds):
                lift_vto_to_quotient(v, H)
        assert asked == [mask, mask]
        asked.clear()


def test_deductive_systems_must_live_on_their_algebra(six_elt, six_sm):
    # six_elt and six_sm have the same size, so H's member ids are valid
    # ids of six_elt too; reading them there is still a different system
    v = identity_map(six_elt)
    for H in enumerate_ds_n(six_sm):
        with pytest.raises(ParentMismatch):
            congruence_from(six_elt, H)
        with pytest.raises(ParentMismatch):
            lift_vto_to_quotient(v, H)
        assert not v.memo.get(("lift", H.members))
    # an equal algebra built separately counts as the same
    twin = goldens.six_element_involutive()
    for H in enumerate_ds_n(twin):
        assert congruence_from(six_elt, H).by is H
        assert lift_vto_to_quotient(v, H)[0].by is H


def test_congruence_compatibility(four_elt, six_elt, six_sm):
    for A in (four_elt, six_elt, six_sm):
        for v in enumerate_vto(A):
            assert vto_congruence_check(v)


def test_unstable_system_breaks_compatibility_on_a_chain():
    # the congruence from the nontrivial normal system on the 3-chain
    # relates the two middle elements but globalization separates them;
    # that system is not operator-stable, so the compatibility theorem
    # does not quantify over it
    A = goedel_chain(3)
    v = globalization(A)
    H = next(
        d for d in enumerate_ds_n(A) if len(d.members) == 2
    )
    assert not v.preserves(_mask(H.members))
    assert H not in enumerate_ds_nv(v)
    mid, top = 1, 2
    assert A.arrow[top][mid] in H.members and A.arrow[mid][top] in H.members
    assert A.arrow[v.image[top]][v.image[mid]] not in H.members


def test_subset_cap(monkeypatch):
    A = goedel_chain(5)
    enumerate_ds(A)  # the masks kept in A.memo do not lift the cap
    monkeypatch.setenv("PSBCK_MAX_N", "3")
    with pytest.raises(CarrierTooLarge):
        enumerate_ds(A)


def test_enumerate_ds_matches_power_set(pool):
    # the definition, stated here rather than read off the closure engine:
    # 1 is in D, and y is in D whenever x is and x->y or x~>y is; D is
    # normal iff x->y and x~>y lie in D together
    def is_ds(A, D):
        return A.one in D and all(
            y in D for x in D for y in A.elements
            if A.arrow[x][y] in D or A.squig[x][y] in D
        )

    def is_normal(A, D):
        return all(
            (A.arrow[x][y] in D) == (A.squig[x][y] in D)
            for x, y in product(A.elements, repeat=2)
        )

    distinct = {(A.one, A.zero, A.arrow, A.squig): A for A in pool if A.n <= 6}
    for A in distinct.values():
        # every subset, smallest first and by bitset within a size, which
        # is the documented enumeration order
        subsets = [
            frozenset(s) for k in range(A.n + 1)
            for s in sorted(combinations(A.elements, k), key=lambda s: sum(1 << x for x in s))
        ]
        brute = [(D, is_normal(A, D)) for D in subsets if is_ds(A, D)]
        assert [(d.members, d.normal) for d in enumerate_ds(A)] == brute, A.element_names
        for D in subsets:
            try:
                DeductiveSystem.from_members(A, D)
            except MalformedInput:
                assert not is_ds(A, D)
            else:
                assert is_ds(A, D)


# -- brute-force congruence oracle on every distinct pool algebra with n <= 6 -


def _partitions(n):
    """Every partition of range(n) as a class-id vector, class ids in
    least-representative order."""
    def grow(prefix, k):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(k + 1):
            yield from grow(prefix + [c], max(k, c + 1))

    return grow([], 0)


def _relative_congruences(A):
    """(class_of, arrow, squig) of each partition compatible with both
    implications whose quotient tables certify as a pseudo-BCK algebra."""
    found = []
    for class_of in _partitions(A.n):
        k = max(class_of) + 1
        tabs = {}
        for x, y in product(A.elements, repeat=2):
            key = class_of[x], class_of[y]
            val = class_of[A.arrow[x][y]], class_of[A.squig[x][y]]
            if tabs.setdefault(key, val) != val:
                break
        else:
            arrow = tuple(tuple(tabs[i, j][0] for j in range(k)) for i in range(k))
            squig = tuple(tuple(tabs[i, j][1] for j in range(k)) for i in range(k))
            names = tuple(f"c{i}" for i in range(k))
            if not diagnose(names, class_of[A.one], arrow, squig):
                found.append((class_of, arrow, squig))
    return sorted(found)


def test_enumerate_congruences_matches_partition_scan(pool):
    distinct = {(A.one, A.zero, A.arrow, A.squig): A for A in pool if A.n <= 6}
    for A in distinct.values():
        quots = enumerate_congruences(A)
        got = sorted((q.class_of, q.algebra.arrow, q.algebra.squig) for q in quots)
        assert got == _relative_congruences(A), A.element_names
        # the class of 0 is the quotient's 0
        for q in quots:
            assert q.algebra.zero == (q.class_of[A.zero] if A.bounded else None)
