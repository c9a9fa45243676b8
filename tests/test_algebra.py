import functools
from functools import partial
from itertools import product

import pytest

from psbck import goldens
from psbck.algebra import (
    FiniteAlgebra,
    derived_law_suite,
    diagnose,
    size_cap,
    validate,
)
from psbck.classes import smarandache_search, svto
from psbck.deduction import (
    _adjoin,
    _implication_pairs,
    enumerate_congruences,
    enumerate_ds,
    enumerate_ds_v,
)
from psbck.errors import (
    MalformedInput,
    NotCertified,
    UnboundedAlgebra,
    WorkbenchError,
)
from psbck.generate import goedel_chain
from psbck.morphisms import enumerate_hom, enumerate_vthom
from psbck.operators import (
    UnaryMap,
    certify_vto,
    enumerate_interior,
    enumerate_vto,
    identity_map,
)


def test_goldens_certify(four_elt, six_elt, six_sm):
    assert four_elt.n == 4 and six_elt.n == 6 and six_sm.n == 6


def test_every_single_entry_corruption_is_caught(four_elt):
    A = four_elt
    for tab_name in ("arrow", "squig"):
        base = getattr(A, tab_name)
        for i, j, v in product(range(4), range(4), range(4)):
            if v == base[i][j]:
                continue
            rows = [list(r) for r in base]
            rows[i][j] = v
            t = tuple(tuple(r) for r in rows)
            arrow = t if tab_name == "arrow" else A.arrow
            squig = A.squig if tab_name == "arrow" else t
            assert diagnose(A.element_names, A.one, arrow, squig, A.zero), (
                tab_name,
                i,
                j,
                v,
            )


def test_structural_errors_precede_axioms():
    with pytest.raises(MalformedInput):
        diagnose((), 0, (), ())
    with pytest.raises(MalformedInput):
        diagnose(("1", "1"), 0, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(MalformedInput):
        diagnose(("1", "a"), 0, ((0,), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(MalformedInput):
        diagnose(("1", "a"), 5, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(MalformedInput):
        diagnose(("1", "a b"), 0, ((0, 0), (0, 0)), ((0, 0), (0, 0)))


def test_diagnose_reports_each_axiom_with_least_witness():
    # a -> a = a breaks reflexivity on element a (id 1)
    diags = diagnose(
        ("1", "a"), 0, ((0, 1), (0, 1)), ((0, 1), (0, 0))
    )
    axioms = {d.axiom for d in diags}
    assert "psBCK3" in axioms
    d3 = next(d for d in diags if d.axiom == "psBCK3")
    assert d3.elements == ("a",)


def test_validate_raises_with_diagnostics():
    with pytest.raises(NotCertified) as err:
        validate(("1", "a"), 0, ((0, 1), (0, 1)), ((0, 1), (0, 0)))
    assert err.value.diagnostics


def test_order_is_a_chain_on_the_four_element_algebra(four_elt):
    A = four_elt
    a, b, c = A.index("a"), A.index("b"), A.index("c")
    one = A.one
    assert A.is_linear()
    assert A.leq(a, c) and A.leq(c, b) and A.leq(b, one)
    assert not A.leq(b, c)
    assert A.down_set(c) == (a, c) or set(A.down_set(c)) == {a, c}
    assert set(A.up_set(c)) == {one, b, c}


def test_negation_properties(four_elt, six_elt, six_sm):
    assert not four_elt.is_good()
    assert six_elt.is_good() and six_elt.is_involutive() and six_elt.is_glivenko()
    assert six_sm.is_good() and six_sm.is_glivenko() and not six_sm.is_involutive()
    assert sorted(six_elt.name(x) for x in six_elt.dense_elements()) == ["1"]
    assert sorted(six_sm.name(x) for x in six_sm.regular_elements()) == ["0", "1"]
    assert sorted(six_sm.name(x) for x in six_sm.dense_elements()) == [
        "1",
        "a",
        "b",
        "c",
        "d",
    ]


def test_unbounded_negations_raise():
    A = validate(("1",), 0, ((0,),), ((0,),))
    with pytest.raises(UnboundedAlgebra):
        A.neg_minus(0)


def test_derived_laws_hold_on_goldens(four_elt, six_elt, six_sm):
    for A in (four_elt, six_elt, six_sm):
        assert derived_law_suite(A) is None


def test_subalgebra_requires_closure(six_sm):
    q = {six_sm.index(n) for n in ("0", "c", "d", "1")}
    sub = six_sm.subalgebra(q)
    assert sub.element_names == ("0", "c", "d", "1")
    assert sub.is_linear()
    with pytest.raises(MalformedInput):
        six_sm.subalgebra({six_sm.one, six_sm.index("a"), six_sm.index("d")})
    with pytest.raises(MalformedInput):
        six_sm.subalgebra({six_sm.index("a")})


def test_unclosed_pair_matches_the_closure(small_pool):
    # a subset is closed iff closing it adds nothing, and the pair named
    # is the first one, in id order, that leads out of it
    for A in small_pool:
        for mask in range(1 << A.n):
            members = frozenset(x for x in A.elements if mask >> x & 1)
            escapes = [
                (x, y) for x, y in product(sorted(members), repeat=2)
                if {A.arrow[x][y], A.squig[x][y]} - members
            ]
            closed = _adjoin(A, _implication_pairs(A), 0, mask) == mask
            assert closed == (not escapes)
            assert A.unclosed_pair(members) == (escapes[0] if escapes else None)


def test_carrier_cap_enforced(monkeypatch):
    monkeypatch.setenv("PSBCK_MAX_N", "4")
    with pytest.raises(MalformedInput):
        validate(tuple(f"x{i}" for i in range(5)), 0, (), ())


def _ds_v_of_a_warmed_operator(A):
    v = identity_map(A)
    enumerate_ds_v(v)  # fills v's memo before the cap is overridden
    return partial(enumerate_ds_v, v)


def _vthom_of_a_certified_operator(A):
    v = certify_vto(identity_map(A))  # certified before the cap is overridden
    return partial(enumerate_vthom, A, v, A, v)


def _svto_on_a_copy_inside_a_longer_chain(A):
    """svto on a substructure Q of A's size inside a chain one element
    longer (Q leaves out its second element); None when A has fewer than
    the 3 elements a substructure needs.  svto certifies Q as an algebra
    before it enumerates, so a cap below |Q| stops it at the carrier cap."""
    if A.n < 3:
        return None
    host = goedel_chain(A.n + 1)
    return partial(svto, host, set(host.elements) - {1})


# (search, its default cap); each entry is prepared on an algebra before
# PSBCK_MAX_N is set, and the override applies to every one of them.  The
# cap applies to the carrier the search runs on, which is A's size.
CAPPED_SEARCHES = {
    "validate": (
        lambda A: partial(validate, A.element_names, A.one, A.arrow, A.squig, A.zero),
        24,
    ),
    "enumerate_interior": (lambda A: partial(enumerate_interior, A), 10),
    "enumerate_vto": (lambda A: partial(enumerate_vto, A), 10),
    "enumerate_congruences": (lambda A: partial(enumerate_congruences, A), 20),
    "enumerate_vthom": (_vthom_of_a_certified_operator, 8),
    "svto": (_svto_on_a_copy_inside_a_longer_chain, 10),
    "enumerate_ds": (lambda A: partial(enumerate_ds, A), 20),
    "enumerate_ds_v": (_ds_v_of_a_warmed_operator, 20),
    "smarandache_search": (lambda A: partial(smarandache_search, A), 16),
    "enumerate_hom": (lambda A: partial(enumerate_hom, A, A), 8),
}


@pytest.mark.parametrize("raw", [None, "3", "junk", "0"])
@pytest.mark.parametrize("search", sorted(CAPPED_SEARCHES))
def test_psbck_max_n_overrides_every_cap(monkeypatch, search, raw):
    prepare, default = CAPPED_SEARCHES[search]
    runs = [(k, prepare(goedel_chain(k))) for k in (1, 3, 4)]  # before the override
    runs = [(n, run) for n, run in runs if run is not None]
    assert len(runs) >= 2
    if raw is None:
        monkeypatch.delenv("PSBCK_MAX_N", raising=False)
    else:
        monkeypatch.setenv("PSBCK_MAX_N", raw)
    cap = {None: default, "3": 3, "junk": default, "0": 1}[raw]
    assert size_cap(default) == cap
    for n, run in runs:
        if n > cap:
            with pytest.raises(WorkbenchError, match="exceeds"):
                run()
        else:
            run()


def test_frozen_and_hashable(four_elt):
    assert four_elt == goldens.four_element_bounded()
    assert hash(four_elt.arrow) is not None
    assert isinstance(four_elt, FiniteAlgebra)


@pytest.mark.parametrize("cls", [FiniteAlgebra, UnaryMap], ids=lambda c: c.__name__)
def test_finite_algebra_defines_no_cached_property(cls):
    # a cached_property materialises the instance __dict__, which slows
    # every later attribute lookup on that instance
    assert not any(
        isinstance(attr, functools.cached_property)
        for attr in vars(cls).values()
    )
