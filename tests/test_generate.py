import hashlib
from itertools import product

from psbck.algebra import derived_law_suite, diagnose
from psbck.classes import lattice_tables
from psbck.generate import (
    _SEEDS,
    _seed_pool,
    direct_product,
    goedel_chain,
    lukasiewicz_chain,
    nonlinear_heyting,
    random_batch,
    relabel,
)
from psbck.morphisms import is_isomorphic


def test_seed_pool_is_certified():
    pool = _seed_pool()
    assert len(pool) == 18
    for A in pool:
        assert diagnose(A.element_names, A.one, A.arrow, A.squig, A.zero) == []


def _tables_digest(algebras):
    return hashlib.sha256(repr([
        (A.element_names, A.one, A.arrow, A.squig, A.zero) for A in algebras
    ]).encode()).hexdigest()


def test_seed_sizes_are_the_built_sizes():
    # random_algebra filters the recipes by these sizes before it builds
    assert [A.n for A in _seed_pool()] == [n for n, _ in _SEEDS]


def test_seed_pools_share_no_object():
    first, second = _seed_pool(), _seed_pool()
    assert first == second
    assert not {id(A) for A in first} & {id(A) for A in second}
    assert all(not A.memo for A in second)


def test_random_batch_hands_out_fresh_objects():
    seeds = _seed_pool()
    batch = random_batch(2026, 100, 6)
    assert len({id(A) for A in batch}) == 100
    assert not {id(A) for A in batch} & {id(A) for A in seeds}
    assert all(not A.memo for A in batch)
    # the same tables, in the same order, as when the draws shared objects
    assert _tables_digest(seeds) == (
        "e2b0f4ce41efc31bba751f4ae3a1a84ac50731e91904afcf1b25a3e827a3d069"
    )
    assert _tables_digest(batch) == (
        "e50374dcac8fb65cb0561256a5ba5d40e4ff17ed77a1fa6677b92ca0c69f8a4e"
    )


def test_chains_are_linear():
    for k in (2, 3, 5):
        assert goedel_chain(k).is_linear()
        assert lukasiewicz_chain(k).is_linear()
    assert not nonlinear_heyting().is_linear()


def test_nonlinear_heyting_is_the_relative_pseudo_complement():
    # the lattice 0 < a,b < c < 1 with a, b incomparable, and on it
    # x -> y = x ~> y = max{z : z meet x <= y}
    A = nonlinear_heyting()
    assert [[int(A.leq(x, y)) for y in A.elements] for x in A.elements] == [
        [1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
    ]
    (mt, _), witness = lattice_tables(A)
    assert witness is None
    for x, y in product(A.elements, repeat=2):
        below = [z for z in A.elements if A.leq(mt[z][x], y)]
        greatest = [g for g in below if all(A.leq(z, g) for z in below)]
        assert greatest == [A.arrow[x][y]] == [A.squig[x][y]]


def test_product_size_and_bound():
    P = direct_product(goedel_chain(2), lukasiewicz_chain(3))
    assert P.n == 6
    assert P.bounded


def test_relabel_is_isomorphic(four_elt):
    other = relabel(four_elt, [2, 3, 0, 1], prefix="r")
    assert other != four_elt
    assert is_isomorphic(four_elt, other) is not None


def test_random_batch_is_deterministic():
    a = random_batch(seed=11, count=25, max_size=6)
    b = random_batch(seed=11, count=25, max_size=6)
    assert [(x.element_names, x.arrow, x.squig) for x in a] == [
        (x.element_names, x.arrow, x.squig) for x in b
    ]
    c = random_batch(seed=12, count=25, max_size=6)
    assert [x.element_names for x in a] != [x.element_names for x in c]


def test_random_batch_respects_size_cap():
    for A in random_batch(seed=3, count=40, max_size=5):
        assert 1 <= A.n <= 5
        assert derived_law_suite(A) is None
