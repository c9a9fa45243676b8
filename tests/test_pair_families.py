"""The operator-pair families of ``run_suite`` against a reference built from
checked maps.

``run_suite`` forms each composite f o g as an image vector and tests it with
the law code of ``is_interior``/``is_vto`` (``_interior_witness``,
``_vto_witness``); it reads each fix set or image set once per operator and
the order and the negations off the tables.  The reference below states the
same six families with ``compose``, ``is_interior``, ``is_vto``,
``fix_points``, ``image_set``, ``A.leq`` and ``A.neg_minus``/``A.neg_sim``
on checked ``UnaryMap`` values, and must give the same verdicts and details.
"""

import random
from itertools import combinations, combinations_with_replacement, product
from types import SimpleNamespace

import pytest

from conftest import golden_up_sets
from psbck import goldens, suite
from psbck.generate import (
    _seed_pool,
    direct_product,
    goedel_chain,
    lukasiewicz_chain,
    random_batch,
)
from psbck.operators import (
    UnaryMap,
    _interior_witness,
    _vto_witness,
    _witness,
    compose,
    enumerate_interior,
    enumerate_vto,
    fix_points,
    image_set,
    is_interior,
    is_vto,
)
from psbck.suite import _all, _all_pairs, run_suite

FAMILIES = (
    "interior-absorption",
    "interior-commutation",
    "interior-fix-injective",
    "vto-image-injective",
    "vto-composition-commutation",
    "interior-negation-arithmetic",
)


def _reference_negation(A, f):
    """(ok, detail) of the negation arithmetic of f on the bounded A."""
    nm, ns, leq = A.neg_minus, A.neg_sim, A.leq
    im = f.image
    for x, y in product(A.elements, repeat=2):
        if not leq(A.arrow[x][im[y]], A.arrow[im[x]][y]):
            return False, "exchange-arrow"
        if not leq(A.squig[x][im[y]], A.squig[im[x]][y]):
            return False, "exchange-squig"
        if not leq(im[A.arrow[x][y]], A.arrow[im[x]][y]):
            return False, "apply-arrow"
        if not leq(im[A.squig[x][y]], A.squig[im[x]][y]):
            return False, "apply-squig"
        if not leq(im[A.arrow[x][y]], A.squig[nm(y)][nm(x)]):
            return False, "contraposition-arrow"
        if not leq(im[A.squig[x][y]], A.arrow[ns(y)][ns(x)]):
            return False, "contraposition-squig"
    for x in A.elements:
        if not leq(im[nm(x)], nm(im[x])) or not leq(im[ns(x)], ns(im[x])):
            return False, "neg-shrink"
        if not leq(x, ns(im[nm(x)])) or not leq(x, nm(im[ns(x)])):
            return False, "neg-expand"
    return im[A.zero] == A.zero, "fixes 0"


def _reference_absorption(A, into):
    """(ok, detail) of ``interior-absorption`` over the maps ``into``: the
    product order by ``A.leq`` against absorption by ``compose``."""
    return _all_pairs(
        product(into, repeat=2),
        lambda f, g: all(A.leq(a, b) for a, b in zip(f.image, g.image))
        == (compose(f, g).image == f.image),
    )


def _reference_families(A):
    """(name, ok, detail) of the six families, in ``run_suite`` order."""
    into, vto = enumerate_interior(A), enumerate_vto(A)
    out = [("interior-absorption", *_reference_absorption(A, into))]

    def three_way(f, g):
        fg, gf = compose(f, g), compose(g, f)
        a = fg.image == gf.image
        b = is_interior(fg) is None and is_interior(gf) is None
        c = compose(fg, fg).image == fg.image and compose(gf, gf).image == gf.image
        return a == b == c

    out.append(
        ("interior-commutation", *_all_pairs(combinations_with_replacement(into, 2), three_way))
    )
    out.append(
        (
            "interior-fix-injective",
            *_all_pairs(
                combinations(into, 2),
                lambda f, g: fix_points(f) != fix_points(g) or f.image == g.image,
            ),
        )
    )
    out.append(
        (
            "vto-image-injective",
            *_all_pairs(
                combinations(vto, 2),
                lambda f, g: image_set(f) != image_set(g) or f.image == g.image,
            ),
        )
    )

    def vto_commutation(f, g):
        fg, gf = compose(f, g), compose(g, f)
        both = is_vto(fg) is None and is_vto(gf) is None
        return both == (fg.image == gf.image)

    out.append(
        (
            "vto-composition-commutation",
            *_all_pairs(combinations_with_replacement(vto, 2), vto_commutation),
        )
    )
    if A.bounded:
        out.append(
            ("interior-negation-arithmetic", *_all(_reference_negation(A, f) for f in into))
        )
    return out


def _interior_axioms(f):
    """IO1-IO3 in the order of ``is_interior``, stated with ``A.leq``."""
    A, im = f.parent, f.image
    for x in A.elements:
        if not A.leq(im[x], x):
            return _witness(A, "IO1", (x,))
    for x, y in product(A.elements, repeat=2):
        if A.leq(x, y) and not A.leq(im[x], im[y]):
            return _witness(A, "IO2", (x, y))
    for x in A.elements:
        if im[im[x]] != im[x]:
            return _witness(A, "IO3", (x,))
    return None


def _vto_axioms(f):
    """VT1-VT4 in the order of ``is_vto``, stated with ``A.leq``."""
    A, im = f.parent, f.image
    ar, sq, leq = A.arrow, A.squig, A.leq
    if im[A.one] != A.one:
        return _witness(A, "VT1", (A.one,))
    for x in A.elements:
        if not leq(im[x], x):
            return _witness(A, "VT2", (x,))
    for x in A.elements:
        if not leq(im[x], im[im[x]]):
            return _witness(A, "VT3", (x,))
    for x, y in product(A.elements, repeat=2):
        if not leq(im[ar[x][y]], ar[im[x]][im[y]]):
            return _witness(A, "VT4", (x, y))
        if not leq(im[sq[x][y]], sq[im[x]][im[y]]):
            return _witness(A, "VT4", (x, y))
    return None


@pytest.fixture(scope="module")
def suites(random_batch_suites):
    """(algebra, run_suite results) over the pool, the golden up-sets, four
    8-10 element carriers and ``random_batch(7, 40, 6)``."""
    large = [
        goedel_chain(8),
        lukasiewicz_chain(8),
        direct_product(goedel_chain(2), lukasiewicz_chain(4)),
        direct_product(goedel_chain(2), lukasiewicz_chain(5)),
    ]
    rest = list(_seed_pool()) + list(golden_up_sets()) + large + random_batch(7, 40, 6)
    return random_batch_suites + [(A, run_suite(A)) for A in rest]


def test_pair_families_match_the_reference(suites):
    assert len(suites) == 172
    failed = set()
    for A, results in suites:
        got = [(r.name, r.ok, r.detail) for r in results if r.name in FAMILIES]
        assert got == _reference_families(A), A.element_names
        failed |= {name for name, ok, _ in got if not ok}
    assert failed == set()  # every family holds, so each law ran on every pair


def test_cores_give_the_witness_of_the_checked_composite(suites):
    seen = set()
    for A, _ in suites:
        into = enumerate_interior(A)
        # each distinct composite once: many pairs share one
        composites = {tuple([f.image[v] for v in g.image]) for f, g in product(into, repeat=2)}
        assert composites == {compose(f, g).image for f, g in product(into, repeat=2)}
        for im in composites:
            fg = UnaryMap(A, im)
            w = _interior_witness(A, im)
            assert w == is_interior(fg) == _interior_axioms(fg), (fg.names(), w)
            u = _vto_witness(A, im)
            assert u == is_vto(fg) == _vto_axioms(fg), (fg.names(), u)
            seen.add(w and w.axiom)
            seen.add(u and u.axiom)
    assert {None, "IO3", "VT1", "VT4"} <= seen


def test_pointwise_order_reads_the_arrow_table(suites):
    # the pointwise order over the image vectors, as the references read it
    for A, _ in suites:
        ar, one = A.arrow, A.one
        for f, g in product(enumerate_interior(A), repeat=2):
            pairs = list(zip(f.image, g.image))
            assert all(A.leq(a, b) for a, b in pairs) == all(ar[a][b] == one for a, b in pairs)


# Every law holds on every interior operator, so a dropped or reordered line
# of the negation family changes no verdict on the pool.  A map that is no
# interior operator, planted as the only one, fails the first law it breaks.
PLANTED_NEGATION = [
    (goldens.four_element_bounded, ("1", "1", "1", "1"), "exchange-arrow"),
    (goldens.four_element_bounded, ("c", "b", "1", "1"), "exchange-squig"),
    (goldens.six_element_smarandache, ("0", "0", "0", "0", "a", "1"), "apply-arrow"),
    (goldens.six_element_smarandache, ("0", "0", "b", "1", "0", "0"), "apply-squig"),
    (goldens.four_element_bounded, ("a", "1", "1", "1"), "contraposition-arrow"),
    (goldens.four_element_bounded, ("a", "a", "1", "1"), "contraposition-squig"),
]


@pytest.mark.parametrize(
    "algebra, names, detail", PLANTED_NEGATION, ids=[d for _, _, d in PLANTED_NEGATION]
)
def test_planted_map_fails_the_first_negation_law_it_breaks(monkeypatch, algebra, names, detail):
    A = algebra()
    planted = UnaryMap(A, tuple(A.index(s) for s in names))
    assert _reference_negation(A, planted) == (False, detail)
    monkeypatch.setattr(suite, "enumerate_interior", lambda B: [planted])
    got = {r.name: (r.ok, r.detail) for r in run_suite(A)}
    assert got["interior-negation-arithmetic"] == (False, detail)


@pytest.mark.parametrize("position", ["first", "last"])
def test_planted_map_gives_the_reference_absorption_verdict(monkeypatch, position):
    """A map that is no interior operator, planted among the interior
    operators, gives ``interior-absorption`` the (ok, detail) of the
    reference, a failure on some algebras."""
    rng = random.Random(2026)
    real = suite.enumerate_interior
    failed = 0
    for A in [A for A in _seed_pool() if A.n > 1][:6]:
        while True:
            planted = UnaryMap(A, tuple(rng.randrange(A.n) for _ in A.elements))
            if is_interior(planted) is not None:
                break
        into = real(A)
        into = [planted, *into] if position == "first" else [*into, planted]
        monkeypatch.setattr(suite, "enumerate_interior", lambda B, into=into: list(into))
        got = {r.name: (r.ok, r.detail) for r in run_suite(A)}
        assert got["interior-absorption"] == _reference_absorption(A, into), A.element_names
        failed += not got["interior-absorption"][0]
    assert failed


def test_packed_absorption_matches_the_pointwise_order_on_any_maps():
    """On maps that need not be interior, the packed family gives the
    (ok, detail) of the pointwise order and the composite, for lists of
    every two of some random maps and for the interior operators with
    the random maps among them."""

    def absorbs(f, g):
        below = all(f.parent.leq(a, b) for a, b in zip(f.image, g.image))
        return below == (compose(f, g).image == f.image)

    rng = random.Random(7)
    outcomes = set()
    for A in list(_seed_pool()) + random_batch(seed=2026, count=100, max_size=6):
        maps = [UnaryMap(A, tuple(rng.randrange(A.n) for _ in A.elements)) for _ in range(6)]
        mixed = enumerate_interior(A) + maps
        rng.shuffle(mixed)
        for into in [mixed, *([f, g] for f, g in product(maps, repeat=2))]:
            got = suite._interior_absorption(SimpleNamespace(A=A, into=into))
            assert got == _all_pairs(product(into, repeat=2), absorbs), A.element_names
            outcomes.add(got[0])
    assert outcomes == {True, False}
