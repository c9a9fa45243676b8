import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psbck.errors import MalformedInput
from psbck.operators import UnaryMap, Witness
from psbck.valuations import (
    PseudoValuation,
    certify,
    compose_with_vto,
    derived_facts,
    is_pseudo_valuation,
    is_valuation,
)


def test_golden_valuation(four_elt):
    A = four_elt
    phi = certify(A, (0, 3, 1, 2))
    assert is_valuation(A, phi.values) is None
    assert derived_facts(phi) is None


def test_golden_composition(four_elt):
    A = four_elt
    phi = certify(A, (0, 3, 1, 2))
    v = UnaryMap(A, tuple(A.index(n) for n in ("1", "a", "b", "a")))
    composed = compose_with_vto(phi, v)
    assert composed.values == (
        Fraction(0),
        Fraction(3),
        Fraction(1),
        Fraction(3),
    )


def test_composition_with_every_operator_stays_valid(four_elt):
    from psbck.operators import enumerate_vto

    phi = certify(four_elt, (0, 3, 1, 2))
    for v in enumerate_vto(four_elt):
        assert is_pseudo_valuation(four_elt, compose_with_vto(phi, v).values) is None


def test_exact_rationals(four_elt):
    phi = certify(four_elt, ("0", "1/3", "1/9", "2/9"))
    assert phi.values[1] == Fraction(1, 3)
    assert derived_facts(phi) is None


def test_pv1_witness(four_elt):
    w = is_pseudo_valuation(four_elt, (1, 3, 1, 2))
    assert w is not None and w.axiom == "pv1"


def test_pv2_witness(four_elt):
    # b <= 1 yet phi(b) > phi(1) + phi(1 -> b): order reversal violated
    w = is_pseudo_valuation(four_elt, (0, 0, 5, 0))
    assert w is not None and w.axiom == "pv2"


def test_valuation_vs_pseudo_valuation(four_elt):
    # the zero map is a pseudo-valuation but vanishes below 1
    values = (0, 0, 0, 0)
    w = is_pseudo_valuation(four_elt, values)
    assert w is None
    w = is_valuation(four_elt, values)
    assert w is not None and w.axiom == "pv3"


def test_certify_rejects(four_elt):
    with pytest.raises(MalformedInput):
        certify(four_elt, (1, 0, 0, 0))
    with pytest.raises(MalformedInput):
        certify(four_elt, (0, 0, 0))


def test_total_over_carrier(four_elt):
    with pytest.raises(MalformedInput):
        PseudoValuation(four_elt, (Fraction(0),))


# -- the integer kernel against the rationals it stands for -----------------


def _fraction_witness(A, values):
    """pv1 to pv3 tested on the rationals themselves, in the documented
    order: pv1, pv2 over (x, y) in id order, then pv3."""
    values = tuple(Fraction(v) for v in values)
    if values[A.one] != 0:
        return Witness("pv1", (A.name(A.one),)), None
    for x, y in product(A.elements, repeat=2):
        if values[y] - values[x] > min(values[A.arrow[x][y]], values[A.squig[x][y]]):
            return Witness("pv2", (A.name(x), A.name(y))), None
    zero = next((x for x in A.elements if x != A.one and values[x] == 0), None)
    return None, None if zero is None else Witness("pv3", (A.name(zero),))


# small fractions: their denominators often share a factor without one
# dividing the other, and their sums often tie
SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# any sign, zero, and denominators up to 10**12
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    SMALL,
    st.fractions(max_denominator=10**12),
)


@st.composite
def _valued_algebras(draw, pool):
    A = draw(st.sampled_from(pool))
    kind = draw(st.sampled_from(("small", "random", "unit", "ties")))
    if kind in ("small", "random"):
        values = draw(st.lists(SMALL if kind == "small" else RATIONALS, min_size=A.n, max_size=A.n))
    elif kind == "unit":
        # a positive multiple of the unit-cost valuation, perturbed at one
        # element: pseudo-valuations and near misses with large denominators
        scale = draw(st.fractions(min_value=0, max_value=10**6, max_denominator=10**12))
        values = [scale] * A.n
        values[draw(st.sampled_from(A.elements))] += draw(RATIONALS)
    else:
        # sums and differences of two rationals with unrelated denominators,
        # so that phi(y) - phi(x) meets the bound exactly
        p, q = draw(RATIONALS), draw(RATIONALS)
        atoms = (Fraction(0), p, q, p + q, p - q, q - p, -p)
        values = draw(st.lists(st.sampled_from(atoms), min_size=A.n, max_size=A.n))
    if draw(st.booleans()):
        values[A.one] = Fraction(0)
    return A, values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integer_kernel_matches_the_rationals(pool, data):
    A, values = data.draw(_valued_algebras(pool))
    pv, pv3 = _fraction_witness(A, values)
    assert is_pseudo_valuation(A, values) == pv
    assert is_valuation(A, values) == (pv or pv3)
    if pv is None:
        assert certify(A, values).values == tuple(values)
    else:
        with pytest.raises(MalformedInput, match=re.escape(f"not a pseudo-valuation: {pv}")):
            certify(A, values)
