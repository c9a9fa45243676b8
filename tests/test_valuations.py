from fractions import Fraction

import pytest

from psbck.errors import MalformedInput
from psbck.operators import UnaryMap
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
