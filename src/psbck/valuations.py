"""Pseudo-valuations: exact-rational costs attached to elements.

A pseudo-valuation sends 1 to 0 and satisfies
phi(y) - phi(x) <= min(phi(x->y), phi(x~>y)); a valuation additionally
vanishes only at 1.  All arithmetic is exact (fractions.Fraction); the
defining inequality is exact, so floats would manufacture spurious
witnesses.  The inequality is tested on integers: the values times their
common denominator, which keeps every comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._records import dataclass
from .algebra import FiniteAlgebra, Witness, first_witness
from .errors import MalformedInput
from .operators import UnaryMap, certify_vto


@dataclass(frozen=True)
class PseudoValuation:
    parent: FiniteAlgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.parent.n:
            raise MalformedInput("valuation must be total over the carrier")


# loops, not law rows: a kernel run on every composite valuation, with rows hoisted
def _pv_witness(A: FiniteAlgebra, values: tuple[Fraction, ...]) -> Witness | None:
    """pv1, then pv2 in (x, y) order, on the integers d * values for the
    common denominator d > 0: multiplying by d keeps every difference,
    minimum and comparison, so the first failing law and pair are those of
    the rationals."""
    if len(values) != A.n:
        raise MalformedInput("valuation must be total over the carrier")
    d = lcm(*(q.denominator for q in values))
    w = [q.numerator * (d // q.denominator) for q in values]
    if w[A.one] != 0:
        return Witness("pv1", (A.name(A.one),))
    for x in A.elements:
        arx, sqx, wx = A.arrow[x], A.squig[x], w[x]
        for y, wy in enumerate(w):
            if wy - wx > min(w[arx[y]], w[sqx[y]]):
                return Witness("pv2", (A.name(x), A.name(y)))
    return None


def is_pseudo_valuation(A: FiniteAlgebra, values) -> Witness | None:
    return _pv_witness(A, tuple(Fraction(v) for v in values))


def is_valuation(A: FiniteAlgebra, values) -> Witness | None:
    values = tuple(Fraction(v) for v in values)
    w = _pv_witness(A, values)
    if w is not None:
        return w
    for x in A.elements:
        if x != A.one and values[x] == 0:
            return Witness("pv3", (A.name(x),))
    return None


def certify(A: FiniteAlgebra, values) -> PseudoValuation:
    values = tuple(Fraction(v) for v in values)
    w = _pv_witness(A, values)
    if w is not None:
        raise MalformedInput(f"not a pseudo-valuation: {w}")
    return PseudoValuation(A, values)


def derived_facts(phi: PseudoValuation) -> Witness | None:
    """Order-reversal and nonnegativity, which certified valuations must
    satisfy (first counterexample or None)."""
    A, val = phi.parent, phi.values
    return first_witness(A, (
        ("pv4", 2, lambda x, y: not A.leq(x, y) or val[x] >= val[y]),
        ("pv5", 1, lambda x: val[x] >= 0),
    ))


def compose_with_vto(phi: PseudoValuation, v: UnaryMap) -> PseudoValuation:
    """phi o v, re-certified (a theorem checker: the composite must pass)."""
    A = certify_vto(v).parent
    if phi.parent != A:
        raise MalformedInput("valuation and operator must share the algebra")
    values = tuple(phi.values[v.image[x]] for x in A.elements)
    return certify(A, values)
