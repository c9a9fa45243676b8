"""Pseudo-valuations: exact-rational costs attached to elements.

A pseudo-valuation sends 1 to 0 and satisfies
phi(y) - phi(x) <= min(phi(x->y), phi(x~>y)); a valuation additionally
vanishes only at 1.  All arithmetic is exact (fractions.Fraction); the
defining inequality is exact, so floats would manufacture spurious
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import FiniteAlgebra
from .errors import MalformedInput
from .operators import UnaryMap, Witness, certify_vto


@dataclass(frozen=True)
class PseudoValuation:
    parent: FiniteAlgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.parent.n:
            raise MalformedInput("valuation must be total over the carrier")


def is_pseudo_valuation(A: FiniteAlgebra, values) -> Witness | None:
    values = tuple(Fraction(v) for v in values)
    if len(values) != A.n:
        raise MalformedInput("valuation must be total over the carrier")
    if values[A.one] != 0:
        return Witness("pv1", (A.name(A.one),))
    for x, y in product(A.elements, repeat=2):
        bound = min(values[A.arrow[x][y]], values[A.squig[x][y]])
        if values[y] - values[x] > bound:
            return Witness("pv2", (A.name(x), A.name(y)))
    return None


def is_valuation(A: FiniteAlgebra, values) -> Witness | None:
    values = tuple(Fraction(v) for v in values)
    w = is_pseudo_valuation(A, values)
    if w is not None:
        return w
    for x in A.elements:
        if x != A.one and values[x] == 0:
            return Witness("pv3", (A.name(x),))
    return None


def certify(A: FiniteAlgebra, values) -> PseudoValuation:
    values = tuple(Fraction(v) for v in values)
    w = is_pseudo_valuation(A, values)
    if w is not None:
        raise MalformedInput(f"not a pseudo-valuation: {w}")
    return PseudoValuation(A, values)


def derived_facts(phi: PseudoValuation) -> Witness | None:
    """Order-reversal and nonnegativity, which certified valuations must
    satisfy (first counterexample or None)."""
    A = phi.parent
    for x, y in product(A.elements, repeat=2):
        if A.leq(x, y) and phi.values[x] < phi.values[y]:
            return Witness("pv4", (A.name(x), A.name(y)))
    for x in A.elements:
        if phi.values[x] < 0:
            return Witness("pv5", (A.name(x),))
    return None


def compose_with_vto(phi: PseudoValuation, v: UnaryMap) -> PseudoValuation:
    """phi o v, re-certified (a theorem checker: the composite must pass)."""
    A = certify_vto(v).parent
    if phi.parent != A:
        raise MalformedInput("valuation and operator must share the algebra")
    values = tuple(phi.values[v.image[x]] for x in A.elements)
    return certify(A, values)
