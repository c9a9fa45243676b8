"""Seeded generation of certified algebras for the property suites.

Random tables essentially never satisfy the axioms, so instances are drawn
from certified constructions: Goedel and Lukasiewicz chains, direct
products, the relative-pseudo-complement algebra of a five-element
distributive lattice, the three worked noncommutative algebras, and random
quotients and relabelings of all of these.  Quotients are certified by theorem
(:func:`psbck.deduction.congruence_from`), everything else by
:func:`psbck.algebra.validate`, so nothing uncertified can leak into a suite.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product

from .algebra import FiniteAlgebra, validate
from .deduction import congruence_from, enumerate_ds_n
from . import goldens


def goedel_chain(k: int) -> FiniteAlgebra:
    """k-element chain with x -> y = 1 if x <= y else y."""
    names = tuple(f"g{i}" for i in range(k))
    top = k - 1
    table = tuple(
        tuple(top if x <= y else y for y in range(k)) for x in range(k)
    )
    return validate(names, top, table, table, zero=0)


def lukasiewicz_chain(k: int) -> FiniteAlgebra:
    """k-element chain with x -> y = min(top, top - x + y)."""
    names = tuple(f"l{i}" for i in range(k))
    top = k - 1
    table = tuple(
        tuple(min(top, top - x + y) for y in range(k)) for x in range(k)
    )
    return validate(names, top, table, table, zero=0)


def direct_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    pairs = list(product(A.elements, B.elements))
    pos = {p: i for i, p in enumerate(pairs)}
    names = tuple(f"{A.name(x)}.{B.name(y)}" for x, y in pairs)
    arrow = tuple(
        tuple(pos[(A.arrow[x1][x2], B.arrow[y1][y2])] for x2, y2 in pairs)
        for x1, y1 in pairs
    )
    squig = tuple(
        tuple(pos[(A.squig[x1][x2], B.squig[y1][y2])] for x2, y2 in pairs)
        for x1, y1 in pairs
    )
    zero = None
    if A.zero is not None and B.zero is not None:
        zero = pos[(A.zero, B.zero)]
    return validate(names, pos[(A.one, B.one)], arrow, squig, zero=zero)


def nonlinear_heyting() -> FiniteAlgebra:
    """Five elements 0 < a,b < c < 1 (a,b incomparable): not prelinear.

    The relative-pseudo-complement algebra of that lattice, x -> y the
    greatest z with z meet x <= y; both implications agree.
    """
    table = (
        (4, 4, 4, 4, 4),
        (2, 4, 2, 4, 4),
        (1, 1, 4, 4, 4),
        (0, 1, 2, 4, 4),
        (0, 1, 2, 3, 4),
    )
    return validate(("0", "a", "b", "c", "1"), 4, table, table, zero=0)


def relabel(A: FiniteAlgebra, perm: list[int], prefix: str) -> FiniteAlgebra:
    """Isomorphic copy with element id i moved to perm[i]."""
    n = A.n
    names = [""] * n
    for i in range(n):
        names[perm[i]] = f"{prefix}{A.name(i)}"
    arrow = [[0] * n for _ in range(n)]
    squig = [[0] * n for _ in range(n)]
    for x, y in product(range(n), repeat=2):
        arrow[perm[x]][perm[y]] = perm[A.arrow[x][y]]
        squig[perm[x]][perm[y]] = perm[A.squig[x][y]]
    zero = perm[A.zero] if A.zero is not None else None
    return validate(
        tuple(names),
        perm[A.one],
        tuple(tuple(r) for r in arrow),
        tuple(tuple(r) for r in squig),
        zero=zero,
    )


# (carrier size, constructor) of each seed algebra, in pool order.  Every
# call and every draw builds its algebras afresh, so no memo carries over
# from one caller to the next.
_SEEDS = (
    (1, goldens.one_element),
    (2, goldens.two_chain),
    (4, goldens.four_element_bounded),
    (6, goldens.six_element_involutive),
    (6, goldens.six_element_smarandache),
    *((k, partial(goedel_chain, k)) for k in (3, 4, 5, 6)),
    *((k, partial(lukasiewicz_chain, k)) for k in (3, 4, 5, 6)),
    (6, lambda: direct_product(goedel_chain(2), goedel_chain(3))),
    (6, lambda: direct_product(goedel_chain(2), lukasiewicz_chain(3))),
    (6, lambda: direct_product(lukasiewicz_chain(2), lukasiewicz_chain(3))),
    (4, lambda: direct_product(goedel_chain(2), goedel_chain(2))),
    (5, nonlinear_heyting),
)


def _seed_pool() -> list[FiniteAlgebra]:
    """The 18 seed algebras, built afresh on every call."""
    return [build() for _, build in _SEEDS]


def random_algebra(rng: random.Random, max_size: int) -> FiniteAlgebra:
    """One certified algebra, size <= max_size, from a random recipe."""
    base = rng.choice([build for n, build in _SEEDS if n <= max_size])()
    move = rng.random()
    if move < 0.25 and base.n > 1:
        # quotient by a random normal deductive system
        quots = enumerate_ds_n(base)
        H = rng.choice(quots)
        base = congruence_from(base, H).algebra
    if base.n > 1 and rng.random() < 0.7:
        perm = list(range(base.n))
        rng.shuffle(perm)
        base = relabel(base, perm, prefix=f"p{rng.randrange(1000)}_")
    return base


def random_batch(seed: int, count: int, max_size: int) -> list[FiniteAlgebra]:
    rng = random.Random(seed)
    return [random_algebra(rng, max_size) for _ in range(count)]
