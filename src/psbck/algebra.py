"""Finite pseudo-BCK algebras given as operation tables.

An algebra is a carrier of n named elements with two implication tables
(``arrow`` for -> and ``squig`` for ~>), a top constant ``one`` and an
optional bottom ``zero``.  The order is always derived from ``arrow``:
x <= y iff arrow[x][y] == one.  Every ``FiniteAlgebra`` satisfies the six
defining axioms (and bottomness of ``zero`` when present): :func:`validate`
certifies tables from outside a theorem, and subalgebras and quotients are
certified by the theorems whose hypotheses they check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product

from .errors import MalformedInput, NotCertified, UnboundedAlgebra

DEFAULT_MAX_CARRIER = 24


def size_cap(default: int) -> int:
    """A search's carrier cap: ``default`` unless PSBCK_MAX_N overrides it."""
    try:
        return max(1, int(os.environ["PSBCK_MAX_N"]))
    except (KeyError, ValueError):
        return default


@dataclass(frozen=True)
class Diagnostic:
    """One violated axiom with a single (lexicographically least) witness."""

    axiom: str
    witness: tuple[str, ...]
    detail: str = ""

    def __str__(self) -> str:
        w = ",".join(self.witness)
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.axiom}[{w}]{tail}"


@dataclass(frozen=True)
class FiniteAlgebra:
    element_names: tuple[str, ...]
    one: int
    arrow: tuple[tuple[int, ...], ...]
    squig: tuple[tuple[int, ...], ...]
    zero: int | None = None
    # derived values that hold no reference back to the algebra, filled on
    # first use (order_masks, double_negations, is_glivenko,
    # classes.classify, classes.pseudo_product); a plain field, since
    # functools.cached_property would materialise the instance __dict__ and
    # slow every later attribute lookup
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.element_names)

    @property
    def elements(self) -> range:
        return range(len(self.element_names))

    @property
    def bounded(self) -> bool:
        return self.zero is not None

    def name(self, x: int) -> str:
        return self.element_names[x]

    def index(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def leq(self, x: int, y: int) -> bool:
        return self.arrow[x][y] == self.one

    def order_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The order as bit rows (down, up): bit y of down[x] is set iff
        y <= x, and bit y of up[x] iff x <= y; derived once per instance
        and kept in ``memo``."""
        memo = self.memo
        if "order" not in memo:
            rng, ar, one = self.elements, self.arrow, self.one
            memo["order"] = (
                tuple(sum(1 << y for y in rng if ar[y][x] == one) for x in rng),
                tuple(sum(1 << y for y in rng if ar[x][y] == one) for x in rng),
            )
        return memo["order"]

    def down_set(self, x: int) -> tuple[int, ...]:
        row = self.order_masks()[0][x]
        return tuple(y for y in self.elements if row >> y & 1)

    def up_set(self, x: int) -> tuple[int, ...]:
        row = self.order_masks()[1][x]
        return tuple(y for y in self.elements if row >> y & 1)

    # -- bounded-algebra machinery ------------------------------------

    def _require_bounded(self):
        if self.zero is None:
            raise UnboundedAlgebra("operation requires a bounded algebra")

    def neg_minus(self, x: int) -> int:
        self._require_bounded()
        return self.arrow[x][self.zero]

    def neg_sim(self, x: int) -> int:
        self._require_bounded()
        return self.squig[x][self.zero]

    def double_negations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(x^{-~} = (x -> 0) ~> 0 for each x, x^{~-} = (x ~> 0) -> 0 for
        each x); derived once per instance and kept in ``memo``."""
        self._require_bounded()
        memo = self.memo
        if "double-neg" not in memo:
            rng, ar, sq, zero = self.elements, self.arrow, self.squig, self.zero
            memo["double-neg"] = (
                tuple(sq[ar[x][zero]][zero] for x in rng),
                tuple(ar[sq[x][zero]][zero] for x in rng),
            )
        return memo["double-neg"]

    def regular_elements(self) -> frozenset[int]:
        ms, sm = self.double_negations()
        return frozenset(x for x in self.elements if ms[x] == x == sm[x])

    def dense_elements(self) -> frozenset[int]:
        ms, sm = self.double_negations()
        one = self.one
        return frozenset(x for x in self.elements if ms[x] == one == sm[x])

    def is_good(self) -> bool:
        ms, sm = self.double_negations()
        return ms == sm

    def is_involutive(self) -> bool:
        return self.regular_elements() == frozenset(self.elements)

    def is_glivenko(self) -> bool:
        """Good, with (x -> y)^{-~} = x -> y^{-~} and
        (x ~> y)^{-~} = x ~> y^{-~} for all x, y; decided once per
        instance and kept in ``memo``."""
        memo = self.memo
        if "glivenko" not in memo:
            memo["glivenko"] = self.is_good() and _glivenko_law(self)
        return memo["glivenko"]

    def is_linear(self) -> bool:
        return all(
            self.leq(x, y) or self.leq(y, x)
            for x, y in product(self.elements, repeat=2)
        )

    # -- restriction ---------------------------------------------------

    def unclosed_pair(self, members) -> tuple[int, int] | None:
        """The first pair (x, y) of ``members``, in id order, with x -> y or
        x ~> y outside them; None if they are closed under both."""
        members = frozenset(members)
        for x, y in product(sorted(members), repeat=2):
            if self.arrow[x][y] not in members or self.squig[x][y] not in members:
                return x, y
        return None

    def subalgebra(self, members) -> "FiniteAlgebra":
        """Restrict to a subset closed under both implications.

        The subset must contain ``one``; ``zero`` is kept iff present in it.
        Element order follows the parent ids (see :func:`restrict`).  The
        axioms are universal sentences in ->, ~>, 1 and 0, so it inherits them.
        """
        keep = sorted(set(members))
        if self.one not in keep:
            raise MalformedInput("subalgebra must contain the constant 1")
        bad = self.unclosed_pair(keep)
        if bad is not None:
            raise MalformedInput(
                f"subset not closed under implications at ({','.join(map(self.name, bad))})"
            )
        return FiniteAlgebra(
            element_names=tuple(self.name(x) for x in keep),
            one=keep.index(self.one),
            arrow=tuple(restrict(self.arrow[x], keep) for x in keep),
            squig=tuple(restrict(self.squig[x], keep) for x in keep),
            zero=keep.index(self.zero) if self.zero in keep else None,
        )


def _glivenko_law(A: FiniteAlgebra) -> bool:
    """(x -> y)^{-~} = x -> y^{-~} and (x ~> y)^{-~} = x ~> y^{-~} for all
    x, y of a good algebra."""
    dn, ar, sq = A.double_negations()[0], A.arrow, A.squig
    for x, y in product(A.elements, repeat=2):
        if dn[ar[x][y]] != ar[x][dn[y]]:
            return False
        if dn[sq[x][y]] != sq[x][dn[y]]:
            return False
    return True


def restrict(values, members) -> tuple[int, ...]:
    """``values`` (parent ids indexed by parent ids: a map's image, a table
    row) on the subalgebra over ``members``, which numbers its elements in
    parent-id order."""
    keep = sorted(members)
    pos = {x: i for i, x in enumerate(keep)}
    return tuple(pos[values[x]] for x in keep)


def diagnose(element_names, one, arrow, squig, zero=None) -> list[Diagnostic]:
    """Check the pseudo-BCK axioms on raw tables.

    Structural problems (ragged rows, out-of-range ids, duplicate names)
    raise MalformedInput before any axiom is looked at.  Returns one
    diagnostic per violated axiom, each with its lexicographically least
    witness tuple.
    """
    names = tuple(element_names)
    n = len(names)
    if n == 0:
        raise MalformedInput("empty carrier")
    if len(set(names)) != n:
        raise MalformedInput("duplicate element names")
    if any(not s or any(c.isspace() for c in s) for s in names):
        raise MalformedInput("element names must be non-empty and space-free")
    for label, table in (("arrow", arrow), ("squig", squig)):
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedInput(f"{label} table is not {n}x{n}")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise MalformedInput(f"{label} entry {v!r} out of range")
    if not 0 <= one < n:
        raise MalformedInput("constant 1 out of range")
    if zero is not None and not 0 <= zero < n:
        raise MalformedInput("constant 0 out of range")

    arrow = tuple(tuple(row) for row in arrow)
    squig = tuple(tuple(row) for row in squig)

    def leq(x, y):
        return arrow[x][y] == one

    diags = []

    def record(axiom, witness, detail=""):
        diags.append(Diagnostic(axiom, tuple(names[w] for w in witness), detail))

    rng = range(n)
    for x in rng:
        if arrow[x][x] != one or squig[x][x] != one:
            record("psBCK3", (x,), "x -> x and x ~> x must be 1")
            break
    for x in rng:
        if arrow[x][one] != one or squig[x][one] != one:
            record("psBCK4", (x,), "x <= 1 must hold in both tables")
            break
    for x, y in product(rng, repeat=2):
        if (arrow[x][y] == one) != (squig[x][y] == one):
            record("psBCK6", (x, y), "arrow and squig must agree on the order")
            break
    for x, y in product(rng, repeat=2):
        if x != y and arrow[x][y] == one and arrow[y][x] == one:
            record("psBCK5", (x, y), "antisymmetry fails")
            break
    ok1 = True
    for x, y, z in product(rng, repeat=3):
        if not leq(arrow[x][y], squig[arrow[y][z]][arrow[x][z]]):
            record("psBCK1", (x, y, z), "arrow half fails")
            ok1 = False
            break
        if not leq(squig[x][y], arrow[squig[y][z]][squig[x][z]]):
            record("psBCK1", (x, y, z), "squig half fails")
            ok1 = False
            break
    for x, y in product(rng, repeat=2):
        if not leq(x, squig[arrow[x][y]][y]) or not leq(x, arrow[squig[x][y]][y]):
            record("psBCK2", (x, y))
            break
    if zero is not None:
        for x in rng:
            if arrow[zero][x] != one or squig[zero][x] != one:
                record("bound", (x,), "0 <= x fails")
                break
    # transitivity of the derived order is a theorem; a failure here on
    # tables passing everything above would expose a checker bug
    if ok1 and not diags:
        for x, y, z in product(rng, repeat=3):
            if leq(x, y) and leq(y, z) and not leq(x, z):
                record("order-transitivity", (x, y, z))
                break
    return diags


def validate(element_names, one, arrow, squig, zero=None) -> FiniteAlgebra:
    """Certify raw tables as a pseudo-BCK algebra or raise NotCertified."""
    cap = size_cap(DEFAULT_MAX_CARRIER)
    if len(element_names) > cap:
        raise MalformedInput(
            f"carrier size {len(element_names)} exceeds cap {cap}"
        )
    diags = diagnose(element_names, one, arrow, squig, zero)
    if diags:
        raise NotCertified(diags)
    return FiniteAlgebra(
        element_names=tuple(element_names),
        one=one,
        arrow=tuple(tuple(row) for row in arrow),
        squig=tuple(tuple(row) for row in squig),
        zero=zero,
    )


@dataclass(frozen=True)
class LawResult:
    law: str
    ok: bool
    witness: tuple[str, ...] = ()


def derived_law_suite(algebra: FiniteAlgebra) -> list[LawResult]:
    """Self-test: the arithmetic facts every certified algebra must satisfy.

    Covers the exchange/monotonicity laws of the implication pair and, on
    bounded algebras, the negation arithmetic.  A failure on a certified
    algebra indicates an internal bug.
    """
    A = algebra
    rng = A.elements
    results = []

    def check(law, ok, witness=()):
        results.append(LawResult(law, ok, tuple(A.name(w) for w in witness)))

    def first_fail(label, pred, arity):
        for tup in product(rng, repeat=arity):
            if not pred(*tup):
                check(label, False, tup)
                return
        check(label, True)

    ar, sq, leq = A.arrow, A.squig, A.leq
    first_fail("exchange", lambda x, y, z: ar[x][sq[y][z]] == sq[y][ar[x][z]], 3)
    first_fail(
        "left-antitone",
        lambda x, y, z: not leq(x, y)
        or (leq(ar[y][z], ar[x][z]) and leq(sq[y][z], sq[x][z])),
        3,
    )
    first_fail(
        "right-monotone",
        lambda x, y, z: not leq(x, y)
        or (leq(ar[z][x], ar[z][y]) and leq(sq[z][x], sq[z][y])),
        3,
    )
    first_fail(
        "prefixing",
        lambda x, y, z: leq(ar[x][y], ar[ar[z][x]][ar[z][y]])
        and leq(sq[x][y], sq[sq[z][x]][sq[z][y]]),
        3,
    )
    if not A.bounded:
        return results

    nm, ns = A.neg_minus, A.neg_sim
    first_fail("dn-expansion", lambda x: leq(x, ns(nm(x))) and leq(x, nm(ns(x))), 1)
    first_fail(
        "contraposition-swap",
        lambda x, y: ar[x][ns(y)] == sq[y][nm(x)] and sq[x][nm(y)] == ar[y][ns(x)],
        2,
    )
    first_fail(
        "dn-contraposition",
        lambda x, y: ar[ns(x)][ns(nm(y))] == sq[nm(y)][nm(ns(x))]
        and sq[nm(x)][nm(ns(y))] == ar[ns(y)][ns(nm(x))],
        2,
    )
    first_fail(
        "neg-antitone",
        lambda x, y: not leq(x, y)
        or (
            leq(nm(y), nm(x))
            and leq(ns(y), ns(x))
            and leq(ns(nm(x)), ns(nm(y)))
            and leq(nm(ns(x)), nm(ns(y)))
        ),
        2,
    )
    first_fail("triple-neg", lambda x: nm(ns(nm(x))) == nm(x) and ns(nm(ns(x))) == ns(x), 1)
    first_fail(
        "dn-implication-1",
        lambda x, y: ar[x][ns(nm(y))] == sq[nm(y)][nm(x)] == ar[ns(nm(x))][ns(nm(y))]
        and sq[x][nm(ns(y))] == ar[ns(y)][ns(x)] == sq[nm(ns(x))][nm(ns(y))],
        2,
    )
    first_fail(
        "dn-implication-2",
        lambda x, y: ar[x][ns(y)] == sq[nm(ns(y))][nm(x)] == ar[ns(nm(x))][ns(y)]
        and sq[x][nm(y)] == ar[ns(nm(y))][ns(x)] == sq[nm(ns(x))][nm(y)],
        2,
    )
    first_fail(
        "dn-stability",
        lambda x, y: nm(ns(ar[x][nm(ns(y))])) == ar[x][nm(ns(y))]
        and ns(nm(sq[x][ns(nm(y))])) == sq[x][ns(nm(y))],
        2,
    )
    first_fail(
        "neg-contraposition",
        lambda x, y: leq(ar[x][y], sq[nm(y)][nm(x)]) and leq(sq[x][y], ar[ns(y)][ns(x)]),
        2,
    )
    return results
