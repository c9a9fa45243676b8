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
from itertools import product

from ._records import dataclass, field
from .errors import MalformedInput, NotCertified, UnboundedAlgebra

DEFAULT_MAX_CARRIER = 24


def size_cap(default: int) -> int:
    """A search's carrier cap: ``default`` unless PSBCK_MAX_N overrides it."""
    raw = os.environ.get("PSBCK_MAX_N")
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


@dataclass(frozen=True)
class Witness:
    """A violated law with its first counterexample, as element names."""

    axiom: str
    elements: tuple[str, ...]
    detail: str = ""

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.axiom}[{','.join(self.elements)}]{tail}"


@dataclass(frozen=True)
class FiniteAlgebra:
    element_names: tuple[str, ...]
    one: int
    arrow: tuple[tuple[int, ...], ...]
    squig: tuple[tuple[int, ...], ...]
    zero: int | None = None
    # derived values that hold no reference back to the algebra, filled on
    # first use (order_masks, double_negations, is_glivenko,
    # classes.classify, classes.pseudo_product, deduction's pair tables,
    # deduction.enumerate_ds); a plain field, since
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
    return first_failure(
        A, 2, lambda x, y: dn[ar[x][y]] == ar[x][dn[y]] and dn[sq[x][y]] == sq[x][dn[y]]
    ) is None


def _witness(A: FiniteAlgebra, axiom: str, tup) -> Witness:
    return Witness(axiom, tuple(A.name(t) for t in tup))


def first_failure(A: FiniteAlgebra, arity: int, holds) -> tuple[int, ...] | None:
    """The first tuple of ``product(A.elements, repeat=arity)`` on which
    ``holds`` fails, or None: the witness order of every law checker."""
    for t in product(A.elements, repeat=arity):
        if not holds(*t):
            return t
    return None


def first_witness(A: FiniteAlgebra, laws) -> Witness | None:
    """The first row (name, arity, holds) of ``laws`` that fails, as a
    Witness of that name at its ``first_failure``; None if all hold."""
    for name, arity, holds in laws:
        t = first_failure(A, arity, holds)
        if t is not None:
            return _witness(A, name, t)
    return None


def restrict(values, members) -> tuple[int, ...]:
    """``values`` (parent ids indexed by parent ids: a map's image, a table
    row) on the subalgebra over ``members``, which numbers its elements in
    parent-id order."""
    keep = sorted(members)
    pos = {x: i for i, x in enumerate(keep)}
    return tuple(pos[values[x]] for x in keep)


# loops, not law rows: it checks outside input and reports every failing axiom
def diagnose(element_names, one, arrow, squig, zero=None) -> list[Witness]:
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
    rng = range(n)
    # bit b of up[a] is set iff a -> b = 1, so a <= b is a bit test
    up = [sum(1 << b for b in rng if row[b] == one) for row in arrow]

    diags = []

    def record(axiom, witness, detail=""):
        diags.append(Witness(axiom, tuple(names[w] for w in witness), detail))

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
    bad1 = _psbck1_failure(arrow, squig, up)
    if bad1 is not None:
        record("psBCK1", *bad1)
    for x, y in product(rng, repeat=2):
        ux = up[x]
        if not ux >> squig[arrow[x][y]][y] & 1 or not ux >> arrow[squig[x][y]][y] & 1:
            record("psBCK2", (x, y))
            break
    if zero is not None:
        for x in rng:
            if arrow[zero][x] != one or squig[zero][x] != one:
                record("bound", (x,), "0 <= x fails")
                break
    # transitivity of the derived order is a theorem; a failure here on
    # tables passing everything above would expose a checker bug
    if not diags:
        bad = _intransitive_triple(up)
        if bad is not None:
            record("order-transitivity", bad)
    return diags


# loops, not law rows: run on every table certified, with rows hoisted
def _psbck1_failure(arrow, squig, up):
    """((x, y, z), which half fails) for the first triple at which
    (x -> y) <= (y -> z) ~> (x -> z) or (x ~> y) <= (y ~> z) -> (x ~> z)
    fails, the arrow half first at each z; None if both hold.  ``up``
    holds the order rows of ``arrow``."""
    rng = range(len(arrow))
    for x in rng:
        arx, sqx = arrow[x], squig[x]
        for y in rng:
            u_ar, u_sq, ary, sqy = up[arx[y]], up[sqx[y]], arrow[y], squig[y]
            for z in rng:
                if not u_ar >> squig[ary[z]][arx[z]] & 1:
                    return (x, y, z), "arrow half fails"
                if not u_sq >> arrow[sqy[z]][sqx[z]] & 1:
                    return (x, y, z), "squig half fails"
    return None


# loops, not law rows: a bitset scan that names the least triple
def _intransitive_triple(up):
    """The least (x, y, z) with x <= y <= z but not x <= z, on the order
    rows ``up`` (bit b of up[a] set iff a <= b), or None.  That is the
    first x that has such a triple, the least y above x whose row leaves
    up[x], and the lowest bit that row leaves."""
    for x, ux in enumerate(up):
        for y, uy in enumerate(up):
            out = uy & ~ux
            if out and ux >> y & 1:
                return x, y, (out & -out).bit_length() - 1
    return None


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


def derived_law_suite(algebra: FiniteAlgebra) -> Witness | None:
    """Self-test: the arithmetic facts every certified algebra must satisfy
    (first counterexample or None).

    Covers the exchange/monotonicity laws of the implication pair and, on
    bounded algebras, the negation arithmetic.  A failure on a certified
    algebra indicates an internal bug.
    """
    A = algebra
    ar, sq, leq = A.arrow, A.squig, A.leq
    laws = [
        ("exchange", 3, lambda x, y, z: ar[x][sq[y][z]] == sq[y][ar[x][z]]),
        ("left-antitone", 3, lambda x, y, z: not leq(x, y)
            or (leq(ar[y][z], ar[x][z]) and leq(sq[y][z], sq[x][z]))),
        ("right-monotone", 3, lambda x, y, z: not leq(x, y)
            or (leq(ar[z][x], ar[z][y]) and leq(sq[z][x], sq[z][y]))),
        ("prefixing", 3, lambda x, y, z: leq(ar[x][y], ar[ar[z][x]][ar[z][y]])
            and leq(sq[x][y], sq[sq[z][x]][sq[z][y]])),
    ]
    if A.bounded:
        # x^- = x -> 0 and x^~ = x ~> 0, read off the zero column of each table
        nm = tuple(row[A.zero] for row in ar)
        ns = tuple(row[A.zero] for row in sq)
        laws += [
            ("dn-expansion", 1, lambda x: leq(x, ns[nm[x]]) and leq(x, nm[ns[x]])),
            ("contraposition-swap", 2, lambda x, y: ar[x][ns[y]] == sq[y][nm[x]]
                and sq[x][nm[y]] == ar[y][ns[x]]),
            ("dn-contraposition", 2, lambda x, y: ar[ns[x]][ns[nm[y]]] == sq[nm[y]][nm[ns[x]]]
                and sq[nm[x]][nm[ns[y]]] == ar[ns[y]][ns[nm[x]]]),
            ("neg-antitone", 2, lambda x, y: not leq(x, y) or (
                leq(nm[y], nm[x])
                and leq(ns[y], ns[x])
                and leq(ns[nm[x]], ns[nm[y]])
                and leq(nm[ns[x]], nm[ns[y]])
            )),
            ("triple-neg", 1, lambda x: nm[ns[nm[x]]] == nm[x] and ns[nm[ns[x]]] == ns[x]),
            ("dn-implication-1", 2, lambda x, y:
                ar[x][ns[nm[y]]] == sq[nm[y]][nm[x]] == ar[ns[nm[x]]][ns[nm[y]]]
                and sq[x][nm[ns[y]]] == ar[ns[y]][ns[x]] == sq[nm[ns[x]]][nm[ns[y]]]),
            ("dn-implication-2", 2, lambda x, y:
                ar[x][ns[y]] == sq[nm[ns[y]]][nm[x]] == ar[ns[nm[x]]][ns[y]]
                and sq[x][nm[y]] == ar[ns[nm[y]]][ns[x]] == sq[nm[ns[x]]][nm[y]]),
            ("dn-stability", 2, lambda x, y: nm[ns[ar[x][nm[ns[y]]]]] == ar[x][nm[ns[y]]]
                and ns[nm[sq[x][ns[nm[y]]]]] == sq[x][ns[nm[y]]]),
            ("neg-contraposition", 2, lambda x, y: leq(ar[x][y], sq[nm[y]][nm[x]])
                and leq(sq[x][y], ar[ns[y]][ns[x]])),
        ]
    return first_witness(A, laws)
