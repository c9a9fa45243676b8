"""Deductive systems, congruences and quotient algebras.

Every search over closed subsets runs on ``_closed_sets(A, pairs, start)``:
Kuznetsov's Close-by-One walk over a closure system.  A closure system is
given by a pair table, a flat n*n tuple of bitsets with ``pairs[x * n + y]``
the elements that the members x and y yield; a set is closed when it holds
``pairs[x * n + y]`` for every two members.  Deductive systems close the
modus ponens table ``_mp_pairs`` from {1}; it holds -> alone, which on a
set that contains 1 gives the ~> half by theorem.
``classes.smarandache_search`` closes the implication table
``_implication_pairs`` from {0, 1}.  Both tables are plain ints.

The walk reaches each closed superset of the start exactly once, with
no seen set, and never scans the power set, which keeps carriers up to
the documented cap (20) feasible.  Results are ordered by (cardinality,
bitset value) with bit i standing for element id i.

Derived once and kept on the object it is derived from: an algebra's
modus ponens table, closed masks, and the verdicts of ``_is_ds`` and
``_is_normal`` under each member bitset, plain ints and bools in
``A.memo`` (each checker keeps its own verdict; callers only call it).
Both checkers take the member bitset itself, as ``UnaryMap.preserves``
does, and a caller holding a member set converts it once (``_mask``);
and a normal system's quotient algebra with the class of each element in
``H.memo`` (``congruence_from``).  Neither refers back to its owner, and
a quotient is never kept on the algebra it is taken of.
"""

from __future__ import annotations

from itertools import product

from ._records import dataclass, field
from .algebra import FiniteAlgebra, size_cap
from .errors import (
    CarrierTooLarge,
    MalformedInput,
    NotNormal,
    NotVds,
    WellDefinednessFailure,
)
from .operators import UnaryMap, _certify_lift, _require_on, certify_vto, is_vto

DEFAULT_SUBSET_CAP = 20


def _adjoin(A: FiniteAlgebra, pairs, closed: int, new: int) -> int:
    """The least superset of ``closed | new`` that holds ``pairs[x * n + y]``
    for every two members x and y, given that ``closed`` does.

    ``pairs`` is a flat n*n table of bitsets, symmetric in x and y.  A pair
    within ``closed`` adds nothing, so each newly adjoined element a is
    handled once, against the members at that time; a later member b meets
    a when b is handled.
    """
    els, n = A.elements, A.n
    mask = closed | new
    members = [y for y in els if mask >> y & 1]
    work = [a for a in members if not closed >> a & 1]
    while work:
        row = work.pop() * n
        fresh = 0
        for y in members:
            fresh |= pairs[row + y]
        fresh &= ~mask
        if fresh:
            mask |= fresh
            added = [y for y in els if fresh >> y & 1]
            members += added
            work += added
    return mask


def _mp_pairs(A: FiniteAlgebra) -> tuple[int, ...]:
    """``pairs[x * n + z]``: the bitset of every y that modus ponens for ->
    yields from the members x and z, i.e. x->y is z or z->y is x.  Plain
    ints, derived once per algebra and kept in ``A.memo``.

    The ~> half is redundant on a set D that contains 1 and is closed under
    ->-modus ponens.  D is an up-set, since a <= b gives a->b = 1 in D.
    psBCK2 gives x <= (x~>y)->y, so x and x~>y in D give (x~>y)->y in D,
    and then y in D.  On a set without 1 the two can differ, so callers
    close only sets that contain 1."""
    memo = A.memo
    if "mp-pairs" not in memo:
        n = A.n
        pairs = [0] * (n * n)
        for x in A.elements:
            for y, z in enumerate(A.arrow[x]):
                bit = 1 << y
                pairs[x * n + z] |= bit
                pairs[z * n + x] |= bit
        memo["mp-pairs"] = tuple(pairs)
    return memo["mp-pairs"]


def _implication_pairs(A: FiniteAlgebra) -> tuple[int, ...]:
    """``pairs[x * n + y]``: the bitset of x->y, y->x, x~>y and y~>x.
    Built afresh on every call, as ``smarandache_search`` asks once per
    search."""
    ar, sq = A.arrow, A.squig
    return tuple(
        1 << ar[x][y] | 1 << ar[y][x] | 1 << sq[x][y] | 1 << sq[y][x]
        for x, y in product(A.elements, repeat=2)
    )


def _closed_sets(A: FiniteAlgebra, pairs, start: int) -> list[int]:
    """Every bitset closed under ``pairs`` containing ``start``, ordered by
    (cardinality, bitset value).

    Close-by-One: a closed set reached with ``after`` grows by each j >=
    ``after`` outside it, and the grown set is kept, to grow from j + 1,
    only when it adds no element below j.  Every closed set has exactly one
    such parent, so each is reached once.
    """
    found = []
    stack = [(_adjoin(A, pairs, 0, start), 0)]
    while stack:
        mask, after = stack.pop()
        found.append(mask)
        for j in range(after, A.n):
            if mask >> j & 1:
                continue
            grown = _adjoin(A, pairs, mask, 1 << j)
            if not (grown ^ mask) & ((1 << j) - 1):
                stack.append((grown, j + 1))
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


@dataclass(frozen=True)
class DeductiveSystem:
    parent: FiniteAlgebra
    members: frozenset[int]
    normal: bool
    # its quotient algebra with the class of each element (congruence_from),
    # filled on first use and freed with the system; neither refers back to
    # the system or its algebra
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_members(cls, A: FiniteAlgebra, members) -> "DeductiveSystem":
        members = frozenset(members)
        mask = _mask(members)
        if not _is_ds(A, mask):
            raise MalformedInput("subset is not a deductive system")
        return cls(A, members, _is_normal(A, mask))

    def names(self) -> tuple[str, ...]:
        return tuple(
            self.parent.name(x) for x in sorted(self.members)
        )


def _is_ds(A: FiniteAlgebra, mask: int) -> bool:
    """The member bitset ``mask`` contains 1 and is closed under modus
    ponens for both implications: for -> alone, which on a set that
    contains 1 gives the ~> half (``_mp_pairs``), so 1 is tested first.
    The verdict is kept in ``A.memo["is-ds"]`` under ``mask``."""
    kept = A.memo.setdefault("is-ds", {})
    if mask not in kept:
        kept[mask] = mask >> A.one & 1 == 1 and _adjoin(A, _mp_pairs(A), 0, mask) == mask
    return kept[mask]


def _is_normal(A: FiniteAlgebra, mask: int) -> bool:
    """x->y and x~>y lie in the member bitset ``mask`` together, for every
    x and y.  The verdict is kept in ``A.memo["is-normal"]`` under
    ``mask``."""
    kept = A.memo.setdefault("is-normal", {})
    if mask not in kept:
        kept[mask] = all(
            mask >> A.arrow[x][y] & 1 == mask >> A.squig[x][y] & 1
            for x, y in product(A.elements, repeat=2)
        )
    return kept[mask]


def _mask(members) -> int:
    """The bitset of ``members``, with bit x standing for element id x."""
    return sum(1 << x for x in members)


def _members(A: FiniteAlgebra, mask: int) -> frozenset[int]:
    return frozenset(x for x in A.elements if mask >> x & 1)


def _check_subset_cap(A: FiniteAlgebra):
    cap = size_cap(DEFAULT_SUBSET_CAP)
    if A.n > cap:
        raise CarrierTooLarge(f"carrier size {A.n} exceeds subset cap {cap}")


def enumerate_ds(A: FiniteAlgebra) -> list[DeductiveSystem]:
    """Every deductive system of A.  The closed masks are kept in
    ``A.memo``; the cap is checked on every call, and each call builds
    fresh systems."""
    _check_subset_cap(A)
    memo = A.memo
    if "ds" not in memo:
        memo["ds"] = tuple(_closed_sets(A, _mp_pairs(A), 1 << A.one))
    return [DeductiveSystem(A, _members(A, m), _is_normal(A, m)) for m in memo["ds"]]


def enumerate_ds_n(A: FiniteAlgebra) -> list[DeductiveSystem]:
    return [d for d in enumerate_ds(A) if d.normal]


def enumerate_ds_v(v: UnaryMap) -> list[DeductiveSystem]:
    """The v-stable deductive systems, derived once per operator and kept in
    ``v.memo``; the cap is checked on every call."""
    certify_vto(v)
    _check_subset_cap(v.parent)
    memo = v.memo
    if "ds_v" not in memo:
        memo["ds_v"] = tuple(
            d for d in enumerate_ds(v.parent) if v.preserves(_mask(d.members))
        )
    return list(memo["ds_v"])


def enumerate_ds_nv(v: UnaryMap) -> list[DeductiveSystem]:
    return [d for d in enumerate_ds_v(v) if d.normal]


@dataclass(frozen=True)
class QuotientAlgebra:
    parent: FiniteAlgebra
    by: DeductiveSystem
    algebra: FiniteAlgebra
    class_of: tuple[int, ...]

    def class_members(self, cls: int) -> tuple[int, ...]:
        return tuple(x for x in self.parent.elements if self.class_of[x] == cls)

    def induce(self, values) -> tuple[int, ...]:
        """The map on classes sending the class of x to ``values[x]``.

        Raises WellDefinednessFailure if ``values`` differs inside a class.
        """
        return _induce(self.parent, self.class_of, values)


def _induce(A: FiniteAlgebra, class_of, values) -> tuple:
    """``QuotientAlgebra.induce`` on the classes ``class_of``, before the
    quotient algebra exists."""
    img = [None] * (max(class_of) + 1)
    for x, val in enumerate(values):
        cls = class_of[x]
        if img[cls] is None:
            img[cls] = val
        elif img[cls] != val:
            raise WellDefinednessFailure(f"map disagrees inside class of {A.name(x)}")
    return tuple(img)


def congruence_from(A: FiniteAlgebra, H: DeductiveSystem) -> QuotientAlgebra:
    """Quotient by the congruence induced by a normal deductive system.

    Classes: x ~ y iff x->y and y->x both lie in H.  Class ids follow the
    least-id representative; class names are "[rep]".  The inherited tables
    are checked to be independent of representatives, which makes the
    quotient a pseudo-BCK algebra by theorem; it is not re-certified.

    The quotient algebra and the class of each element are derived once per
    system and kept in ``H.memo``; the preconditions are checked on every
    call, and each call returns a fresh ``QuotientAlgebra`` on this A.  A
    failed well-definedness check is not kept, so it raises on every call.
    """
    _require_on(A, H, "H must be a deductive system of the algebra")
    if not H.normal:
        raise NotNormal("quotients require a normal deductive system")
    memo = H.memo
    if "quotient" not in memo:
        mem = H.members
        related = [
            [A.arrow[x][y] in mem and A.arrow[y][x] in mem for y in A.elements]
            for x in A.elements
        ]
        class_of = [-1] * A.n
        reps: list[int] = []
        for x in A.elements:
            if class_of[x] != -1:
                continue
            cls = len(reps)
            reps.append(x)
            for y in range(x, A.n):
                if related[x][y]:
                    class_of[y] = cls

        def table(rows):
            # [x]->[y] = [x->y]: each row induced on the classes of y, then
            # the rows on the classes of x
            induced = [_induce(A, class_of, [class_of[z] for z in r]) for r in rows]
            return _induce(A, class_of, induced)

        # the class of 0 is the bottom, since [0] -> [x] = [0 -> x] = [1]
        quotient = FiniteAlgebra(
            element_names=tuple(f"[{A.name(r)}]" for r in reps),
            one=class_of[A.one],
            arrow=table(A.arrow),
            squig=table(A.squig),
            zero=class_of[A.zero] if A.zero is not None else None,
        )
        memo["quotient"] = quotient, tuple(class_of)
    quotient, class_of = memo["quotient"]
    return QuotientAlgebra(A, H, quotient, class_of)


def enumerate_congruences(A: FiniteAlgebra) -> list[QuotientAlgebra]:
    """One quotient per normal deductive system."""
    return [congruence_from(A, H) for H in enumerate_ds_n(A)]


def lift_vto_to_quotient(
    v: UnaryMap, H: DeductiveSystem
) -> tuple[QuotientAlgebra, UnaryMap]:
    """Induce a very true operator on A/H from a normal v-deductive system.

    The quotient algebra with the class of each element and the lifted
    operator are derived once per system and kept in ``v.memo`` under
    ``H.members``, and each call returns a fresh ``QuotientAlgebra`` with
    ``by`` set to this H.  That v is very true and H normal on v's algebra
    is checked on every call; that H is v-stable only until a lift is
    kept, since one is kept only after that test passed for these members.
    The quotient comes from ``congruence_from``, so operators lifted over
    one H object share its quotient algebra: ``run_suite`` lifts every
    operator over the systems of its ``Facts``, whose quotients are
    already built.
    """
    certify_vto(v)
    _require_on(v.parent, H, "H must be a deductive system of v's algebra")
    if not H.normal:
        raise NotNormal("lifting requires a normal deductive system")
    memo = v.memo
    key = ("lift", H.members)
    if key not in memo:
        if not v.preserves(_mask(H.members)):
            raise NotVds("H is not stable under the operator")
        quot = congruence_from(v.parent, H)
        lifted = UnaryMap(quot.algebra, quot.induce([quot.class_of[y] for y in v.image]))
        _certify_lift((is_vto,), lifted)
        memo[key] = quot.algebra, quot.class_of, lifted
    quotient, class_of, lifted = memo[key]
    return QuotientAlgebra(v.parent, H, quotient, class_of), lifted


def vto_congruence_check(v: UnaryMap) -> bool:
    """Congruences from v-stable normal deductive systems are compatible
    with v (a theorem checker).

    Quantifying over all normal deductive systems would be wrong: the
    3-chain with globalization relates the two non-unit elements via the
    system they generate, but globalization separates them again.
    """
    A = certify_vto(v).parent
    for H in enumerate_ds_nv(v):
        mem = H.members
        for x, y in product(A.elements, repeat=2):
            if A.arrow[x][y] in mem and A.arrow[y][x] in mem:
                vx, vy = v.image[x], v.image[y]
                if A.arrow[vx][vy] not in mem or A.arrow[vy][vx] not in mem:
                    return False
    return True
