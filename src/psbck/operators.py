"""Unary operators on a finite pseudo-BCK algebra.

Covers checking and exhaustive enumeration of interior operators, closure
operators and very-true (truth-stressing) operators, the canonical
truth-depressing hedge pair, and the liftings to the regular-element
subalgebra and the dense-element quotient.

Every search over map vectors runs on ``_map_search``: depth-first over
element ids, each element's candidates in order, with each table
constraint f(z) = tab[f(x)][f(y)] decided once f(x) and f(y) are set:
tested there if z comes no later, else forcing the value of f(z).
The operator searches restrict f(x) to the down-set (interior/VTO) or
up-set (closure) of x and state monotonicity and idempotence as such
constraints, so results come out in lexicographic order of image vectors;
the very true search then tests VT4 alone.  ``morphisms`` runs the
homomorphism searches on the same engine.  A checker keeps its own pass:
``is_vto`` in ``UnaryMap.memo``, so its callers only call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import FiniteAlgebra, Witness, _witness, first_witness, restrict, size_cap
from .errors import (
    CarrierTooLarge,
    GlivenkoRequired,
    NotVto,
    ParentMismatch,
    UnboundedAlgebra,
    WellDefinednessFailure,
)

DEFAULT_ENUM_CAP = 10


@dataclass(frozen=True)
class UnaryMap:
    parent: FiniteAlgebra
    image: tuple[int, ...]
    # what is derived from (parent, operator) alone, filled on first use and
    # freed with the operator: its passed very true check (is_vto), its
    # v-deductive systems and its quotient lifts (deduction.enumerate_ds_v,
    # deduction.lift_vto_to_quotient); nothing in it refers back to the map
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.parent.n
        if len(self.image) != n or any(not 0 <= v < n for v in self.image):
            raise ValueError("unary map must be total over the carrier")

    def names(self) -> tuple[str, ...]:
        return tuple(self.parent.name(v) for v in self.image)

    def preserves(self, mask: int) -> bool:
        """The map sends the member bitset ``mask``, with bit x standing
        for element id x, into itself."""
        for x, y in enumerate(self.image):
            if mask >> x & 1 and not mask >> y & 1:
                return False
        return True


def _require_on(A: FiniteAlgebra, f, message: str):
    """Raise ParentMismatch unless f (a map or a deductive system) lives on
    A; an equal algebra built separately counts as A."""
    if f.parent is not A and f.parent != A:
        raise ParentMismatch(message)


def _same_parent(f: UnaryMap, g: UnaryMap):
    _require_on(f.parent, g, "maps live on different algebras")


def identity_map(algebra: FiniteAlgebra) -> UnaryMap:
    return UnaryMap(algebra, tuple(algebra.elements))


def globalization(algebra: FiniteAlgebra) -> UnaryMap:
    """The crisp hedge: 1 to 1, everything else to 0."""
    if algebra.zero is None:
        raise UnboundedAlgebra("globalization needs a bottom element")
    return UnaryMap(
        algebra,
        tuple(
            algebra.one if x == algebra.one else algebra.zero
            for x in algebra.elements
        ),
    )


def compose(f: UnaryMap, g: UnaryMap) -> UnaryMap:
    """Pointwise composition (f o g)(x) = f(g(x))."""
    _same_parent(f, g)
    return UnaryMap(f.parent, tuple(f.image[v] for v in g.image))


def fix_points(f: UnaryMap) -> frozenset[int]:
    return frozenset(x for x in f.parent.elements if f.image[x] == x)


def image_set(f: UnaryMap) -> frozenset[int]:
    return frozenset(f.image)


def kernel(f: UnaryMap) -> frozenset[int]:
    one = f.parent.one
    return frozenset(x for x in f.parent.elements if f.image[x] == one)


def is_interior(f: UnaryMap) -> Witness | None:
    """None if f is an interior operator, else the first violated axiom."""
    return _interior_witness(f.parent, f.image)


# loops, not law rows: a kernel run on every candidate and composite, with rows hoisted
def _interior_witness(A: FiniteAlgebra, im) -> Witness | None:
    """``is_interior`` on the image vector ``im`` of a map on A; callers
    that compose maps pass the composite's vector and build no UnaryMap."""
    els, ar, one = A.elements, A.arrow, A.one
    for x in els:
        if ar[im[x]][x] != one:
            return _witness(A, "IO1", (x,))
    for x in els:
        arx, ari = ar[x], ar[im[x]]
        for y in els:
            if arx[y] == one and ari[im[y]] != one:
                return _witness(A, "IO2", (x, y))
    for x in els:
        if im[im[x]] != im[x]:
            return _witness(A, "IO3", (x,))
    return None


def is_closure(f: UnaryMap) -> Witness | None:
    A, im, leq = f.parent, f.image, f.parent.leq
    return first_witness(A, (
        ("CO1", 1, lambda x: leq(x, im[x])),
        ("CO2", 2, lambda x, y: not leq(x, y) or leq(im[x], im[y])),
        ("CO3", 1, lambda x: im[im[x]] == im[x]),
    ))


def is_vto(f: UnaryMap) -> Witness | None:
    """None if f is a very true operator, else the first violated axiom.
    A pass is kept in ``f.memo``; a failure is not, so it is found again on
    every call."""
    if "vto" in f.memo:
        return None
    w = _vto_witness(f.parent, f.image)
    if w is None:
        f.memo["vto"] = True
    return w


# loops, not law rows: a kernel run on every candidate and composite, with rows hoisted
def _vto_witness(A: FiniteAlgebra, im) -> Witness | None:
    """``is_vto`` on the image vector ``im`` of a map on A, as
    ``_interior_witness``."""
    els, ar, sq, one = A.elements, A.arrow, A.squig, A.one
    if im[one] != one:
        return _witness(A, "VT1", (one,))
    for x in els:
        if ar[im[x]][x] != one:
            return _witness(A, "VT2", (x,))
    for x in els:
        if ar[im[x]][im[im[x]]] != one:
            return _witness(A, "VT3", (x,))
    for x in els:
        arx, sqx, ari, sqi = ar[x], sq[x], ar[im[x]], sq[im[x]]
        for y in els:
            if ar[im[arx[y]]][ari[im[y]]] != one:
                return _witness(A, "VT4", (x, y))
            if ar[im[sqx[y]]][sqi[im[y]]] != one:
                return _witness(A, "VT4", (x, y))
    return None


# loops, not law rows: the kernel of every map search, run on each value tried
def _map_search(n, candidates, checks):
    """Yield every map vector m with m[x] in ``candidates[x]`` passing ``checks``.

    A check ``(x, y, z, tab)`` requires ``tab[m[x]][m[y]] == m[z]``.  When
    z <= max(x, y) it is tested at depth max(x, y), once its three entries
    are set.  When z > max(x, y) it forces m[z] = tab[m[x]][m[y]] at depth
    max(x, y): the branch is pruned there if that value is not in
    ``candidates[z]`` or differs from a value forced earlier, and depth z
    tries the forced value alone.
    Depth-first over element ids, trying each element's candidates (distinct
    values) in the given order, so vectors come out lexicographic in
    candidate positions; forcing skips only branches the check would fail.
    The search has no injective mode: a homomorphism with kernel {1} is
    injective, so a caller after one-to-one homomorphisms leaves 1 out of
    the candidates of every x != 1 (``morphisms.is_isomorphic``).
    """
    at = [[] for _ in range(n)]
    # None at a depth with no forcing check, so that depth pays one test
    forcing = [None] * n
    for check in checks:
        x, y, z, _ = check
        d = max(x, y)
        if z <= d:
            at[d].append(check)
        elif forcing[d] is None:
            forcing[d] = [check]
        else:
            forcing[d].append(check)
    cands = list(candidates)  # candidates[z], or (v,) while v is forced on z
    undo = [()] * n  # the elements forced at each depth, released with it
    m: list[int] = []
    pending = [iter(cands[0])]
    while pending:
        i = len(pending) - 1
        tests, forced = at[i], forcing[i]
        if len(m) > i:  # back at depth i: release the value tried last
            m.pop()
            if forced:
                for z in undo[i]:
                    cands[z] = candidates[z]
        for w in pending[i]:
            m.append(w)
            for x, y, z, tab in tests:
                if m[z] != tab[m[x]][m[y]]:
                    break
            else:
                if forced is None:
                    break
                done = []
                for x, y, z, tab in forced:
                    v = tab[m[x]][m[y]]
                    if cands[z] is not candidates[z]:
                        if cands[z][0] != v:
                            break
                    elif v not in cands[z]:
                        break
                    else:
                        cands[z] = (v,)
                        done.append(z)
                else:
                    undo[i] = done
                    break
                for z in done:
                    cands[z] = candidates[z]
            m.pop()
        else:
            pending.pop()
            continue
        if i + 1 == n:
            yield tuple(m)
        else:
            pending.append(iter(cands[i + 1]))


def _enumerate_monotone(A: FiniteAlgebra, allowed):
    """Monotone idempotent maps with f(x) in ``allowed[x]``, which lies in
    the down-set or in the up-set of x.

    One check per comparable pair x < y on low[a][b] = a if a <= b else -1
    tests f(x) <= f(y).  Each pair's copy of low also has -1 in column x off
    row x (f(y) = x needs f(x) = x) and in row y off column y (f(x) = y needs
    f(y) = y), so an image point w = f(z) != z that f does not fix fails on
    the pair (w, z) or (z, w).
    """
    cap = size_cap(DEFAULT_ENUM_CAP)
    if A.n > cap:
        raise CarrierTooLarge(f"carrier size {A.n} exceeds enumeration cap {cap}")
    n, leq = A.n, A.leq
    low = [[a if leq(a, b) else -1 for b in A.elements] for a in A.elements]
    checks = []
    for x in A.elements:
        col = [row[:x] + [-1] + row[x + 1:] for row in low]
        col[x] = low[x]
        for y in A.elements:
            if y != x and leq(x, y):
                tab = col[:]
                tab[y] = [-1] * y + [y] + [-1] * (n - 1 - y)
                checks.append((x, y, x, tab))
    return [UnaryMap(A, v) for v in _map_search(n, allowed, checks)]


def enumerate_interior(A: FiniteAlgebra) -> list[UnaryMap]:
    return _enumerate_monotone(A, [A.down_set(x) for x in A.elements])


def enumerate_closure(A: FiniteAlgebra) -> list[UnaryMap]:
    return _enumerate_monotone(A, [A.up_set(x) for x in A.elements])


def enumerate_vto(A: FiniteAlgebra) -> list[UnaryMap]:
    # VT4 gives monotonicity and VT2, VT3 idempotence, so no operator is
    # lost; VT1-VT3 hold on every candidate, so the test decides VT4 alone
    allowed = [(A.one,) if x == A.one else A.down_set(x) for x in A.elements]
    return [f for f in _enumerate_monotone(A, allowed) if is_vto(f) is None]


def certify_vto(f: UnaryMap) -> UnaryMap:
    """f, if ``is_vto`` passes it; raises NotVto otherwise."""
    w = is_vto(f)
    if w is not None:
        raise NotVto(f"map is not a very true operator: {w}")
    return f


# -- truth-depressing hedges ------------------------------------------


def sigma_hedges(v: UnaryMap) -> tuple[UnaryMap, UnaryMap]:
    """Canonical hedge pair for a very true operator on a bounded algebra.

    s1(x) = v(x^-)^~ and s2(x) = v(x^~)^-.  Both are closure operators and
    (v, s1, s2) satisfies ST1-ST3.
    """
    A = v.parent
    if A.zero is None:
        raise UnboundedAlgebra("hedges need a bounded algebra")
    certify_vto(v)
    s1 = UnaryMap(A, tuple(A.neg_sim(v.image[A.neg_minus(x)]) for x in A.elements))
    s2 = UnaryMap(A, tuple(A.neg_minus(v.image[A.neg_sim(x)]) for x in A.elements))
    return s1, s2


def is_vtst(v: UnaryMap, s1: UnaryMap, s2: UnaryMap) -> Witness | None:
    """ST1-ST3 for a hedge pair attached to a certified very true operator."""
    _same_parent(v, s1)
    _same_parent(v, s2)
    A = v.parent
    if A.zero is None:
        raise UnboundedAlgebra("the hedge axioms mention 0")
    certify_vto(v)
    if s1.image[A.zero] != A.zero or s2.image[A.zero] != A.zero:
        return _witness(A, "ST1", (A.zero,))
    ar, sq, leq, im, t1, t2 = A.arrow, A.squig, A.leq, v.image, s1.image, s2.image
    return first_witness(A, (
        ("ST2", 1, lambda x: leq(x, t1[x]) and leq(x, t2[x])),
        ("ST3", 2, lambda x, y: leq(im[ar[x][y]], ar[t1[x]][t1[y]])
            and leq(im[sq[x][y]], sq[t2[x]][t2[y]])),
    ))


# -- liftings ----------------------------------------------------------


def _require_glivenko(A: FiniteAlgebra):
    if A.zero is None or not A.is_glivenko():
        raise GlivenkoRequired(
            "lifting needs a bounded good algebra with the Glivenko property"
        )


def _lift_checks(f: UnaryMap):
    """The checks f passes, which its lift must pass too: ``is_interior``,
    and ``is_vto`` as well when f is very true (every very true operator is
    interior).  Raises NotVto unless f is an interior operator."""
    if is_vto(f) is None:
        return is_interior, is_vto
    w = is_interior(f)
    if w is not None:
        raise NotVto(f"input map fails {w}")
    return (is_interior,)


def _certify_lift(checks, lifted: UnaryMap):
    """Raise WellDefinednessFailure unless ``lifted`` passes ``checks``."""
    for check in checks:
        w = check(lifted)
        if w is not None:
            raise WellDefinednessFailure(f"lifted map fails {w}")


def lift_to_reg(f: UnaryMap):
    """Transport the interior operator f to the regular-element subalgebra
    via double negation.

    Returns (subalgebra, lifted map); the lifted map passes every check of
    ``_lift_checks`` that f passes.
    """
    A = f.parent
    _require_glivenko(A)
    checks = _lift_checks(f)
    reg = A.regular_elements()
    sub = A.subalgebra(reg)
    dn = A.double_negations()[0]
    lifted = UnaryMap(sub, restrict([dn[y] for y in f.image], reg))
    _certify_lift(checks, lifted)
    return sub, lifted


def lift_to_den_quotient(f: UnaryMap):
    """Transport the interior operator f to the quotient by the dense
    elements.

    Returns (quotient, lifted map), checked as in ``lift_to_reg``.  The lift sends the class of x to the
    class of f applied to the double negation of x; applying f directly to
    a representative is not class-independent (globalization on any algebra
    with a dense element below 1 already breaks it), whereas the double
    negation is constant on each class, which makes this the transport of
    the regular-element lift along the isomorphism with the quotient.
    Well-definedness is still asserted on every element; a failure signals
    a precondition bug.

    Den(A) is built directly, as a normal deductive system by theorem: on
    a good algebra with (x->y)^{-~} = x->y^{-~} and the ~> twin, which
    ``_require_glivenko`` establishes, x->y is dense iff x <= y^{-~} iff
    x~>y is dense, so Den(A) is normal; and if x and x->y (or x~>y) are
    dense, then 1 = x^{-~} <= y^{-~}, so y is dense.
    """
    from .deduction import DeductiveSystem, congruence_from

    A = f.parent
    _require_glivenko(A)
    checks = _lift_checks(f)
    quot = congruence_from(A, DeductiveSystem(A, A.dense_elements(), True))
    q = quot.algebra
    dn = A.double_negations()[0]
    values = [quot.class_of[f.image[dn[x]]] for x in A.elements]
    lifted = UnaryMap(q, quot.induce(values))
    _certify_lift(checks, lifted)
    return quot, lifted
