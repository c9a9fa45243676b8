"""Homomorphisms between finite pseudo-BCK algebras.

Includes plain and very-true homomorphism checking/enumeration, transport
of substructures along a very-true homomorphism, the factor construction
through a quotient, the first-isomorphism instance, and a backtracking
isomorphism test.

Homomorphism enumeration and the isomorphism test share one search
(``_hom_search``): the map search of ``operators._map_search`` with the
preservation constraints f(x->y) = f(x)->f(y) and f(x~>y) = f(x)~>f(y)
as its checks: once f(x) and f(y) are assigned, each is tested, or forces
f(x->y) and f(x~>y) when those come later in id order.  Enumeration has
its own cap (|A| <= 8), since the raw space is |B|^|A|.

A checker keeps its own pass on the object the verdict is about, and
callers only call it: ``is_hom`` keeps it in ``Homomorphism.memo`` and
reads it before anything else, ``operators.is_vto`` in the operator's
memo, and ``deduction._is_ds`` and ``_is_normal`` in the algebra's, under
the member bitset they are asked by.  A failure is never kept.  Beside its
``is_hom`` pass, a homomorphism's memo keeps what is derived from its map
alone: its kernel, whether its image is closed (``transport``), its
corestriction onto the image with Ker f, and, per deductive system H, its
factored map from A/H with ``factor``'s two verdicts.  What holds by
theorem is not decided at all: Ker f is a normal deductive system, the
corestriction is a homomorphism, and u restricted to the image is very
true (``first_isomorphism``).  What involves an operator (stability under
it, intertwining) is tested on every call.  ``transport`` returns the
first fact that fails as a ``Witness``, as every law checker does.
"""

from __future__ import annotations

from itertools import product

from ._records import dataclass, field
from .algebra import FiniteAlgebra, Witness, restrict, size_cap
from .deduction import (
    DeductiveSystem,
    QuotientAlgebra,
    _is_ds,
    _is_normal,
    _mask,
    enumerate_ds_v,
    lift_vto_to_quotient,
)
from .errors import (
    CarrierTooLarge,
    KernelContainmentViolated,
    MalformedInput,
)
from .operators import UnaryMap, _map_search, _require_on, certify_vto, kernel

DEFAULT_HOM_CAP = 8


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]
    # what is derived from the map alone, filled on first use and freed
    # with it: its passed ``is_hom`` check, its kernel, whether its image
    # is closed (transport), its corestriction onto the image with Ker f
    # (first_isomorphism), and its factorization through each A/H
    # (factor); nothing in it refers back to the map
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.n

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.n

    def kernel(self) -> frozenset[int]:
        """{x | f(x) = 1}, derived once and kept in ``memo``."""
        memo = self.memo
        if "kernel" not in memo:
            one, m = self.target.one, self.map
            memo["kernel"] = frozenset(x for x in self.source.elements if m[x] == one)
        return memo["kernel"]

    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    def names(self) -> tuple[str, ...]:
        return tuple(self.target.name(v) for v in self.map)


@dataclass(frozen=True)
class VtHomomorphism:
    """A homomorphism f with f(v(x)) = u(f(x)) for very true operators v on
    its source and u on its target, certified when built: MalformedInput
    names the failing law otherwise."""

    base: Homomorphism
    v: UnaryMap
    u: UnaryMap

    def __post_init__(self):
        w = is_vthom(self.base, self.v, self.u)
        if w is not None:
            raise MalformedInput(f"not a very true homomorphism: {w}")

    @property
    def source(self):
        return self.base.source

    @property
    def target(self):
        return self.base.target


def is_hom(f: Homomorphism) -> Witness | None:
    """None if f preserves both implications, else the first failing
    (x, y) in id order, arrow before squig.  Raises MalformedInput unless
    the map is total into the target.  A pass is kept in ``f.memo``, and
    only once the map was found total; as the map is a tuple, a kept pass
    implies it is total still.  A failure is not kept, so it is found
    again on every call, as is a map that is not total."""
    if "hom" in f.memo:
        return None
    A, B, m = f.source, f.target, f.map
    if len(m) != A.n or any(not 0 <= v < B.n for v in m):
        raise MalformedInput("map is not total into the target carrier")
    w = _hom_witness(A, B, m)
    if w is None:
        f.memo["hom"] = True
    return w


# loops, not law rows: a kernel run on every endomorphism the suite checks
def _hom_witness(A: FiniteAlgebra, B: FiniteAlgebra, m) -> Witness | None:
    """``is_hom`` on the total map vector m from A to B.  The four table
    rows of each x are looked up once, not once per y."""
    els = A.elements
    for x in els:
        ax, sx, bx, tx = A.arrow[x], A.squig[x], B.arrow[m[x]], B.squig[m[x]]
        for y in els:
            my = m[y]
            if m[ax[y]] != bx[my]:
                return Witness("hom-arrow", (A.name(x), A.name(y)))
            if m[sx[y]] != tx[my]:
                return Witness("hom-squig", (A.name(x), A.name(y)))
    return None


def _require_ends(A: FiniteAlgebra, v: UnaryMap, B: FiniteAlgebra, u: UnaryMap):
    _require_on(A, v, "v must live on the source algebra")
    _require_on(B, u, "u must live on the target algebra")


def intertwine_failure(m, v: UnaryMap, u: UnaryMap) -> int | None:
    """The least x with m(v(x)) != u(m(x)), or None if the map vector m
    intertwines v and u."""
    uimg = u.image
    for x, vx in enumerate(v.image):
        if m[vx] != uimg[m[x]]:
            return x
    return None


def is_vthom(f: Homomorphism, v: UnaryMap, u: UnaryMap) -> Witness | None:
    """None if f is a homomorphism intertwining v and u, else the first
    failing law."""
    _require_ends(f.source, v, f.target, u)
    w = is_hom(f)
    if w is not None:
        return w
    certify_vto(v)
    certify_vto(u)
    x = intertwine_failure(f.map, v, u)
    return None if x is None else Witness("intertwine", (f.source.name(x),))


def _hom_search(A: FiniteAlgebra, B: FiniteAlgebra, candidates):
    """Yield every preserving map vector with f(x) in ``candidates[x]``, in
    the order of ``operators._map_search``: once f(x) and f(y) are set,
    f(x->y) and f(x~>y) are checked, or forced if they are assigned later."""
    checks = [
        (x, y, tab_a[x][y], tab_b)
        for x, y in product(A.elements, repeat=2)
        for tab_a, tab_b in ((A.arrow, B.arrow), (A.squig, B.squig))
    ]
    return _map_search(A.n, candidates, checks)


def enumerate_hom(A: FiniteAlgebra, B: FiniteAlgebra) -> list[Homomorphism]:
    """All implication-preserving maps A -> B, lexicographic in map vectors."""
    cap = size_cap(DEFAULT_HOM_CAP)
    if A.n > cap:
        raise CarrierTooLarge(f"source size {A.n} exceeds hom cap {cap}")
    candidates = [[B.one] if x == A.one else range(B.n) for x in A.elements]
    return [Homomorphism(A, B, m) for m in _hom_search(A, B, candidates)]


def enumerate_vthom(
    A: FiniteAlgebra, v: UnaryMap, B: FiniteAlgebra, u: UnaryMap
) -> list[Homomorphism]:
    _require_ends(A, v, B, u)
    certify_vto(v)
    certify_vto(u)
    return [f for f in enumerate_hom(A, B) if intertwine_failure(f.map, v, u) is None]


def transport(f: VtHomomorphism) -> Witness | None:
    """None if f moves substructures as the theorems say, else the first
    fact that fails, with ``f.base.names()`` as its elements.  In order:
    ``image-vt-subalgebra`` (Im f is a very-true subalgebra),
    ``kernel-normal-vds`` (Ker f is a normal v-deductive system),
    ``pushforward`` and ``pullback`` (f(D) of every v-deductive system D
    is a u-deductive system, f^-1(G) of every u-deductive system G a
    v-deductive system), ``preimage-ker-u`` (f^-1(Ker u)) and
    ``image-ker-v`` (f(Ker v)).  A fact is evaluated only once those before
    it hold; ``pushforward`` and ``image-ker-v`` hold vacuously, and are
    not evaluated, unless f is surjective (its image is all of B).

    Each fact is a verdict that involves no operator (the image is closed,
    a set is a (normal) deductive system), kept by its checker on the
    algebra (or, for the image, in ``f.base.memo``), and a stability test
    under v or u, run on every call.  Both are asked by member bitset: the
    fibres of f (bit x of ``fib[b]`` is set iff f(x) = b) and its image are
    built once per call, f^-1(S) is the OR of ``fib[b]`` over S, and f(S)
    the bitset of f(x) over S.  The v-deductive systems and Ker v are
    derived once per call, and serve for u as well when u is v.
    """
    A, B, v, u, m = f.source, f.target, f.v, f.u, f.base.map
    fib, img = [0] * B.n, 0
    for x, b in enumerate(m):
        fib[b] |= 1 << x
        img |= 1 << b

    def is_uds(mask) -> bool:
        return _is_ds(B, mask) and u.preserves(mask)

    def image_is_uds(members) -> bool:
        return is_uds(_mask({m[x] for x in members}))

    def preimage_is_vds(members) -> bool:
        pre = 0
        for b in members:
            pre |= fib[b]
        return _is_ds(A, pre) and v.preserves(pre)

    memo, ker = f.base.memo, fib[B.one]
    if "image-closed" not in memo:
        members = f.base.image()
        memo["image-closed"] = B.one in members and B.unclosed_pair(members) is None
    surjective = img == (1 << B.n) - 1
    ds_v = enumerate_ds_v(v) if surjective else None
    ds_u = ds_v if surjective and u is v else enumerate_ds_v(u)
    ker_u = kernel(u)
    ker_v = ker_u if u is v else kernel(v)
    facts = (
        # VT1-VT4 are universal sentences, so u restricted to a u-stable
        # subalgebra is a very true operator there
        ("image-vt-subalgebra", lambda: memo["image-closed"] and u.preserves(img)),
        ("kernel-normal-vds",
         lambda: _is_ds(A, ker) and _is_normal(A, ker) and v.preserves(ker)),
        ("pushforward", lambda: not surjective or all(image_is_uds(D.members) for D in ds_v)),
        ("pullback", lambda: all(preimage_is_vds(G.members) for G in ds_u)),
        ("preimage-ker-u", lambda: preimage_is_vds(ker_u)),
        ("image-ker-v", lambda: not surjective or image_is_uds(ker_v)),
    )
    for name, holds in facts:
        if not holds():
            return Witness(name, f.base.names())
    return None


@dataclass(frozen=True)
class FactorResult:
    quotient: QuotientAlgebra
    lifted_operator: UnaryMap
    factored: VtHomomorphism
    unique: bool
    image_preserved: bool
    kernel_is_quotient_of_kernel: bool


def factor(f: VtHomomorphism, H: DeductiveSystem) -> FactorResult:
    """Factor a very-true homomorphism through A/H for H inside its kernel.

    Returns the induced map from the quotient; commutation with the
    projection holds by construction.  The map is well defined whenever H
    lies inside the kernel: x ~ y puts x->y and y->x in H, so
    f(x)->f(y) = 1 = f(y)->f(x) and f(x) = f(y), and the check in
    ``QuotientAlgebra.induce`` cannot fail here.  ``unique`` restates the
    theorem's uniqueness clause rather than tests it.  It ranges over the
    very-true homomorphisms on the quotient that commute with the
    projection; commuting pins every class to the one value ``f`` takes on
    it, so the factored map is the only candidate.  That candidate is a
    homomorphism when ``is_hom`` accepts it: building the factored
    ``VtHomomorphism`` runs ``is_hom``, which keeps its pass in the
    candidate's memo, and tests intertwining, raising if either fails.  So
    ``unique`` is that kept pass, read back when the result is built, and
    holds whenever ``factor`` returns.  It is kept as executable
    documentation of the statement.

    What depends on ``f.base`` and H alone is derived once and kept in
    ``f.base.memo`` under ``H.members``: the induced ``Homomorphism``
    A/H -> B, and the ``image_preserved`` and
    ``kernel_is_quotient_of_kernel`` verdicts.  Each call lifts ``f.v``
    and certifies the factored ``VtHomomorphism``, which tests
    intertwining with the lifted operator.  The kept map's source is the
    quotient of the first call; a later call's ``quotient.algebra`` is
    that algebra when both lifts were taken over one H object
    (``congruence_from`` keeps it in ``H.memo``), and an equal algebra
    built apart otherwise.
    """
    B = f.target
    ker = f.base.kernel()
    if not H.members <= ker:
        raise KernelContainmentViolated("H must be contained in the kernel")
    quot, vhat = lift_vto_to_quotient(f.v, H)
    memo = f.base.memo
    key = ("factor", H.members)
    if key not in memo:
        q = quot.algebra
        base = Homomorphism(q, B, quot.induce(f.base.map))
        memo[key] = (
            base,
            base.image() == f.base.image(),
            base.kernel() == frozenset(quot.class_of[x] for x in ker),
        )
    base, image_preserved, kernel_ok = memo[key]
    lifted = VtHomomorphism(base, vhat, f.u)
    return FactorResult(quot, vhat, lifted, is_hom(base) is None, image_preserved, kernel_ok)


def first_isomorphism(f: VtHomomorphism) -> FactorResult:
    """Factor at H = Ker(f) with the target cut down to the image.

    The resulting map is a very-true isomorphism from A/Ker(f) onto Im(f).
    The corestriction of ``f.base`` onto its image subalgebra and Ker(f)
    are derived once and kept in ``f.base.memo``; each call restricts
    ``f.u`` to the image.  None of the three is checked, since each holds
    by theorem for a very true homomorphism f: the image is closed under
    both implications, so the corestriction preserves them; Ker f is a
    normal deductive system (f(x) = f(x->y) = 1 gives f(y) = f(x)->f(y) = 1,
    and x->y and x~>y lie in Ker f exactly when f(x) <= f(y)); and the
    image is u-stable, since u(f(x)) = f(v(x)), so u restricted to it is
    very true, as VT1-VT4 are universal sentences.  The restriction's pass
    is kept in its memo, as ``is_vto`` would keep it.
    """
    memo, image = f.base.memo, f.base.image()
    if "first-iso" not in memo:
        A = f.source
        sub_b = f.target.subalgebra(image)
        base = Homomorphism(A, sub_b, tuple(map(sub_b.index, f.base.names())))
        base.memo["hom"] = True
        memo["first-iso"] = base, DeductiveSystem(A, f.base.kernel(), True)
    base, H = memo["first-iso"]
    u_restr = UnaryMap(base.target, restrict(f.u.image, image))
    u_restr.memo["vto"] = True
    return factor(VtHomomorphism(base, f.v, u_restr), H)


def is_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> Homomorphism | None:
    """A bijective homomorphism, if one exists: the first homomorphism of
    the map search whose every f(x) shares x's order profile.

    Only the top has an up-set of size 1, so the candidates give f(x) != 1
    for x != 1 and the kernel is {1}.  A homomorphism with kernel {1} is
    injective: f(x) = f(y) gives f(x->y) = f(x)->f(y) = 1, so x->y = 1 and
    x <= y, and y <= x by symmetry.  With |A| = |B| every map found is a
    bijection.
    """
    if A.n != B.n:
        return None
    if (A.zero is None) != (B.zero is None):
        return None

    # order-profile invariant: |down-set|, |up-set| must match
    def profile(alg, x):
        return (len(alg.down_set(x)), len(alg.up_set(x)))

    prof_b: dict[tuple[int, int], list[int]] = {}
    for y in B.elements:
        prof_b.setdefault(profile(B, y), []).append(y)
    candidates = [
        [B.one] if x == A.one
        else [B.zero] if x == A.zero
        else prof_b.get(profile(A, x), [])
        for x in A.elements
    ]
    m = next(_hom_search(A, B, candidates), None)
    return None if m is None else Homomorphism(A, B, m)
