"""Homomorphisms between finite pseudo-BCK algebras.

Includes plain and very-true homomorphism checking/enumeration, transport
of substructures along a very-true homomorphism, the factor construction
through a quotient, the first-isomorphism instance, and a backtracking
isomorphism test.

Homomorphism enumeration, the isomorphism test and the factor theorem's
uniqueness check share one search (``_hom_search``): the map search of
``operators._map_search`` with the preservation constraints
f(x->y) = f(x)->f(y) and f(x~>y) = f(x)~>f(y) as its checks: once f(x)
and f(y) are assigned, each is tested, or forces f(x->y) and f(x~>y) when
those come later in id order.  Enumeration has its own cap (|A| <= 8),
since the raw space is |B|^|A|.

What depends on a homomorphism alone is kept in ``Homomorphism.memo``:
its passed ``is_hom`` check, its kernel, its corestriction onto the image
with Ker f, the operator-free verdicts of ``transport``, and, per
deductive system H, its factored map from A/H with the uniqueness
search's maps and ``factor``'s two verdicts.  A ``VtHomomorphism`` is
still certified when it is built; only the operator-free part of that
check is read back.  What involves an operator (stability under it,
intertwining, its certificate) is tested on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import FiniteAlgebra, restrict, size_cap
from .deduction import (
    DeductiveSystem,
    QuotientAlgebra,
    _is_ds,
    _is_normal,
    enumerate_ds_v,
    lift_vto_to_quotient,
)
from .errors import (
    CarrierTooLarge,
    KernelContainmentViolated,
    MalformedInput,
    SurjectivityRequired,
)
from .operators import UnaryMap, Witness, _map_search, _require_on, certify_vto, kernel

DEFAULT_HOM_CAP = 8


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]
    # what is derived from the map alone, filled on first use and freed
    # with it: its passed ``is_hom`` certificate (is_vthom), its kernel,
    # its corestriction onto the image with Ker f (first_isomorphism), the
    # verdicts of transport that involve no operator, and its
    # factorization through each A/H (factor); nothing in it refers back
    # to the map
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
    A, B, m = f.source, f.target, f.map
    if len(m) != A.n or any(not 0 <= v < B.n for v in m):
        raise MalformedInput("map is not total into the target carrier")
    for x, y in product(A.elements, repeat=2):
        if m[A.arrow[x][y]] != B.arrow[m[x]][m[y]]:
            return Witness("hom-arrow", (A.name(x), A.name(y)))
        if m[A.squig[x][y]] != B.squig[m[x]][m[y]]:
            return Witness("hom-squig", (A.name(x), A.name(y)))
    return None


def _require_ends(A: FiniteAlgebra, v: UnaryMap, B: FiniteAlgebra, u: UnaryMap):
    _require_on(A, v, "v must live on the source algebra")
    _require_on(B, u, "u must live on the target algebra")


def intertwine_failure(m, v: UnaryMap, u: UnaryMap) -> int | None:
    """The least x with m(v(x)) != u(m(x)), or None if the map vector m
    intertwines v and u."""
    return next((x for x, vx in enumerate(v.image) if m[vx] != u.image[m[x]]), None)


def is_vthom(f: Homomorphism, v: UnaryMap, u: UnaryMap) -> Witness | None:
    """None if f is a homomorphism intertwining v and u, else the first
    failing law.  A passed ``is_hom`` is kept in ``f.memo``, as
    ``certify_vto`` keeps its certificate; a failed one is not, so it is
    found again on every call."""
    _require_ends(f.source, v, f.target, u)
    if "hom" not in f.memo:
        w = is_hom(f)
        if w is not None:
            return w
        f.memo["hom"] = True
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


@dataclass(frozen=True)
class TransportReport:
    image_is_vt_subalgebra: bool
    kernel: frozenset[int]
    kernel_is_normal_vds: bool
    pushforward_ok: bool | None  # None when f is not surjective
    pullback_ok: bool
    preimage_ker_u_is_vds: bool
    image_ker_v_is_uds: bool | None

    @property
    def ok(self) -> bool:
        checks = [
            self.image_is_vt_subalgebra,
            self.kernel_is_normal_vds,
            self.pullback_ok,
            self.preimage_ker_u_is_vds,
        ]
        checks += [c for c in (self.pushforward_ok, self.image_ker_v_is_uds) if c is not None]
        return all(checks)


def transport(f: VtHomomorphism) -> TransportReport:
    """Verify how a very-true homomorphism moves substructures around.

    Checks: the image is a very-true subalgebra of the target; the kernel
    is a normal v-deductive system; pushforwards of v-deductive systems
    are u-deductive systems (surjective case only, reported as None
    otherwise); pullbacks of u-deductive systems are v-deductive systems;
    plus the kernel-of-operator corollaries.

    Each check is a verdict that involves no operator (the image is closed
    under both implications, Ker f is a normal deductive system, f(S) or
    f^-1(S) is a deductive system) and one that does (the set is v- or
    u-stable).  The first kind depends on ``f.base`` alone and is kept in
    its memo, per member set S for the images and preimages; the stability
    tests run on every call.
    """
    A, B, v, u, m = f.source, f.target, f.v, f.u, f.base.map
    memo = f.base.memo

    def kept(key, derive):
        if key not in memo:
            memo[key] = derive()
        return memo[key]

    def image_is_ds(w: UnaryMap, members) -> bool:
        img = frozenset(m[x] for x in members)
        return kept(("image-ds", members), lambda: _is_ds(B, img)) and w.preserves(img)

    def preimage_is_ds(w: UnaryMap, members) -> bool:
        pre = frozenset(x for x in A.elements if m[x] in members)
        return kept(("preimage-ds", members), lambda: _is_ds(A, pre)) and w.preserves(pre)

    ker, img = f.base.kernel(), f.base.image()
    surjective = f.base.is_surjective()
    return TransportReport(
        # VT1-VT4 are universal sentences, so u restricted to a u-stable
        # subalgebra is a very true operator there
        image_is_vt_subalgebra=kept(
            "image-closed", lambda: B.one in img and B.unclosed_pair(img) is None
        ) and u.preserves(img),
        kernel=ker,
        kernel_is_normal_vds=kept(
            "kernel-normal-ds", lambda: _is_ds(A, ker) and _is_normal(A, ker)
        ) and v.preserves(ker),
        pushforward_ok=(
            all(image_is_ds(u, D.members) for D in enumerate_ds_v(v))
            if surjective
            else None
        ),
        pullback_ok=all(preimage_is_ds(v, G.members) for G in enumerate_ds_v(u)),
        preimage_ker_u_is_vds=preimage_is_ds(v, kernel(u)),
        image_ker_v_is_uds=image_is_ds(u, kernel(v)) if surjective else None,
    )


def pushforward_ds(f: VtHomomorphism, D: DeductiveSystem) -> frozenset[int]:
    if not f.base.is_surjective():
        raise SurjectivityRequired("pushforward needs a surjective homomorphism")
    return frozenset(f.base.map[x] for x in D.members)


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
    theorem's uniqueness clause rather than tests it: the search runs over
    the very-true homomorphisms on the quotient that commute with the
    projection, commuting pins every class to the one value ``f`` takes on
    it, and ``is_vthom`` has already accepted that map when the factored
    ``VtHomomorphism`` was built, so the search can only return the
    factored map itself.  It is kept as executable
    documentation of the statement.

    What depends on ``f.base`` and H alone is derived once and kept in
    ``f.base.memo`` under ``H.members``: the induced ``Homomorphism``
    A/H -> B, the maps of the uniqueness search, before they are filtered
    by the operators, and the ``image_preserved`` and
    ``kernel_is_quotient_of_kernel`` verdicts.  Each call lifts ``f.v``,
    certifies the factored ``VtHomomorphism`` and filters those maps by
    the lifted operator.  The kept map's source is the quotient of the
    first call; a later call's ``quotient.algebra`` is an equal algebra
    built apart.
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
            tuple(_hom_search(q, B, [[y] for y in base.map])),
            base.image() == f.base.image(),
            base.kernel() == frozenset(quot.class_of[x] for x in ker),
        )
    base, maps, image_preserved, kernel_ok = memo[key]
    lifted = VtHomomorphism(base, vhat, f.u)

    matches = [g for g in maps if intertwine_failure(g, vhat, f.u) is None]
    unique = matches == [base.map]
    return FactorResult(quot, vhat, lifted, unique, image_preserved, kernel_ok)


def first_isomorphism(f: VtHomomorphism) -> FactorResult:
    """Factor at H = Ker(f) with the target cut down to the image.

    The resulting map is a very-true isomorphism from A/Ker(f) onto Im(f).
    The corestriction of ``f.base`` onto its image subalgebra and Ker(f)
    are derived once and kept in ``f.base.memo``; each call restricts
    ``f.u`` to the image.
    """
    memo, image = f.base.memo, f.base.image()
    if "first-iso" not in memo:
        A = f.source
        sub_b = f.target.subalgebra(image)
        base = Homomorphism(A, sub_b, tuple(map(sub_b.index, f.base.names())))
        memo["first-iso"] = base, DeductiveSystem.from_members(A, base.kernel())
    base, H = memo["first-iso"]
    u_restr = UnaryMap(base.target, restrict(f.u.image, image))
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
