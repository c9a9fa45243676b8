"""Every theorem of the library as an executable property.

``run_suite`` takes one certified algebra and grinds through all invariant
families that apply to it (operator laws, deduction/quotient laws,
homomorphism transport, class-tower facts), returning one named result per
family.  Anything failing here on a certified algebra is a build-rejecting
bug, not a data problem.

The operator-pair families form each composite f o g as an image vector and
test it with the law code of ``is_interior`` and ``is_vto``
(``operators._interior_witness``, ``operators._vto_witness``), so no
composite is built as a checked ``UnaryMap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product

from .algebra import FiniteAlgebra, derived_law_suite, restrict
from .classes import (
    _vto_flw_witness,
    classify,
    enumerate_vto_flw,
    flw_arithmetic_suite,
    lattice_tables,
    mtl_characterization,
    mv_characterization,
    smarandache_search,
    vt4_equivalence_check,
    vt_pp_suite,
)
from .deduction import (
    DeductiveSystem,
    congruence_from,
    enumerate_ds,
    enumerate_ds_nv,
    enumerate_ds_v,
    lift_vto_to_quotient,
    vto_congruence_check,
)
from .morphisms import (
    DEFAULT_HOM_CAP,
    Homomorphism,
    VtHomomorphism,
    enumerate_hom,
    factor,
    first_isomorphism,
    intertwine_failure,
    is_hom,
    transport,
)
from .operators import (
    _interior_witness,
    _vto_witness,
    enumerate_interior,
    enumerate_vto,
    fix_points,
    identity_map,
    image_set,
    is_closure,
    is_vtst,
    kernel,
    lift_to_den_quotient,
    lift_to_reg,
    sigma_hedges,
)
from .valuations import compose_with_vto, certify as certify_valuation


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    detail: str = ""


def _all(name, pairs) -> SuiteResult:
    for ok, detail in pairs:
        if not ok:
            return SuiteResult(name, False, detail)
    return SuiteResult(name, True)


def _all_pairs(name, pairs, holds) -> SuiteResult:
    """``_all`` over pairs of maps: the first pair failing ``holds`` is
    named "f/g", and no name is formatted for a passing pair.  For a
    symmetric ``holds``, unordered pairs (i <= j) name the same first pair
    as ordered ones."""
    for f, g in pairs:
        if not holds(f, g):
            return SuiteResult(name, False, f"{f.names()}/{g.names()}")
    return SuiteResult(name, True)


def _composite(fi, gi) -> tuple[int, ...]:
    """The image vector of f o g, from the image vectors of f and g."""
    return tuple([fi[v] for v in gi])


def run_suite(A: FiniteAlgebra) -> list[SuiteResult]:
    out: list[SuiteResult] = []
    add = out.append

    # algebra-level self tests
    laws = derived_law_suite(A)
    add(_all("derived-laws", ((r.ok, f"{r.law}[{','.join(r.witness)}]") for r in laws)))
    add(
        _all(
            "order-agreement",
            (
                ((A.arrow[x][y] == A.one) == (A.squig[x][y] == A.one), f"{x},{y}")
                for x, y in product(A.elements, repeat=2)
            ),
        )
    )

    into = enumerate_interior(A)
    vto = enumerate_vto(A)
    into_set = {f.image for f in into}
    add(SuiteResult("vto-subset-into", all(v.image in into_set for v in vto)))

    # pointwise-order vs absorption for interior operators
    add(
        _all_pairs(
            "interior-absorption",
            product(into, repeat=2),
            lambda f, g: (f <= g) == (_composite(f.image, g.image) == f.image),
        )
    )

    # commutation <=> both composites interior <=> both composites idempotent;
    # symmetric in f and g, like vto_commutation, so unordered pairs suffice
    def three_way(f, g):
        fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
        a = fg == gf
        b = _interior_witness(A, fg) is None and _interior_witness(A, gf) is None
        c = _composite(fg, fg) == fg and _composite(gf, gf) == gf
        return a == b == c

    add(_all_pairs("interior-commutation", combinations_with_replacement(into, 2), three_way))
    # one fix set per operator, not one per pair; keyed by image vector
    fix = {f.image: fix_points(f) for f in into}
    add(
        _all_pairs(
            "interior-fix-injective",
            combinations(into, 2),
            lambda f, g: fix[f.image] != fix[g.image] or f.image == g.image,
        )
    )
    ims = {v.image: image_set(v) for v in vto}
    add(
        _all_pairs(
            "vto-image-injective",
            combinations(vto, 2),
            lambda f, g: ims[f.image] != ims[g.image] or f.image == g.image,
        )
    )

    def vto_commutation(f, g):
        fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
        both = _vto_witness(A, fg) is None and _vto_witness(A, gf) is None
        return both == (fg == gf)

    add(
        _all_pairs(
            "vto-composition-commutation",
            combinations_with_replacement(vto, 2),
            vto_commutation,
        )
    )

    def vto_arithmetic(v):
        im = v.image
        one = A.one
        for x in A.elements:
            if (im[x] == one) != (x == one):
                return False, f"split-1 at {A.name(x)}"
            if im[im[x]] != im[x]:
                return False, f"idempotence at {A.name(x)}"
        for x, y in product(A.elements, repeat=2):
            if A.leq(x, y) and not A.leq(im[x], im[y]):
                return False, f"monotone at {A.name(x)},{A.name(y)}"
            if A.leq(im[x], y) != A.leq(im[x], im[y]):
                return False, f"galois at {A.name(x)},{A.name(y)}"
        if image_set(v) != fix_points(v):
            return False, "image/fix mismatch"
        if kernel(v) != frozenset({one}):
            return False, "kernel not {1}"
        if image_set(v) == frozenset(A.elements) and im != identity_map(A).image:
            return False, "surjective but not identity"
        mem = kernel(v)
        if not all(
            y in mem
            for x in mem
            for y in A.elements
            if A.arrow[x][y] in mem
        ):
            return False, "kernel not deductive"
        return True, ""

    add(_all("vto-arithmetic", (vto_arithmetic(v) for v in vto)))

    if A.bounded:
        # a <= b is ar[a][b] == one; nm[x] = x -> 0 and ns[x] = x ~> 0
        els, ar, sq, one, zero = A.elements, A.arrow, A.squig, A.one, A.zero
        nm = [row[zero] for row in ar]
        ns = [row[zero] for row in sq]

        def interior_neg_arith(f):
            im = f.image
            for x in els:
                arx, sqx, ari, sqi = ar[x], sq[x], ar[im[x]], sq[im[x]]
                for y in els:
                    if ar[arx[im[y]]][ari[y]] != one:
                        return False, "exchange-arrow"
                    if ar[sqx[im[y]]][sqi[y]] != one:
                        return False, "exchange-squig"
                    if ar[im[arx[y]]][ari[y]] != one:
                        return False, "apply-arrow"
                    if ar[im[sqx[y]]][sqi[y]] != one:
                        return False, "apply-squig"
                    if ar[im[arx[y]]][sq[nm[y]][nm[x]]] != one:
                        return False, "contraposition-arrow"
                    if ar[im[sqx[y]]][ar[ns[y]][ns[x]]] != one:
                        return False, "contraposition-squig"
            for x in els:
                if ar[im[nm[x]]][nm[im[x]]] != one or ar[im[ns[x]]][ns[im[x]]] != one:
                    return False, "neg-shrink"
                if ar[x][ns[im[nm[x]]]] != one or ar[x][nm[im[ns[x]]]] != one:
                    return False, "neg-expand"
            return im[zero] == zero, "fixes 0"

        add(_all("interior-negation-arithmetic", (interior_neg_arith(f) for f in into)))

        def hedge_facts(v):
            s1, s2 = sigma_hedges(v)
            if is_closure(s1) is not None or is_closure(s2) is not None:
                return False, "sigma not closure"
            if is_vtst(v, s1, s2) is not None:
                return False, "sigma fails hedge axioms"
            ident = identity_map(A)
            if is_vtst(v, ident, ident) is not None:
                return False, "identity pair fails hedge axioms"
            # sandwich: Id <= s <= sigma for every certified hedge pair; for
            # the identity pair just certified that is Id <= sigma
            if not (ident <= s1 and ident <= s2):
                return False, "sandwich (sigma)"
            return True, ""

        add(_all("hedges", (hedge_facts(v) for v in vto)))

        # composing the unit-cost valuation with any operator stays a valuation
        base = [Fraction(0) if x == A.one else Fraction(1) for x in A.elements]
        phi = certify_valuation(A, base)
        add(
            _all(
                "valuation-composition",
                (
                    (compose_with_vto(phi, v) is not None, "")
                    for v in vto
                ),
            )
        )

    # deduction laws
    ds = enumerate_ds(A)
    dsn = [d for d in ds if d.normal]
    whole = frozenset(A.elements)
    top = frozenset({A.one})

    def vds_facts(v):
        fam = enumerate_ds_v(v)
        members = {d.members for d in fam}
        if top not in members or whole not in members or kernel(v) not in members:
            return False, "boundary systems missing"
        if not members <= {d.members for d in ds}:
            return False, "not a subfamily of DS"
        return True, ""

    add(_all("vds-family", (vds_facts(v) for v in vto)))

    def quotient_facts(H):
        quot = congruence_from(A, H)
        proj, q = quot.class_of, quot.algebra
        if is_hom(Homomorphism(A, q, proj)) is not None:
            return False, "projection not a homomorphism"
        ker = frozenset(x for x in A.elements if proj[x] == q.one)
        if ker != H.members:
            return False, "projection kernel differs from H"
        if set(proj) != set(q.elements):
            return False, "projection not surjective"
        return True, ""

    add(_all("quotients", (quotient_facts(H) for H in dsn)))

    # each lift raises unless the lifted operator is very true again
    for v in vto:
        for H in enumerate_ds_nv(v):
            lift_vto_to_quotient(v, H)
    add(SuiteResult("quotient-vto", True))
    add(_all("congruence-compatibility", ((vto_congruence_check(v), "") for v in vto)))

    if A.bounded and A.is_glivenko():
        for v in vto:
            lift_to_reg(v)
        add(SuiteResult("regular-lift", True))
        for v in vto:
            lift_to_den_quotient(v)
        add(SuiteResult("dense-quotient-lift", True))
        den = DeductiveSystem.from_members(A, A.dense_elements())
        add(SuiteResult("dense-normal-ds", den.members in {d.members for d in dsn}))

    # homomorphism transport (endomorphisms only, capped)
    if A.n <= DEFAULT_HOM_CAP:
        homs = enumerate_hom(A, A)
        add(
            _all(
                "homs-preserve",
                ((True, "") if is_hom(f) is None else (False, str(f.names())) for f in homs),
            )
        )

        def monotone(f):
            for x, y in product(A.elements, repeat=2):
                if A.leq(x, y) and not A.leq(f.map[x], f.map[y]):
                    return False, f"{f.names()} at {A.name(x)},{A.name(y)}"
            return True, ""

        add(_all("homs-monotone", (monotone(f) for f in homs)))

        def transports(v):
            vhoms = [f for f in homs if intertwine_failure(f.map, v, v) is None]
            stable = enumerate_ds_nv(v)
            for f in vhoms:
                g = VtHomomorphism(f, v, v)
                rep = transport(g)
                if not rep.ok:
                    return False, f"transport {f.names()}"
                res = first_isomorphism(g)
                if not (
                    res.unique
                    and res.image_preserved
                    and res.kernel_is_quotient_of_kernel
                    and res.factored.base.is_injective()
                    and res.factored.base.is_surjective()
                ):
                    return False, f"first-isomorphism {f.names()}"
                for H in stable:
                    if not H.members <= f.kernel():
                        continue
                    r = factor(g, H)
                    if not (r.unique and r.image_preserved and r.kernel_is_quotient_of_kernel):
                        return False, f"factor {f.names()} by {H.names()}"
            return True, ""

        add(_all("vthom-transport", (transports(v) for v in vto)))

    # class tower
    report = classify(A)
    incl = (
        (not report.mv or report.bl)
        and (not report.bl or (report.mtl and report.divisible))
        and (not report.mtl or report.flw)
        and (not report.divisible or report.flw)
        and (not report.flw or (report.pp and report.bounded and report.lattice))
    )
    add(SuiteResult("class-inclusions", incl))

    if report.pp:
        add(
            _all(
                "pp-arithmetic",
                ((True, "") if vt_pp_suite(v).ok else (False, str(v.names())) for v in vto),
            )
        )
        add(SuiteResult("vt4-equivalence", vt4_equivalence_check(A)))
    if report.flw:
        w = flw_arithmetic_suite(A)
        add(SuiteResult("flw-arithmetic", w is None, str(w or "")))
        (_, jt), _ = lattice_tables(A)
        witnessed = [(v, _vto_flw_witness(jt, v)) for v in vto]
        vt5 = [v for v, w in witnessed if w is None]
        add(SuiteResult("mtl-characterization", mtl_characterization(A, vt5).agree))
        add(SuiteResult("mv-characterization", mv_characterization(A, vt5).agree))

        # once the join inequality (VT5) holds, monotonicity forces equality
        def join_equality(v, w):
            if w is None or w.axiom == "VT5":
                return True, ""
            return False, f"{v.names()} at {','.join(w.elements)}"

        add(_all("vto-join-equality", (join_equality(v, w) for v, w in witnessed)))

    if A.bounded and A.n <= 12:
        subs = smarandache_search(A)
        sub_of = {q: sub for q, sub, _ in subs}
        # each Q is certified by the search: derive its operators once, on
        # the subalgebra the search classified
        ops = cache(lambda q: enumerate_vto_flw(sub_of[q]))
        nested_ok = True
        detail = ""
        for (q1, _, _), (q2, sub2, _) in product(subs, repeat=2):
            if not (q1 < q2):
                continue
            # Q1's ids inside the subalgebra on Q2
            inner = frozenset(sub2.index(A.name(x)) for x in q1)
            for m in ops(q2):
                if not m.preserves(inner):
                    continue
                if restrict(m.image, inner) not in {s.image for s in ops(q1)}:
                    nested_ok = False
                    detail = f"{sorted(q1)} in {sorted(q2)}"
                    break
            if not nested_ok:
                break
        add(SuiteResult("smarandache-antitone", nested_ok, detail))

    return out
