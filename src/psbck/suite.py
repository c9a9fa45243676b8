"""Every theorem of the library as an executable property.

``run_suite`` takes one certified algebra and grinds through all invariant
families that apply to it (operator laws, deduction/quotient laws,
homomorphism transport, class-tower facts), returning one named result per
family.  Anything failing here on a certified algebra is a build-rejecting
bug, not a data problem.

The families are the ordered table ``FAMILIES`` of (name, gate, check)
triples.  A gate is None (the family always applies) or a predicate on
``Facts``; a check maps ``Facts`` to (ok, detail), with detail "" when ok.
``Facts`` holds what several families read, derived once per call: the
algebra, its interior and very true operators, its deductive systems, its
classification, its endomorphisms (None past ``DEFAULT_HOM_CAP``) and each
very true operator with its VT5 witness (None off FLw).  The last two are
the gates of their families.  ``Facts`` lives for one call, so it keeps
nothing past the memo policy.  ``run_suite`` is one pass over the table,
and it reads ``FAMILIES`` when it is called: a harness times or counts
each family by swapping in a table of wrapped checks.  The checks name
the library functions they call at call time too, so a function rebound
on this module (a tracer's span, a test's planted fault) is the one run.

The operator-pair families form each composite f o g as an image vector and
test it with the law code of ``is_interior`` and ``is_vto``
(``operators._interior_witness``, ``operators._vto_witness``), so no
composite is built as a checked ``UnaryMap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, combinations_with_replacement, product
from operator import attrgetter

from .algebra import FiniteAlgebra, derived_law_suite, restrict
from .classes import (
    ClassificationReport,
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
    _is_ds,
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
    UnaryMap,
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


@dataclass(frozen=True)
class Facts:
    """What several families read, derived once per ``run_suite`` call."""

    A: FiniteAlgebra
    into: list[UnaryMap]
    vto: list[UnaryMap]
    ds: list[DeductiveSystem]
    report: ClassificationReport
    homs: list[Homomorphism] | None  # None past DEFAULT_HOM_CAP
    witnessed: list | None  # (v, VT5 witness or None) per vto; None off FLw

    @classmethod
    def of(cls, A: FiniteAlgebra) -> "Facts":
        into = enumerate_interior(A)  # first: past a cap it raises as ever
        vto, ds = enumerate_vto(A), enumerate_ds(A)
        homs = enumerate_hom(A, A) if A.n <= DEFAULT_HOM_CAP else None
        report = classify(A)
        jt = report.flw and lattice_tables(A)[0][1]  # the join table on FLw
        witnessed = [(v, _vto_flw_witness(jt, v)) for v in vto] if report.flw else None
        return cls(A, into, vto, ds, report, homs, witnessed)

    @property
    def dsn(self) -> list[DeductiveSystem]:
        return [d for d in self.ds if d.normal]

    @property
    def vt5(self) -> list[UnaryMap]:
        return [v for v, w in self.witnessed if w is None]


def _all(pairs) -> tuple[bool, str]:
    """(False, detail) of the first failing (ok, detail) pair, else (True, "")."""
    return next(((False, detail) for ok, detail in pairs if not ok), (True, ""))


def _all_pairs(pairs, holds) -> tuple[bool, str]:
    """``_all`` over pairs of maps: the first pair failing ``holds`` is
    named "f/g", and no name is formatted for a passing pair.  For a
    symmetric ``holds``, unordered pairs (i <= j) name the same first pair
    as ordered ones."""
    for f, g in pairs:
        if not holds(f, g):
            return False, f"{f.names()}/{g.names()}"
    return True, ""


def _each(field, law):
    """The check of a per-item family: ``law(facts, x)`` is (ok, detail)
    for each x of the ``Facts`` field, and the first failure is the
    family's."""
    return lambda facts: _all(law(facts, x) for x in getattr(facts, field))


def _pairs(field, pairing, holds):
    """The check of a pair family: ``holds(f, g)`` on each pair that
    ``pairing`` draws from the ``Facts`` field, as in ``_all_pairs``."""
    return lambda facts: _all_pairs(pairing(getattr(facts, field)), holds)


_ordered = partial(product, repeat=2)
_unordered = partial(combinations_with_replacement, r=2)


def _composite(fi, gi) -> tuple[int, ...]:
    """The image vector of f o g, from the image vectors of f and g."""
    return tuple([fi[v] for v in gi])


def _derived_laws(facts):
    return _all((r.ok, f"{r.law}[{','.join(r.witness)}]") for r in derived_law_suite(facts.A))


def _order_agreement(facts):
    A = facts.A
    return _all(
        ((A.arrow[x][y] == A.one) == (A.squig[x][y] == A.one), f"{x},{y}")
        for x, y in product(A.elements, repeat=2)
    )


def _vto_subset_into(facts):
    into = {f.image for f in facts.into}
    return all(v.image in into for v in facts.vto), ""


def _absorbs(f, g):
    # pointwise order vs absorption for interior operators
    return (f <= g) == (_composite(f.image, g.image) == f.image)


def _three_way(f, g):
    # commutation <=> both composites interior <=> both composites idempotent;
    # symmetric in f and g, like _vto_commutation, so unordered pairs suffice
    A = f.parent
    fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
    a = fg == gf
    b = _interior_witness(A, fg) is None and _interior_witness(A, gf) is None
    c = _composite(fg, fg) == fg and _composite(gf, gf) == gf
    return a == b == c


def _injective(ops, key):
    """No two distinct operators share ``key``: one key per operator, not
    one per pair, looked up by image vector."""
    keys = {f.image: key(f) for f in ops}
    return _all_pairs(
        combinations(ops, 2),
        lambda f, g: keys[f.image] != keys[g.image] or f.image == g.image,
    )


def _vto_commutation(f, g):
    fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
    both = _vto_witness(f.parent, fg) is None and _vto_witness(f.parent, gf) is None
    return both == (fg == gf)


def _vto_arithmetic(_, v):
    A, im, one = v.parent, v.image, v.parent.one
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
    if not _is_ds(A, kernel(v)):
        return False, "kernel not deductive"
    return True, ""


def _interior_negation(_, f):
    # a <= b is ar[a][b] == one; nm[x] = x -> 0 and ns[x] = x ~> 0
    A, im = f.parent, f.image
    els, ar, sq, one, zero = A.elements, A.arrow, A.squig, A.one, A.zero
    nm, ns = [row[zero] for row in ar], [row[zero] for row in sq]
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


def _hedges(_, v):
    s1, s2 = sigma_hedges(v)
    if is_closure(s1) is not None or is_closure(s2) is not None:
        return False, "sigma not closure"
    if is_vtst(v, s1, s2) is not None:
        return False, "sigma fails hedge axioms"
    ident = identity_map(v.parent)
    if is_vtst(v, ident, ident) is not None:
        return False, "identity pair fails hedge axioms"
    # sandwich: Id <= s <= sigma for every certified hedge pair; for the
    # identity pair just certified that is Id <= sigma
    if not (ident <= s1 and ident <= s2):
        return False, "sandwich (sigma)"
    return True, ""


def _valuation_composition(facts):
    # composing the unit-cost valuation (0 at 1, 1 elsewhere) with any
    # operator stays a valuation
    A = facts.A
    phi = certify_valuation(A, [Fraction(int(x != A.one)) for x in A.elements])
    return _all((compose_with_vto(phi, v) is not None, "") for v in facts.vto)


def _vds_family(facts, v):
    A = facts.A
    members = {d.members for d in enumerate_ds_v(v)}
    if not {frozenset({A.one}), frozenset(A.elements), kernel(v)} <= members:
        return False, "boundary systems missing"
    if not members <= {d.members for d in facts.ds}:
        return False, "not a subfamily of DS"
    return True, ""


def _quotient(facts, H):
    quot = congruence_from(facts.A, H)
    proj, q = quot.class_of, quot.algebra
    if is_hom(Homomorphism(facts.A, q, proj)) is not None:
        return False, "projection not a homomorphism"
    if frozenset(x for x in facts.A.elements if proj[x] == q.one) != H.members:
        return False, "projection kernel differs from H"
    if set(proj) != set(q.elements):
        return False, "projection not surjective"
    return True, ""


def _congruence_compatible(_, v):
    return vto_congruence_check(v), ""


def _lifts(facts, lift):
    """Lift each very true operator: a lift raises unless the lifted
    operator is very true again."""
    for v in facts.vto:
        lift(v)
    return True, ""


def _quotient_lifts(v):
    for H in enumerate_ds_nv(v):
        lift_vto_to_quotient(v, H)


def _dense_normal_ds(facts):
    den = DeductiveSystem.from_members(facts.A, facts.A.dense_elements())
    return den.members in {d.members for d in facts.dsn}, ""


def _hom_preserves(_, f):
    return (True, "") if is_hom(f) is None else (False, str(f.names()))


def _hom_monotone(_, f):
    A = f.source
    for x, y in product(A.elements, repeat=2):
        if A.leq(x, y) and not A.leq(f.map[x], f.map[y]):
            return False, f"{f.names()} at {A.name(x)},{A.name(y)}"
    return True, ""


def _vthom_transport(facts, v):
    vhoms = [f for f in facts.homs if intertwine_failure(f.map, v, v) is None]
    stable = enumerate_ds_nv(v)
    for f in vhoms:
        g = VtHomomorphism(f, v, v)
        if not transport(g).ok:
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


def _class_inclusions(facts):
    r = facts.report
    return (
        (not r.mv or r.bl)
        and (not r.bl or (r.mtl and r.divisible))
        and (not r.mtl or r.flw)
        and (not r.divisible or r.flw)
        and (not r.flw or (r.pp and r.bounded and r.lattice))
    ), ""


def _pp_arithmetic(_, v):
    return (True, "") if vt_pp_suite(v).ok else (False, str(v.names()))


def _flw_arithmetic(facts):
    w = flw_arithmetic_suite(facts.A)
    return w is None, str(w or "")


def _mtl_characterization(facts):
    return mtl_characterization(facts.A, facts.vt5).agree, ""


def _mv_characterization(facts):
    return mv_characterization(facts.A, facts.vt5).agree, ""


def _join_equality(_, witnessed):
    # once the join inequality (VT5) holds, monotonicity forces equality
    v, w = witnessed
    if w is None or w.axiom == "VT5":
        return True, ""
    return False, f"{v.names()} at {','.join(w.elements)}"


def _smarandache_antitone(facts):
    A = facts.A
    subs = smarandache_search(A)
    sub_of = {q: sub for q, sub, _ in subs}
    # each Q is certified by the search: derive its operators once, on
    # the subalgebra the search classified
    ops = cache(lambda q: enumerate_vto_flw(sub_of[q]))
    for (q1, _, _), (q2, sub2, _) in product(subs, repeat=2):
        if not (q1 < q2):
            continue
        # Q1's ids inside the subalgebra on Q2
        inner = frozenset(sub2.index(A.name(x)) for x in q1)
        for m in ops(q2):
            if not m.preserves(inner):
                continue
            if restrict(m.image, inner) not in {s.image for s in ops(q1)}:
                return False, f"{sorted(q1)} in {sorted(q2)}"
    return True, ""


_bounded = attrgetter("A.bounded")
_pp = attrgetter("report.pp")


def _glivenko(facts):
    return facts.A.bounded and facts.A.is_glivenko()


def _with_homs(facts):
    return facts.homs is not None


def _on_flw(facts):
    return facts.witnessed is not None


def _smarandache_sized(facts):
    return facts.A.bounded and facts.A.n <= 12


FAMILIES = (
    ("derived-laws", None, _derived_laws),
    ("order-agreement", None, _order_agreement),
    ("vto-subset-into", None, _vto_subset_into),
    ("interior-absorption", None, _pairs("into", _ordered, _absorbs)),
    ("interior-commutation", None, _pairs("into", _unordered, _three_way)),
    ("interior-fix-injective", None, lambda facts: _injective(facts.into, fix_points)),
    ("vto-image-injective", None, lambda facts: _injective(facts.vto, image_set)),
    ("vto-composition-commutation", None, _pairs("vto", _unordered, _vto_commutation)),
    ("vto-arithmetic", None, _each("vto", _vto_arithmetic)),
    ("interior-negation-arithmetic", _bounded, _each("into", _interior_negation)),
    ("hedges", _bounded, _each("vto", _hedges)),
    ("valuation-composition", _bounded, _valuation_composition),
    ("vds-family", None, _each("vto", _vds_family)),
    ("quotients", None, _each("dsn", _quotient)),
    ("quotient-vto", None, lambda facts: _lifts(facts, _quotient_lifts)),
    ("congruence-compatibility", None, _each("vto", _congruence_compatible)),
    ("regular-lift", _glivenko, lambda facts: _lifts(facts, lift_to_reg)),
    ("dense-quotient-lift", _glivenko, lambda facts: _lifts(facts, lift_to_den_quotient)),
    ("dense-normal-ds", _glivenko, _dense_normal_ds),
    ("homs-preserve", _with_homs, _each("homs", _hom_preserves)),
    ("homs-monotone", _with_homs, _each("homs", _hom_monotone)),
    ("vthom-transport", _with_homs, _each("vto", _vthom_transport)),
    ("class-inclusions", None, _class_inclusions),
    ("pp-arithmetic", _pp, _each("vto", _pp_arithmetic)),
    ("vt4-equivalence", _pp, lambda facts: (vt4_equivalence_check(facts.A), "")),
    ("flw-arithmetic", _on_flw, _flw_arithmetic),
    ("mtl-characterization", _on_flw, _mtl_characterization),
    ("mv-characterization", _on_flw, _mv_characterization),
    ("vto-join-equality", _on_flw, _each("witnessed", _join_equality)),
    ("smarandache-antitone", _smarandache_sized, _smarandache_antitone),
)


def run_suite(A: FiniteAlgebra) -> list[SuiteResult]:
    facts = Facts.of(A)
    return [
        SuiteResult(name, *check(facts))
        for name, gate, check in FAMILIES
        if gate is None or gate(facts)
    ]
