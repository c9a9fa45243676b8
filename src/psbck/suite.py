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
classification, its endomorphisms (None past the hom cap) and each
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
composite is built as a checked ``UnaryMap``.  Each check decides each
distinct composite once, in a cache made inside the check call.
``interior-absorption`` forms no composite: it packs each operator into
ints once per call, and tests each pair with two ANDs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import combinations, combinations_with_replacement, product
from operator import attrgetter

from ._records import dataclass
from .algebra import FiniteAlgebra, derived_law_suite, restrict, size_cap
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
    _mask,
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
    homs: list[Homomorphism] | None  # None past size_cap(DEFAULT_HOM_CAP)
    witnessed: list | None  # (v, VT5 witness or None) per vto; None off FLw

    @classmethod
    def of(cls, A: FiniteAlgebra) -> "Facts":
        into = enumerate_interior(A)  # first: past a cap it raises as ever
        vto, ds = enumerate_vto(A), enumerate_ds(A)
        homs = enumerate_hom(A, A) if A.n <= size_cap(DEFAULT_HOM_CAP) else None
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


_ordered = partial(product, repeat=2)
_unordered = partial(combinations_with_replacement, r=2)


def _composite(fi, gi) -> tuple[int, ...]:
    """The image vector of f o g, from the image vectors of f and g."""
    return tuple([fi[v] for v in gi])


def _verdict(w) -> tuple[bool, str]:
    """(ok, detail) of a checker's ``Witness | None``."""
    return w is None, str(w or "")


def _order_agreement(facts):
    # restates validate's psBCK6 (x->y = 1 iff x~>y = 1), so it cannot fail
    # on a validated algebra; subalgebras inherit it as a universal
    # sentence, and A/H does since [x]->[y] = [1] iff x->y lies in H, and a
    # normal H holds x->y iff it holds x~>y.  The row stays in the table:
    # its name is part of every suite output.
    A = facts.A
    return _all(
        ((A.arrow[x][y] == A.one) == (A.squig[x][y] == A.one), f"{x},{y}")
        for x, y in product(A.elements, repeat=2)
    )


def _vto_subset_into(facts):
    into = {f.image for f in facts.into}
    return all(v.image in into for v in facts.vto), ""


def _interior_absorption(facts):
    # f <= g iff f o g = f, over ordered pairs.  Each operator is packed
    # once, in n blocks of n bits: bit y of block x of its points is set
    # iff f(x) = y, and block x of ~rows and of ~fibres misses the up-set
    # and the fibre of f(x).  f <= g and f o g = f each say that g's
    # points meet one of them in no bit.
    n, up = facts.A.n, facts.A.order_masks()[1]
    packed = {}
    for f in facts.into:
        fib = [0] * n
        for x, y in enumerate(f.image):
            fib[y] |= 1 << x
        points = rows = fibres = 0
        for x, y in enumerate(f.image):
            points |= 1 << x * n + y
            rows |= up[y] << x * n
            fibres |= fib[y] << x * n
        packed[f.image] = points, ~rows, ~fibres

    def holds(f, g):
        _, not_up, not_fibre = packed[f.image]
        points = packed[g.image][0]
        return (points & not_up == 0) == (points & not_fibre == 0)

    return _all_pairs(_ordered(facts.into), holds)


def _three_way(interior, f, g):
    # commutation <=> both composites interior <=> both composites idempotent;
    # symmetric in f and g, like _vto_commutation, so unordered pairs suffice
    fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
    a = fg == gf
    b = interior(fg) and interior(gf)
    c = _composite(fg, fg) == fg and _composite(gf, gf) == gf
    return a == b == c


def _interior_commutation(facts):
    # each distinct composite is decided once per call; the lambda reads
    # _interior_witness when it runs, so a rebound one is the one run
    A = facts.A
    interior = cache(lambda im: _interior_witness(A, im) is None)
    return _all_pairs(_unordered(facts.into), partial(_three_way, interior))


def _injective(ops, key):
    """No two distinct operators share ``key``: one key per operator, not
    one per pair, looked up by image vector."""
    keys = {f.image: key(f) for f in ops}
    return _all_pairs(
        combinations(ops, 2),
        lambda f, g: keys[f.image] != keys[g.image] or f.image == g.image,
    )


def _vto_commutation(very_true, f, g):
    # v o w and w o v are both very true iff v and w commute
    fg, gf = _composite(f.image, g.image), _composite(g.image, f.image)
    return (very_true(fg) and very_true(gf)) == (fg == gf)


def _vto_composition_commutation(facts):
    # one verdict per distinct composite, as in _interior_commutation
    A = facts.A
    very_true = cache(lambda im: _vto_witness(A, im) is None)
    return _all_pairs(_unordered(facts.vto), partial(_vto_commutation, very_true))


def _vto_arithmetic(_, v):
    """Split-1, idempotence, monotonicity and the Galois law of v.

    The first two imply, for any map on A, that the image is the set of
    fixed points, that the kernel is {1} (a deductive system, as 1->y = y),
    and that a surjective v is the identity, so none is checked again.
    """
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
    return True, ""


# loops, not law rows: a kernel run on every interior operator, with rows hoisted
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
    # Id <= sigma needs no check of its own: it is ST2 of the pair above
    ident = identity_map(v.parent)
    if is_vtst(v, ident, ident) is not None:
        return False, "identity pair fails hedge axioms"
    return True, ""


def _valuation_composition(facts):
    # composing the unit-cost valuation (0 at 1, 1 elsewhere) with any
    # operator stays a valuation
    A = facts.A
    phi = certify_valuation(A, [Fraction(int(x != A.one)) for x in A.elements])
    return _all((compose_with_vto(phi, v) is not None, "") for v in facts.vto)


def _vds_family(facts, v):
    """{1}, A and Ker v are v-deductive systems.  That DS_v(A) lies in
    DS(A) is not checked: ``enumerate_ds_v`` filters ``enumerate_ds``."""
    A = facts.A
    members = {d.members for d in enumerate_ds_v(v)}
    if not {frozenset({A.one}), frozenset(A.elements), kernel(v)} <= members:
        return False, "boundary systems missing"
    return True, ""


def _quotient(facts, H):
    # the projection is onto by construction, one class id per
    # representative; that its kernel is H is a theorem
    quot = congruence_from(facts.A, H)
    proj = Homomorphism(facts.A, quot.algebra, quot.class_of)
    if is_hom(proj) is not None:
        return False, "projection not a homomorphism"
    if proj.kernel() != H.members:
        return False, "projection kernel differs from H"
    return True, ""


def _congruence_compatible(_, v):
    return vto_congruence_check(v), ""


def _lifts(facts, lift):
    """Lift each very true operator: a lift raises unless the lifted
    operator is very true again."""
    for v in facts.vto:
        lift(v)
    return True, ""


def _quotient_lifts(dsn, v):
    # the systems of dsn that v preserves are enumerate_ds_nv(v), in order;
    # taking them from Facts lets every operator share one H object per
    # system, and with it the quotient the quotients family has built
    for H in dsn:
        if v.preserves(_mask(H.members)):
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
        if transport(g) is not None:
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
    # only MV => BL states a theorem (the join identity gives prelinearity
    # and divisibility); the other four clauses hold by how _classify builds
    # the report: bl is mtl and divisible, mtl and divisible are decided
    # only on FLw (False elsewhere), and flw is bounded and lattice and pp
    r = facts.report
    return (
        (not r.mv or r.bl)
        and (not r.bl or (r.mtl and r.divisible))
        and (not r.mtl or r.flw)
        and (not r.divisible or r.flw)
        and (not r.flw or (r.pp and r.bounded and r.lattice))
    ), ""


def _pp_arithmetic(_, v):
    return (True, "") if vt_pp_suite(v) is None else (False, str(v.names()))


def _mtl_characterization(facts):
    return mtl_characterization(facts.A, facts.vt5), ""


def _mv_characterization(facts):
    return mv_characterization(facts.A, facts.vt5), ""


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
        inner_mask = _mask(inner)
        for m in ops(q2):
            if not m.preserves(inner_mask):
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


FAMILIES = (
    ("derived-laws", None, lambda facts: _verdict(derived_law_suite(facts.A))),
    ("order-agreement", None, _order_agreement),
    ("vto-subset-into", None, _vto_subset_into),
    ("interior-absorption", None, _interior_absorption),
    ("interior-commutation", None, _interior_commutation),
    ("interior-fix-injective", None, lambda facts: _injective(facts.into, fix_points)),
    ("vto-image-injective", None, lambda facts: _injective(facts.vto, image_set)),
    ("vto-composition-commutation", None, _vto_composition_commutation),
    ("vto-arithmetic", None, _each("vto", _vto_arithmetic)),
    ("interior-negation-arithmetic", _bounded, _each("into", _interior_negation)),
    ("hedges", _bounded, _each("vto", _hedges)),
    ("valuation-composition", _bounded, _valuation_composition),
    ("vds-family", None, _each("vto", _vds_family)),
    ("quotients", None, _each("dsn", _quotient)),
    ("quotient-vto", None, lambda facts: _lifts(facts, partial(_quotient_lifts, facts.dsn))),
    ("congruence-compatibility", None, _each("vto", _congruence_compatible)),
    ("regular-lift", _glivenko, lambda facts: _lifts(facts, lift_to_reg)),
    ("dense-quotient-lift", _glivenko, lambda facts: _lifts(facts, lift_to_den_quotient)),
    ("dense-normal-ds", _glivenko, _dense_normal_ds),
    ("homs-preserve", _with_homs, _each("homs", _hom_preserves)),
    ("homs-monotone", _with_homs, _each("homs", _hom_monotone)),
    ("vthom-transport", _with_homs, _each("vto", _vthom_transport)),
    ("class-inclusions", None, _class_inclusions),
    ("pp-arithmetic", _pp, _each("vto", _pp_arithmetic)),
    ("vt4-equivalence", _pp, lambda facts: (vt4_equivalence_check(facts.A, facts.into), "")),
    ("flw-arithmetic", _on_flw, lambda facts: _verdict(flw_arithmetic_suite(facts.A))),
    ("mtl-characterization", _on_flw, _mtl_characterization),
    ("mv-characterization", _on_flw, _mv_characterization),
    ("vto-join-equality", _on_flw, _each("witnessed", _join_equality)),
    ("smarandache-antitone", _bounded, _smarandache_antitone),
)


def run_suite(A: FiniteAlgebra) -> list[SuiteResult]:
    facts = Facts.of(A)
    return [
        SuiteResult(name, *check(facts))
        for name, gate, check in FAMILIES
        if gate is None or gate(facts)
    ]
