"""Residuated-structure classification and Smarandache substructures.

The pseudo-product is always derived from the order: x (.) y is the least
element of {z | x <= y->z}, which is also the least element of
{z | y <= x~>z}, since x <= y->z iff y <= x~>z in every pseudo-BCK
algebra.  Lattice meets and joins likewise come from the derived order;
a missing bound is a classification witness, not an exception.  All
three are read off the order rows of ``FiniteAlgebra.order_masks``.  The
FLw level is decided by theorem: a bounded lattice with a pseudo-product
is a bounded integral residuated lattice (see ``_classify``).

This module runs no search of its own: its operators come from the map
search in ``operators``, and its Smarandache candidates Q from the
closed-set walk ``deduction._closed_sets`` over the implication pair table
``deduction._implication_pairs``, built for each search, from {0, 1}.
"""

from __future__ import annotations

from itertools import product

from ._records import dataclass, fields
from .algebra import (
    FiniteAlgebra,
    Witness,
    _witness,
    first_failure,
    first_witness,
    restrict,
    size_cap,
)
from .deduction import _closed_sets, _implication_pairs, _mask, _members
from .errors import CarrierTooLarge, NotFLw, NotSmarandache, PPRequired
from .operators import UnaryMap, certify_vto, enumerate_vto, is_vto

DEFAULT_SMARANDACHE_CAP = 16


def _row_elements(rows) -> dict[int, int]:
    """Order row -> its element; the rows are distinct by antisymmetry."""
    return {row: x for x, row in enumerate(rows)}


# the pairwise helpers; lattice_tables builds the whole tables and asks
# these only for the witness pair of a non-lattice
def meet(A: FiniteAlgebra, x: int, y: int) -> int | None:
    # the common lower bounds form a down-set, which has a greatest
    # element g iff it is down[g]
    down, _ = A.order_masks()
    return _row_elements(down).get(down[x] & down[y])


def join(A: FiniteAlgebra, x: int, y: int) -> int | None:
    _, up = A.order_masks()
    return _row_elements(up).get(up[x] & up[y])


# loops, not law rows: run on every Smarandache candidate, with rows hoisted
def lattice_tables(A: FiniteAlgebra):
    """(meet table, join table) or (None, witness pair) if not a lattice;
    each entry as ``meet`` and ``join`` give it."""
    down, up = A.order_masks()
    greatest, least = _row_elements(down), _row_elements(up)
    mt, jt = [], []
    for x in A.elements:
        dx, ux = down[x], up[x]
        mrow = tuple([greatest.get(dx & d) for d in down])
        jrow = tuple([least.get(ux & u) for u in up])
        if None in mrow or None in jrow:
            # the witness: the first y whose bound with x is missing
            return None, (x, next(y for y in A.elements
                                  if meet(A, x, y) is None or join(A, x, y) is None))
        mt.append(mrow)
        jt.append(jrow)
    return (tuple(mt), tuple(jt)), None


# loops, not law rows: run on every Smarandache candidate, with rows hoisted
def _odot_table(A: FiniteAlgebra):
    """(product table, None) or (None, first failing pair).

    {z | x <= y->z} is an up-set, since -> is monotone in its second
    argument, so it has a least element m iff it is up[m], and then
    x (.) y = m.  The set equals {z | y <= x~>z}, since x <= y->z iff
    y <= x~>z, so one mask per pair decides both.  It is the union, over
    v in up(x), of the fibre {z | y->z = v}.
    """
    rng = A.elements
    _, up = A.order_masks()
    least = _row_elements(up)
    fibres = []
    for row in A.arrow:
        fibre = [0] * A.n
        for z, v in enumerate(row):
            fibre[v] |= 1 << z
        fibres.append(fibre)
    table = []
    for x in rng:
        above = A.up_set(x)
        trow = []
        for y in rng:
            fibre, mask = fibres[y], 0
            for v in above:
                mask |= fibre[v]
            m = least.get(mask)
            if m is None:
                return None, (x, y)
            trow.append(m)
        table.append(tuple(trow))
    return tuple(table), None


def pseudo_product(A: FiniteAlgebra):
    """(product table, None) or (None, first failing pair), derived once
    per algebra instance and kept in ``A.memo``."""
    memo = A.memo
    if "odot" not in memo:
        memo["odot"] = _odot_table(A)
    return memo["odot"]


@dataclass(frozen=True)
class ClassificationReport:
    bounded: bool
    lattice: bool
    pp: bool
    flw: bool
    mtl: bool
    divisible: bool
    bl: bool
    mv: bool
    witnesses: tuple[tuple[str, str], ...] = ()

    def witness(self, level: str) -> str | None:
        return dict(self.witnesses).get(level)

    def levels(self) -> dict[str, bool]:
        """Each class level by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witnesses"}


def classify(A: FiniteAlgebra) -> ClassificationReport:
    """The class tower of ``A``, derived once per algebra instance."""
    memo = A.memo
    if "classify" not in memo:
        memo["classify"] = _classify(A)
    return memo["classify"]


def _classify(A: FiniteAlgebra) -> ClassificationReport:
    """FLw is bounded and lattice and pP, by theorem: the unit law and
    residuation hold because of how (.) is defined (x (.) y <= z iff
    x <= y->z iff y <= x~>z), and associativity follows from
    (x (.) y)->z = x->(y->z) in pseudo-BCK(pP) algebras.
    ``flw_arithmetic_suite`` checks these statements."""
    wit: list[tuple[str, str]] = []

    def name_pair(t):
        return ",".join(A.name(v) for v in t)

    bounded = A.zero is not None
    if not bounded:
        wit.append(("bounded", "no bottom element"))

    lat, lat_wit = lattice_tables(A)
    lattice = lat is not None
    if not lattice:
        wit.append(("lattice", f"no bound for ({name_pair(lat_wit)})"))

    od, pp_wit = pseudo_product(A)
    pp = od is not None
    if not pp:
        wit.append(("pp", f"no pseudo-product at ({name_pair(pp_wit)})"))

    flw = bounded and lattice and pp
    if not flw and (bounded or lattice or pp):
        wit.append(("flw", "requires bounded + lattice + pseudo-product"))

    found = []
    if flw:
        ar, sq, one, (mt, jt) = A.arrow, A.squig, A.one, lat
        for level, law, holds in (
            ("mtl", "prelinearity",
             lambda x, y: jt[ar[x][y]][ar[y][x]] == one == jt[sq[x][y]][sq[y][x]]),
            ("divisible", "divisibility",
             lambda x, y: od[ar[x][y]][x] == mt[x][y] == od[x][sq[x][y]]),
            ("mv", "join identity",
             lambda x, y: jt[x][y] == sq[ar[x][y]][y] == ar[sq[x][y]][y]),
        ):
            bad = first_failure(A, 2, holds)
            if bad is not None:
                wit.append((level, f"{law} fails at ({name_pair(bad)})"))
            found.append(bad is None)
    mtl, divisible, mv = found or (False, False, False)
    return ClassificationReport(
        bounded, lattice, pp, flw, mtl, divisible, mtl and divisible, mv, tuple(wit)
    )


# -- very true operators on the richer classes ------------------------


# loops, not law rows: a kernel run on every interior operator, with rows hoisted
def _vt4_prime(A, im) -> Witness | None:
    els, ar, sq, one = A.elements, A.arrow, A.squig, A.one
    for x in els:
        arx, sqx, arvx, sqvx = ar[x], sq[x], ar[im[x]], sq[im[x]]
        for y in els:
            # rows of v(x->y) and v(x~>y) on the left of <=
            left_ar, left_sq, vy = ar[im[arx[y]]], ar[im[sqx[y]]], im[y]
            for z in els:
                vz = im[z]
                if left_ar[arvx[ar[vz][vy]]] != one or left_sq[sqvx[sq[vz][vy]]] != one:
                    return _witness(A, "vt4-prime", (x, y, z))
    return None


# loops, not law rows: a kernel run on every interior operator, with rows hoisted
def _vt4_dprime(A, od, im) -> Witness | None:
    els, ar, one = A.elements, A.arrow, A.one
    for x in els:
        odx, odvx = od[x], od[im[x]]
        for y in els:
            if ar[odvx[im[y]]][im[odx[y]]] != one:
                return _witness(A, "pp-submult", (x, y))
    return None


def vt_pp_suite(v: UnaryMap) -> Witness | None:
    """Product arithmetic of a very true operator on a pseudo-product
    algebra: None, or the first (x, y, z) at which ``pp-transfer``
    (x(.)y <= z  =>  v(x)(.)v(y) <= v(z)) fails.

    VT4' and VT4'', the two other formulations of VT4, are not evaluated
    here: ``vt4_equivalence_check`` compares both with ``is_vto`` on every
    interior operator that fixes 1, and every very true operator is one.
    """
    A = v.parent
    od, _ = pseudo_product(A)
    if od is None:
        raise PPRequired("algebra has no pseudo-product")
    im = certify_vto(v).image
    els, ar, one = A.elements, A.arrow, A.one
    for x, y in product(els, repeat=2):
        row, vrow = ar[od[x][y]], ar[od[im[x]][im[y]]]
        z = next((z for z in els if row[z] == one and vrow[im[z]] != one), None)
        if z is not None:
            return _witness(A, "pp-transfer", (x, y, z))
    return None


def vt4_equivalence_check(A: FiniteAlgebra, ops) -> bool:
    """The three sub-multiplicativity formulations agree extensionally.

    Quantified over all monotone decreasing idempotent maps fixing 1 (the
    hypotheses shared by all three formulations) on a pseudo-product
    algebra: ``ops`` are the interior operators on A, as
    ``operators.enumerate_interior(A)`` gives them.
    """
    od, _ = pseudo_product(A)
    if od is None:
        raise PPRequired("algebra has no pseudo-product")
    for f in ops:
        if f.image[A.one] != A.one:
            continue
        # f fixes 1 and is decreasing and idempotent, so VT1-VT3 hold
        a = is_vto(f) is None
        if (
            a != (_vt4_prime(A, f.image) is None)
            or a != (_vt4_dprime(A, od, f.image) is None)
        ):
            return False
    return True


def _require_flw(A: FiniteAlgebra) -> ClassificationReport:
    report = classify(A)
    if not report.flw:
        raise NotFLw("algebra is not a bounded integral residuated lattice")
    return report


def is_vto_flw(v: UnaryMap) -> Witness | None:
    """VT1-VT4 plus the join axiom VT5; on success the equality variant holds."""
    _require_flw(v.parent)
    w = is_vto(v)
    if w is not None:
        return w
    (_, jt), _ = lattice_tables(v.parent)
    return _vto_flw_witness(jt, v)


def _vto_flw_witness(jt, v: UnaryMap) -> Witness | None:
    """VT5, then its equality variant, for a very true v; jt is the join table."""
    A, im, leq = v.parent, v.image, v.parent.leq
    return first_witness(A, (
        ("VT5", 2, lambda x, y: leq(im[jt[x][y]], jt[im[x]][im[y]])),
        # VT5 + monotonicity force equality over joins
        ("VT5-equality", 2, lambda x, y: im[jt[x][y]] == jt[im[x]][im[y]]),
    ))


def enumerate_vto_flw(A: FiniteAlgebra) -> list[UnaryMap]:
    _require_flw(A)
    vto = enumerate_vto(A)
    (_, jt), _ = lattice_tables(A)
    return [v for v in vto if _vto_flw_witness(jt, v) is None]


def _every_vto_flw(A: FiniteAlgebra, ops, holds):
    """(whether ``holds(im, jt, x, y)`` for the image vector im of every
    operator in ``ops`` and every pair x, y, A's class tower); jt is the
    join table."""
    report = _require_flw(A)
    (_, jt), _ = lattice_tables(A)
    pairs = list(product(A.elements, repeat=2))
    return all(holds(v.image, jt, x, y) for v in ops for x, y in pairs), report


def mtl_characterization(A: FiniteAlgebra, ops) -> bool:
    """Prelinearity holds iff every join-compatible operator splits 1:
    whether the two sides agree.

    ``ops`` are the VT1-VT5 operators on A, as ``enumerate_vto_flw(A)``
    gives them.  Left: every v in ``ops`` satisfies
    v(x->y) v v(y->x) = 1 (and the ~> twin).  Right: prelinearity.
    """
    ar, sq, one = A.arrow, A.squig, A.one

    def splits_one(im, jt, x, y):
        return (
            jt[im[ar[x][y]]][im[ar[y][x]]] == one
            and jt[im[sq[x][y]]][im[sq[y][x]]] == one
        )

    left, report = _every_vto_flw(A, ops, splits_one)
    return left == report.mtl


def mv_characterization(A: FiniteAlgebra, ops) -> bool:
    """Involutive join identities hold for all operators iff the algebra is
    MV: whether the two sides agree.

    ``ops`` are the VT1-VT5 operators on A, as for ``mtl_characterization``.
    """
    ar, sq = A.arrow, A.squig

    def join_identity(im, jt, x, y):
        j = im[jt[x][y]]
        return j == sq[ar[im[x]][im[y]]][im[y]] == ar[sq[im[x]][im[y]]][im[y]]

    left, report = _every_vto_flw(A, ops, join_identity)
    return left == report.mv


# -- Smarandache substructures -----------------------------------------


def smarandache_search(A: FiniteAlgebra):
    """All proper implication-closed Q with 0,1 in Q, |Q| >= 3, whose
    induced structure is a pseudo-MTL algebra.

    Returns (Q, induced subalgebra, ClassificationReport) triples ordered
    by (cardinality, bitset value).
    """
    if A.zero is None:
        raise NotSmarandache("Smarandache structures need a bounded algebra")
    cap = size_cap(DEFAULT_SMARANDACHE_CAP)
    if A.n > cap:
        raise CarrierTooLarge(f"carrier size {A.n} exceeds subset cap {cap}")
    results = []
    for mask in _closed_sets(A, _implication_pairs(A), 1 << A.one | 1 << A.zero):
        if not 3 <= bin(mask).count("1") < A.n:
            continue
        q = _members(A, mask)
        sub = A.subalgebra(q)
        report = classify(sub)
        if report.mtl:
            results.append((q, sub, report))
    return results


def _certify_smarandache(A: FiniteAlgebra, q) -> FiniteAlgebra:
    q = frozenset(q)
    if A.zero is None or A.zero not in q or A.one not in q:
        raise NotSmarandache("Q must contain both constants")
    if not 3 <= len(q) < A.n:
        raise NotSmarandache("Q must be proper with at least 3 elements")
    if A.unclosed_pair(q) is not None:
        raise NotSmarandache("Q is not closed under the implications")
    sub = A.subalgebra(q)
    if not classify(sub).mtl:
        raise NotSmarandache("Q does not carry a pseudo-MTL structure")
    return sub


def svto(A: FiniteAlgebra, q) -> list[UnaryMap]:
    """All VT1-VT5 operators on the substructure Q, lexicographic order."""
    return enumerate_vto_flw(_certify_smarandache(A, q))


def restrict_vto(v: UnaryMap, q):
    """(restriction of v to Q, None) or (None, reason)."""
    certify_vto(v)
    q = frozenset(q)
    sub = _certify_smarandache(v.parent, q)
    if not v.preserves(_mask(q)):
        return None, "v does not map Q into Q"
    restr = UnaryMap(sub, restrict(v.image, q))
    w = is_vto_flw(restr)
    if w is not None:
        return None, f"restriction fails {w}"
    return restr, None


# loops, not law rows: one pass over the triples tests several laws at once
def flw_arithmetic_suite(A: FiniteAlgebra) -> Witness | None:
    """Residuated-lattice arithmetic that must hold on every certified
    bounded integral residuated lattice (first counterexample or None).

    The first checks state the theorems by which ``_classify`` decides FLw:
    the unit law, associativity, residuation, and (x (.) y)->z = x->(y->z)
    with its twin (x (.) y)~>z = y~>(x~>z); a <= b is read as a->b = 1.
    """
    _require_flw(A)
    od, _ = pseudo_product(A)
    (mt, jt), _ = lattice_tables(A)
    ar, sq, leq, one = A.arrow, A.squig, A.leq, A.one
    for x in A.elements:
        if od[x][one] != x or od[one][x] != x:
            return _witness(A, "unit", (x,))
    for x, y, z in product(A.elements, repeat=3):
        xy = od[x][y]
        if od[xy][z] != od[x][od[y][z]]:
            return _witness(A, "associativity", (x, y, z))
        if not (ar[xy][z] == one) == (ar[x][ar[y][z]] == one) == (ar[y][sq[x][z]] == one):
            return _witness(A, "residuation", (x, y, z))
        if ar[xy][z] != ar[x][ar[y][z]] or sq[xy][z] != sq[y][sq[x][z]]:
            return _witness(A, "product-implication", (x, y, z))
    for x, y in product(A.elements, repeat=2):
        if not leq(od[x][y], x) or not leq(od[x][y], y):
            return _witness(A, "product-below-factors", (x, y))
    for x, y, z in product(A.elements, repeat=3):
        if not (
            leq(ar[x][y], ar[od[x][z]][od[y][z]])
            and leq(ar[od[x][z]][od[y][z]], ar[x][ar[z][y]])
            and leq(sq[x][y], sq[od[z][x]][od[z][y]])
            and leq(sq[od[z][x]][od[z][y]], sq[x][sq[z][y]])
        ):
            return _witness(A, "product-monotone", (x, y, z))
        if not leq(od[ar[x][y]][x], mt[x][y]) or not leq(od[x][sq[x][y]], mt[x][y]):
            return _witness(A, "semidivisibility", (x, y))
        if (
            mt[ar[x][z]][ar[y][z]] != ar[jt[x][y]][z]
            or mt[sq[x][z]][sq[y][z]] != sq[jt[x][y]][z]
        ):
            return _witness(A, "join-to-meet", (x, y, z))
        if not (
            leq(jt[x][y], mt[sq[ar[x][y]][y]][sq[ar[y][x]][x]])
            and leq(jt[x][y], mt[ar[sq[x][y]][y]][ar[sq[y][x]][x]])
        ):
            return _witness(A, "join-bound", (x, y))
    return None
