"""The workbench text format: algebras, maps, valuations and subsets.

One document holds any number of named objects.  An algebra block gives the
carrier and the two implication tables by element name; dependent objects
reference an algebra with ``on <name>``:

    # four-element example
    algebra A
      elements: 1 a b c
      one: 1
      zero: a
      arrow:
        1 a b c
        1 1 1 1
        1 a 1 c
        1 b 1 1
      squig:
        1 a b c
        1 1 1 1
        1 c 1 c
        1 c 1 1

    map v1 on A: 1 a a a
    valuation phi on A: 1=0 a=3 b=1 c=2
    subset D on A: 1 b

Tables are row-major in the ``elements:`` order.  Valuation entries are
``name=p``, ``name=p/q`` or a finite decimal such as ``name=0.25`` (exact
rationals, no exponent, nothing past the interpreter's int digit limit).
``#`` starts a comment.
Every algebra is certified before any dependent object is resolved; all
problems are reported as :class:`ParseError` with 1-based line and column.
"""

from __future__ import annotations

from ._records import dataclass, field
from .algebra import FiniteAlgebra, diagnose, validate
from .errors import NotCertified, ParseError


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    column: int


@dataclass
class AlgebraBlock:
    """Raw, unresolved algebra block (for diagnosis without certification)."""

    name: Token
    elements: list[Token] = field(default_factory=list)
    one: Token | None = None
    zero: Token | None = None
    arrow: list[list[Token]] = field(default_factory=list)
    squig: list[list[Token]] = field(default_factory=list)


@dataclass
class RawDocument:
    blocks: dict[str, AlgebraBlock]
    maps: dict[str, tuple[Token, list[Token]]]
    valuations: dict[str, tuple[Token, list[Token]]]
    subsets: dict[str, tuple[Token, list[Token]]]


@dataclass
class WorkbenchDocument:
    algebras: dict[str, FiniteAlgebra]
    maps: dict[str, tuple[str, UnaryMap]]
    valuations: dict[str, tuple[str, PseudoValuation]]
    subsets: dict[str, tuple[str, frozenset[int]]]


def _tokenize(text: str) -> list[list[Token]]:
    """Comment-stripped lines as token lists (empty lines kept as [])."""
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = []
        col = 0
        for word in body.split():
            col = body.index(word, col)
            toks.append(Token(word, ln, col + 1))
            col += len(word)
        lines.append(toks)
    return lines


def _fail(msg: str, tok: Token | None = None):
    if tok is None:
        raise ParseError(msg)
    raise ParseError(msg, tok.line, tok.column)


def parse_raw(text: str) -> RawDocument:
    """Structural pass: blocks and statements, no name resolution."""
    lines = _tokenize(text)
    blocks: dict[str, AlgebraBlock] = {}
    maps: dict[str, tuple[Token, list[Token]]] = {}
    valuations: dict[str, tuple[Token, list[Token]]] = {}
    subsets: dict[str, tuple[Token, list[Token]]] = {}
    current: AlgebraBlock | None = None
    table: list[list[Token]] | None = None

    def new_name(tok: Token) -> str:
        for pool in (blocks, maps, valuations, subsets):
            if tok.text in pool:
                _fail(f"duplicate definition of {tok.text!r}", tok)
        return tok.text

    def stmt(kind: str, toks: list[Token]):
        # "<kind> <name> on <algebra>: <payload...>"
        if len(toks) < 4 or toks[2].text != "on":
            _fail(f"expected '{kind} <name> on <algebra>: ...'", toks[0])
        target = toks[3]
        if not target.text.endswith(":"):
            _fail("expected ':' after the algebra name", target)
        target = Token(target.text[:-1], target.line, target.column)
        if not target.text:
            _fail("missing algebra name", toks[3])
        return new_name(toks[1]), (target, toks[4:])

    for toks in lines:
        if not toks:
            continue
        head = toks[0]
        if head.text == "algebra":
            if len(toks) != 2:
                _fail("expected 'algebra <name>'", head)
            current = AlgebraBlock(name=toks[1])
            blocks[new_name(toks[1])] = current
            table = None
            continue
        if head.text in ("map", "valuation", "subset"):
            current, table = None, None
            name, payload = stmt(head.text, toks)
            {"map": maps, "valuation": valuations, "subset": subsets}[
                head.text
            ][name] = payload
            continue
        if head.text in ("elements:", "one:", "zero:", "arrow:", "squig:"):
            if current is None:
                _fail(f"{head.text!r} outside an algebra block", head)
            key = head.text[:-1]
            if key in ("arrow", "squig"):
                table = getattr(current, key)
                if table:
                    _fail(f"duplicate {key} table", head)
                if len(toks) > 1:
                    _fail(f"{head.text!r} rows start on the next line", toks[1])
                continue
            if getattr(current, key):
                _fail(f"duplicate {head.text!r} entry", head)
            if key == "elements":
                if len(toks) < 2:
                    _fail("empty element list", head)
                current.elements = toks[1:]
            else:
                if len(toks) != 2:
                    _fail(f"expected '{head.text} <element>'", head)
                setattr(current, key, toks[1])
            table = None
            continue
        if table is not None:
            table.append(toks)
            continue
        _fail(f"unrecognized directive {head.text!r}", head)

    if not blocks:
        raise ParseError("no algebra defined")
    return RawDocument(blocks, maps, valuations, subsets)


def _element_ids(block: AlgebraBlock):
    """(element names, ``elem``) of a block: ``elem`` maps an element token
    to its id and fails located at an unknown name.  Duplicate names are
    left to the caller."""
    if not block.elements:
        _fail("algebra block is missing 'elements:'", block.name)
    names = tuple(t.text for t in block.elements)
    idx = {s: i for i, s in enumerate(names)}

    def elem(tok: Token) -> int:
        if tok.text not in idx:
            _fail(f"unknown element {tok.text!r}", tok)
        return idx[tok.text]

    return names, elem


def _resolve_algebra(block: AlgebraBlock) -> FiniteAlgebra:
    names, elem = _element_ids(block)
    seen = set()
    for t in block.elements:
        if t.text in seen:
            _fail(f"duplicate element name {t.text!r}", t)
        seen.add(t.text)
    if block.one is None:
        _fail("algebra block is missing 'one:'", block.name)
    one = elem(block.one)
    zero = elem(block.zero) if block.zero is not None else None

    def table(rows: list[list[Token]], label: str):
        if len(rows) != len(names):
            _fail(
                f"{label} table needs {len(names)} rows, got {len(rows)}",
                rows[0][0] if rows else block.name,
            )
        out = []
        for row in rows:
            if len(row) != len(names):
                _fail(
                    f"{label} row needs {len(names)} entries, got {len(row)}",
                    row[0],
                )
            out.append(tuple(elem(t) for t in row))
        return tuple(out)

    arrow = table(block.arrow, "arrow")
    squig = table(block.squig, "squig")
    try:
        return validate(names, one, arrow, squig, zero=zero)
    except NotCertified as exc:
        _fail(f"algebra {block.name.text!r} fails certification: {exc}", block.name)


def parse(text: str) -> WorkbenchDocument:
    # maps are built here alone: parse_raw/diagnose_raw (psbck validate)
    # do not load psbck.operators
    from .operators import UnaryMap

    raw = parse_raw(text)
    algebras = {name: _resolve_algebra(b) for name, b in raw.blocks.items()}

    def owner(tok: Token) -> tuple[str, FiniteAlgebra]:
        if tok.text not in algebras:
            _fail(f"unknown algebra {tok.text!r}", tok)
        return tok.text, algebras[tok.text]

    def elem(A: FiniteAlgebra, tok: Token) -> int:
        try:
            return A.index(tok.text)
        except KeyError:
            _fail(f"unknown element {tok.text!r}", tok)

    maps = {}
    for name, (target, toks) in raw.maps.items():
        aname, A = owner(target)
        if len(toks) != A.n:
            _fail(f"map needs {A.n} values, got {len(toks)}", target)
        maps[name] = (aname, UnaryMap(A, tuple(elem(A, t) for t in toks)))

    valuations = {}
    if raw.valuations:
        # only a document with a valuation block loads fractions and
        # psbck.valuations
        from fractions import Fraction

        from .valuations import PseudoValuation, is_pseudo_valuation

        for name, (target, toks) in raw.valuations.items():
            aname, A = owner(target)
            values = [None] * A.n
            for t in toks:
                part = t.text.split("=", 1)
                if len(part) != 2:
                    _fail("expected '<element>=<rational>'", t)
                x = elem(A, Token(part[0], t.line, t.column))
                # no exponent: Fraction would build 10**k in full, whatever k is
                if "e" in part[1].lower():
                    _fail(f"bad rational {part[1]!r}", t)
                try:
                    q = Fraction(part[1])
                    str(q)  # past the interpreter's int digit limit it cannot be printed
                except (ValueError, ZeroDivisionError):
                    _fail(f"bad rational {part[1]!r}", t)
                if values[x] is not None:
                    _fail(f"duplicate entry for {part[0]!r}", t)
                values[x] = q
            missing = [A.name(x) for x in A.elements if values[x] is None]
            if missing:
                _fail(f"valuation misses elements: {', '.join(missing)}", target)
            w = is_pseudo_valuation(A, values)
            if w is not None:
                _fail(f"valuation {name!r} fails {w}", target)
            valuations[name] = (aname, PseudoValuation(A, tuple(values)))

    subsets = {}
    for name, (target, toks) in raw.subsets.items():
        aname, A = owner(target)
        members = []
        for t in toks:
            x = elem(A, t)
            if x in members:
                _fail(f"duplicate member {t.text!r}", t)
            members.append(x)
        subsets[name] = (aname, frozenset(members))

    return WorkbenchDocument(algebras, maps, valuations, subsets)


def diagnose_raw(raw: RawDocument) -> dict[str, list]:
    """Axiom diagnostics per algebra block, bypassing certification.

    Structural problems still raise ParseError; the point is to report
    axiom violations instead of refusing to build the document.
    """
    out = {}
    for name, block in raw.blocks.items():
        names, elem = _element_ids(block)
        if block.one is None:
            _fail("algebra block is missing 'one:'", block.name)
        rows = {}
        for label in ("arrow", "squig"):
            table = getattr(block, label)
            if len(table) != len(names) or any(
                len(r) != len(names) for r in table
            ):
                _fail(f"{label} table is not square", block.name)
            rows[label] = tuple(tuple(elem(t) for t in r) for r in table)
        zero = elem(block.zero) if block.zero is not None else None
        out[name] = diagnose(
            names, elem(block.one), rows["arrow"], rows["squig"], zero
        )
    return out


# -- serialization -------------------------------------------------------


def serialize_algebra(A: FiniteAlgebra, name: str) -> str:
    width = max(len(s) for s in A.element_names)

    def row(ids):
        return "    " + " ".join(A.name(v).ljust(width) for v in ids).rstrip()

    lines = [f"algebra {name}"]
    lines.append("  elements: " + " ".join(A.element_names))
    lines.append(f"  one: {A.name(A.one)}")
    if A.zero is not None:
        lines.append(f"  zero: {A.name(A.zero)}")
    lines.append("  arrow:")
    lines.extend(row(r) for r in A.arrow)
    lines.append("  squig:")
    lines.extend(row(r) for r in A.squig)
    return "\n".join(lines) + "\n"


def serialize_map(f: UnaryMap, name: str, algebra_name: str) -> str:
    return f"map {name} on {algebra_name}: " + " ".join(f.names()) + "\n"


def serialize_document(doc: WorkbenchDocument) -> str:
    parts = [serialize_algebra(a, name) for name, a in doc.algebras.items()]
    for name, (aname, f) in doc.maps.items():
        parts.append(serialize_map(f, name, aname))
    for name, (aname, phi) in doc.valuations.items():
        A = doc.algebras[aname]
        entries = " ".join(
            f"{A.name(x)}={phi.values[x]}" for x in A.elements
        )
        parts.append(f"valuation {name} on {aname}: {entries}\n")
    for name, (aname, members) in doc.subsets.items():
        A = doc.algebras[aname]
        entries = " ".join(A.name(x) for x in sorted(members))
        parts.append(f"subset {name} on {aname}: {entries}\n")
    return "\n".join(parts)
