"""Command line front end for the workbench.

Reads one document file per invocation and runs a single command against
it.  Reports go to stdout (plain text, or JSON with ``--json``); errors go
to stderr with a stable code.  Exit status: 0 on success, 1 when a checked
property fails, 2 on input problems, 3 on an internal error (a bug in the
workbench, not in the input).

Only what parsing and error reporting need is imported here; each command
imports the library module it runs, so a command loads no module it does not
use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import WellDefinednessFailure, WorkbenchError
from .textfmt import (
    WorkbenchDocument,
    diagnose_raw,
    parse,
    parse_raw,
    serialize_algebra,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CommandError(WorkbenchError):
    code = "E_USAGE"


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CommandError(
            f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


def _pick_algebra(doc: WorkbenchDocument, name: str | None):
    if name is None:
        if len(doc.algebras) != 1:
            raise CommandError(
                "document defines several algebras; pick one with --algebra"
            )
        return next(iter(doc.algebras.items()))
    if name not in doc.algebras:
        raise CommandError(f"no algebra named {name!r}")
    return name, doc.algebras[name]


def _named(doc: WorkbenchDocument, kind: str, aname: str, name: str | None, flag: str):
    """The document's map, subset or valuation (``kind``) called ``name``,
    which must live on the algebra ``aname``."""
    if name is None:
        raise CommandError(f"this command requires {flag} <{kind} name>")
    table = {"map": doc.maps, "subset": doc.subsets, "valuation": doc.valuations}[kind]
    if name not in table:
        raise CommandError(f"no {kind} named {name!r}")
    owner, obj = table[name]
    if owner != aname:
        raise CommandError(f"{kind} {name!r} lives on algebra {owner!r}")
    return obj


def _named_vto(doc, aname, name):
    from . import operators

    return operators.certify_vto(_named(doc, "map", aname, name, "--vto"))


def _emit(payload: dict, text_lines, as_json: bool):
    if as_json:
        print(json.dumps({"schema": 1, **payload}, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- commands ------------------------------------------------------------


def cmd_validate(args) -> int:
    raw = parse_raw(_read(args.file))
    report = diagnose_raw(raw)
    payload = {"command": "validate", "algebras": {}}
    lines = []
    bad = False
    for name, diags in report.items():
        payload["algebras"][name] = {
            "certified": not diags,
            "diagnostics": [
                {"axiom": d.axiom, "witness": list(d.elements), "detail": d.detail}
                for d in diags
            ],
        }
        if diags:
            bad = True
            lines.append(f"{name}: NOT CERTIFIED")
            lines.extend(f"  {d}" for d in diags)
        else:
            lines.append(f"{name}: certified")
    _emit(payload, lines, args.json)
    return EXIT_PROPERTY if bad else EXIT_OK


def cmd_props(args) -> int:
    from . import classes
    from .algebra import derived_law_suite

    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    report = classes.classify(A)
    payload = {
        "command": "props",
        "algebra": aname,
        "size": A.n,
        "bounded": A.bounded,
        "linear": A.is_linear(),
        "good": A.is_good() if A.bounded else None,
        "involutive": A.is_involutive() if A.bounded else None,
        "glivenko": A.is_glivenko() if A.bounded else None,
        "regular": sorted(A.name(x) for x in A.regular_elements())
        if A.bounded
        else None,
        "dense": sorted(A.name(x) for x in A.dense_elements())
        if A.bounded
        else None,
        "classification": report.levels(),
        "classification_witnesses": dict(report.witnesses),
        "derived_laws_ok": derived_law_suite(A) is None,
    }
    lines = [f"algebra {aname}: {A.n} elements"]
    for key in ("bounded", "linear", "good", "involutive", "glivenko"):
        if payload[key] is not None:
            lines.append(f"  {key}: {'yes' if payload[key] else 'no'}")
    if A.bounded:
        lines.append("  regular: {" + ", ".join(payload["regular"]) + "}")
        lines.append("  dense: {" + ", ".join(payload["dense"]) + "}")
    for level, ok in report.levels().items():
        note = "" if ok else f"  ({report.witness(level)})" if report.witness(level) else ""
        lines.append(f"  class {level}: {'yes' if ok else 'no'}{note}")
    lines.append(
        "  derived laws: "
        + ("all pass" if payload["derived_laws_ok"] else "FAIL")
    )
    _emit(payload, lines, args.json)
    return EXIT_OK if payload["derived_laws_ok"] else EXIT_PROPERTY


def _enum_table(args, doc, aname, A, payload):
    """(title, payload key, items, item -> JSON, item -> text) for the
    kind ``psbck enum`` was asked for; svto also records its Q in
    ``payload``."""
    kind = args.kind
    as_maps = (lambda f: list(f.names()), lambda f: " ".join(f.names()))
    if kind in ("into", "clo", "vto"):
        from . import operators

        fn = {
            "into": operators.enumerate_interior,
            "clo": operators.enumerate_closure,
            "vto": operators.enumerate_vto,
        }[kind]
        return f"{kind} maps on {aname}", "maps", fn(A), *as_maps
    if kind in ("ds", "dsn", "dsv"):
        from . import deduction

        if kind == "dsv":
            fam = deduction.enumerate_ds_v(_named_vto(doc, aname, args.vto))
        elif kind == "dsn":
            fam = deduction.enumerate_ds_n(A)
        else:
            fam = deduction.enumerate_ds(A)
        return (
            f"{kind} on {aname}",
            "systems",
            fam,
            lambda d: {"members": list(d.names()), "normal": d.normal},
            lambda d: "{" + ", ".join(d.names()) + "}" + (" normal" if d.normal else ""),
        )
    if kind == "hom":
        from . import morphisms

        return f"endomorphisms of {aname}", "maps", morphisms.enumerate_hom(A, A), *as_maps
    if kind == "vthom":
        from . import morphisms

        v = _named_vto(doc, aname, args.vto)
        homs = morphisms.enumerate_vthom(A, v, A, v)
        return f"very true endomorphisms of ({aname},{args.vto})", "maps", homs, *as_maps
    if kind == "cong":
        from . import deduction

        def blocks(q):
            return [[A.name(x) for x in q.class_members(c)] for c in range(q.algebra.n)]

        return (
            f"congruences of {aname}",
            "congruences",
            deduction.enumerate_congruences(A),
            lambda q: {"by": list(q.by.names()), "classes": blocks(q)},
            lambda q: f"by {{{', '.join(q.by.names())}}}: "
            + " ".join("{" + ",".join(b) + "}" for b in blocks(q)),
        )
    if kind == "smarandache":
        from . import classes

        def names(q):
            return sorted(A.name(x) for x in q)

        found = [q for q, _, _ in classes.smarandache_search(A)]
        title = f"substructure candidates in {aname}"
        return title, "subsets", found, names, lambda q: "{" + ", ".join(names(q)) + "}"
    # svto: subalgebra raises E_MALFORMED on an unclosed Q before svto runs
    from . import classes

    members = _named(doc, "subset", aname, args.q, "--q")
    sub = A.subalgebra(members)
    maps = classes.svto(A, members)
    payload["q"] = [sub.name(x) for x in sub.elements]
    title = f"substructure operators on {{{', '.join(payload['q'])}}}"
    return title, "maps", maps, *as_maps


def cmd_enum(args) -> int:
    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    payload = {"command": "enum", "kind": args.kind, "algebra": aname}
    title, key, items, as_json, as_text = _enum_table(args, doc, aname, A, payload)
    payload[key] = [as_json(item) for item in items]
    payload["count"] = len(items)
    lines = [f"{title} ({len(items)}):"] + [f"  {as_text(item)}" for item in items]
    _emit(payload, lines, args.json)
    return EXIT_OK


def _quotient_payload(A, quot):
    return {
        "by": list(quot.by.names()),
        "algebra": serialize_algebra(quot.algebra, "Q"),
        "class_of": {
            A.name(x): quot.algebra.name(quot.class_of[x]) for x in A.elements
        },
    }


def cmd_quotient(args) -> int:
    from . import deduction

    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    members = _named(doc, "subset", aname, args.ds, "--ds")
    H = deduction.DeductiveSystem.from_members(A, members)
    quot = deduction.congruence_from(A, H)
    payload = {"command": "quotient", "algebra": aname, **_quotient_payload(A, quot)}
    lines = [f"quotient of {aname} by {{{', '.join(H.names())}}}:"]
    lines.extend("  " + ln for ln in payload["algebra"].rstrip().splitlines())
    lines.append("  classes:")
    lines.extend(
        f"    {x} -> {cls}" for x, cls in payload["class_of"].items()
    )
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_lift(args) -> int:
    from . import deduction

    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    v = _named_vto(doc, aname, args.vto)
    members = _named(doc, "subset", aname, args.ds, "--ds")
    H = deduction.DeductiveSystem.from_members(A, members)
    quot, lifted = deduction.lift_vto_to_quotient(v, H)
    payload = {
        "command": "lift",
        "algebra": aname,
        **_quotient_payload(A, quot),
        "lifted": list(lifted.names()),
    }
    lines = [
        f"lift of {args.vto} to {aname}/{{{', '.join(H.names())}}}:",
        "  operator: " + " ".join(lifted.names()),
    ]
    lines.extend("  " + ln for ln in payload["algebra"].rstrip().splitlines())
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_hedges(args) -> int:
    from . import operators

    doc = parse(_read(args.file))
    aname, _ = _pick_algebra(doc, args.algebra)
    v = _named_vto(doc, aname, args.vto)
    s1, s2 = operators.sigma_hedges(v)
    w = operators.is_vtst(v, s1, s2)
    payload = {
        "command": "hedges",
        "algebra": aname,
        "vto": args.vto,
        "sigma1": list(s1.names()),
        "sigma2": list(s2.names()),
        "certified": w is None,
    }
    lines = [
        f"hedges for {args.vto} on {aname}:",
        "  sigma1: " + " ".join(s1.names()),
        "  sigma2: " + " ".join(s2.names()),
        "  hedge axioms: " + ("pass" if w is None else f"FAIL {w}"),
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK if w is None else EXIT_PROPERTY


def cmd_factor(args) -> int:
    from . import deduction, morphisms

    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    v = _named_vto(doc, aname, args.vto)
    u = _named_vto(doc, aname, args.target_vto) if args.target_vto else v
    f = _named(doc, "map", aname, args.map, "--map")
    members = _named(doc, "subset", aname, args.ds, "--ds")
    H = deduction.DeductiveSystem.from_members(A, members)
    g = morphisms.VtHomomorphism(morphisms.Homomorphism(A, A, f.image), v, u)
    res = morphisms.factor(g, H)
    payload = {
        "command": "factor",
        "algebra": aname,
        "by": list(H.names()),
        "factored": [A.name(x) for x in res.factored.base.map],
        "lifted_operator": list(res.lifted_operator.names()),
        "unique": res.unique,
        "image_preserved": res.image_preserved,
        "kernel_is_quotient_of_kernel": res.kernel_is_quotient_of_kernel,
        "quotient": serialize_algebra(res.quotient.algebra, "Q"),
    }
    ok = res.unique and res.image_preserved and res.kernel_is_quotient_of_kernel
    lines = [
        f"factor {args.map} through {aname}/{{{', '.join(H.names())}}}:",
        "  induced map: " + " ".join(payload["factored"]),
        "  lifted operator: " + " ".join(payload["lifted_operator"]),
        f"  unique: {'yes' if res.unique else 'NO'}",
        f"  image preserved: {'yes' if res.image_preserved else 'NO'}",
        f"  kernel identity: {'yes' if res.kernel_is_quotient_of_kernel else 'NO'}",
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_valuation(args) -> int:
    from . import valuations

    doc = parse(_read(args.file))
    aname, A = _pick_algebra(doc, args.algebra)
    phi = _named(doc, "valuation", aname, args.valuation, "--valuation")
    if args.action == "check":
        w = valuations.is_valuation(A, phi.values)
        strict = w is None
        facts = valuations.derived_facts(phi)
        payload = {
            "command": "valuation-check",
            "algebra": aname,
            "values": {A.name(x): str(phi.values[x]) for x in A.elements},
            "pseudo_valuation": True,
            "valuation": strict,
            "derived_facts_ok": facts is None,
        }
        lines = [
            f"valuation {args.valuation} on {aname}:",
            "  values: "
            + " ".join(f"{A.name(x)}={phi.values[x]}" for x in A.elements),
            "  pseudo-valuation: yes",
            f"  valuation (vanishes only at 1): {'yes' if strict else 'no'}",
            "  derived facts: " + ("pass" if facts is None else f"FAIL {facts}"),
        ]
        _emit(payload, lines, args.json)
        return EXIT_OK if facts is None else EXIT_PROPERTY
    # compose
    v = _named_vto(doc, aname, args.vto)
    composed = valuations.compose_with_vto(phi, v)
    payload = {
        "command": "valuation-compose",
        "algebra": aname,
        "valuation": args.valuation,
        "vto": args.vto,
        "values": {A.name(x): str(composed.values[x]) for x in A.elements},
    }
    lines = [
        f"{args.valuation} o {args.vto} on {aname}:",
        "  values: "
        + " ".join(f"{A.name(x)}={composed.values[x]}" for x in A.elements),
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_suite(args) -> int:
    from .suite import run_suite

    doc = parse(_read(args.file))
    payload = {"command": "suite", "algebras": {}}
    lines = []
    bad = False
    for aname, A in doc.algebras.items():
        results = run_suite(A)
        payload["algebras"][aname] = [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ]
        lines.append(f"algebra {aname}:")
        for r in results:
            status = "pass" if r.ok else f"FAIL {r.detail}"
            lines.append(f"  {r.name}: {status}")
            bad = bad or not r.ok
    _emit(payload, lines, args.json)
    return EXIT_PROPERTY if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="psbck",
        description="Finite-model workbench for pseudo-BCK algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        p.add_argument("file", help="workbench document")
        if algebra:
            p.add_argument("--algebra", help="algebra name (default: the only one)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="axiom-check every algebra block")
    common(p, algebra=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("props", help="structural properties and classification")
    common(p)
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("enum", help="exhaustive enumerations")
    p.add_argument(
        "kind",
        choices=[
            "into", "clo", "vto", "ds", "dsn", "dsv",
            "hom", "vthom", "cong", "smarandache", "svto",
        ],
    )
    common(p)
    p.add_argument("--vto", help="operator name (dsv, vthom)")
    p.add_argument("--q", help="subset name (svto)")
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("quotient", help="quotient by a normal deductive system")
    common(p)
    p.add_argument("--ds", required=True, help="subset name")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("lift", help="induce an operator on a quotient")
    common(p)
    p.add_argument("--vto", required=True)
    p.add_argument("--ds", required=True)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("hedges", help="canonical truth-depressing hedge pair")
    common(p)
    p.add_argument("--vto", required=True)
    p.set_defaults(fn=cmd_hedges)

    p = sub.add_parser("factor", help="factor a morphism through a quotient")
    common(p)
    p.add_argument("--map", required=True, help="endomorphism name")
    p.add_argument("--vto", required=True, help="source operator")
    p.add_argument("--target-vto", help="target operator (default: same)")
    p.add_argument("--ds", required=True, help="subset name inside the kernel")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("valuation", help="check or compose a valuation")
    p.add_argument("action", choices=["check", "compose"])
    common(p)
    p.add_argument("--valuation", required=True)
    p.add_argument("--vto", help="operator name (compose)")
    p.set_defaults(fn=cmd_valuation)

    p = sub.add_parser("suite", help="run every invariant family")
    common(p, algebra=False)
    p.set_defaults(fn=cmd_suite)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WellDefinednessFailure as exc:
        # a quotient map disagreed inside a class: a precondition bug
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except WorkbenchError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"E_INTERNAL: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
