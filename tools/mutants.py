"""Mutation probes: which single-site faults ``run_suite`` notices.

Each mutant changes one site of one module of ``src/psbck`` in a temporary
copy of the tree, and a child interpreter runs ``run_suite`` over the
118-algebra pool (``_seed_pool()`` plus ``random_batch(seed=2026,
count=100, max_size=6)``).  One JSON object per site is printed, with its
verdict: ``killed`` (some family fails), ``raised`` (building the pool or
a suite raised), ``survived`` (every family passes) or ``error`` (the
child timed out or printed no verdict).

Operator sets (``--ops``):

- ``squig``: one ``squig[`` or ``sq[`` turned into ``arrow[`` or ``ar[``;
- ``flip``: one comparison flipped, ``==``/``!=``, ``<``/``<=``,
  ``>``/``>=`` or ``in``/``not in``.

Both run over ``algebra``, ``classes``, ``deduction``, ``morphisms``,
``operators`` and ``suite``.  A site is keyed by its module, enclosing
function, source line text and rank among the equal sites of that text in
that function, not by line number, so ``--compare OLD NEW`` can match the
verdicts of two trees.  Stdlib only:

    python tools/mutants.py --ops squig > squig.jsonl
    python tools/mutants.py --ops flip --src ../parent/src > flip-parent.jsonl
    python tools/mutants.py --compare flip-parent.jsonl flip.jsonl
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

MODULES = ("algebra", "classes", "deduction", "morphisms", "operators", "suite")
SWAPS = {"squig": "arrow", "sq": "ar"}
FLIPS = {
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
JUDGE = r"""
import json
from psbck.generate import _seed_pool, random_batch
from psbck.suite import run_suite

def judge():
    try:
        pool = list(_seed_pool()) + random_batch(seed=2026, count=100, max_size=6)
        for A in pool:
            for r in run_suite(A):
                if not r.ok:
                    return "killed", f"{r.name} on {A.element_names}"
    except Exception as e:
        return "raised", f"{type(e).__name__}: {e}"[:200]
    return "survived", ""

verdict, detail = judge()
print(json.dumps({"verdict": verdict, "detail": detail}))
"""


def _functions(tree):
    """(first line, last line, qualified name) of every function."""
    spans = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return spans


def _char_col(line: str, byte_col: int) -> int:
    return len(line.encode()[:byte_col].decode())


def _swap_edits(source, tokens, tree):
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.type == tokenize.NAME and tok.string in SWAPS and nxt.string == "[":
            yield tok.start, tok.end, tok.string, SWAPS[tok.string]


def _flip_edits(source, tokens, tree):
    lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            after = (left.end_lineno, _char_col(lines[left.end_lineno - 1], left.end_col_offset))
            before = (right.lineno, _char_col(lines[right.lineno - 1], right.col_offset))
            words = [t for t in tokens if after <= t.start and t.end <= before]
            words = [t for t in words if t.string in ("not", "in", "==", "!=", "<", "<=", ">", ">=")]
            assert " ".join(t.string for t in words) == old, (node.lineno, old)
            yield words[0].start, words[-1].end, old, new


def sites(src: Path, ops: str):
    """Every site of the operator set in ``src``, in module and source
    order: (key, (module path, start, end, replacement))."""
    find = _swap_edits if ops == "squig" else _flip_edits
    for module in MODULES:
        path = src / "psbck" / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        tree = ast.parse(source)
        spans = _functions(tree)
        lines = source.splitlines()
        seen = {}
        for start, end, old, new in sorted(find(source, tokens, tree)):
            row = start[0]
            function = next((n for a, b, n in reversed(spans) if a <= row <= b), "<module>")
            code = lines[row - 1].strip()
            rank = seen[function, code, old] = seen.get((function, code, old), -1) + 1
            key = {"module": module, "function": function, "code": code,
                   "nth": rank, "from": old, "to": new, "line": row}
            yield key, (path.relative_to(src), start, end, new)


def _apply(source: str, start, end, new: str) -> str:
    lines = source.splitlines(keepends=True)
    (r0, c0), (r1, c1) = start, end
    head = "".join(lines[: r0 - 1]) + lines[r0 - 1][:c0]
    tail = lines[r1 - 1][c1:] + "".join(lines[r1:])
    return head + new + tail


def _judge(root: Path, timeout: float) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PSBCK_MAX_N"}
    env["PYTHONPATH"] = str(root)
    try:
        done = subprocess.run(
            [sys.executable, "-B", "-c", JUDGE], cwd=root, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "error", f"timeout after {timeout:.0f} s"
    try:
        got = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "error", (done.stderr.strip().splitlines() or [""])[-1][:200]
    return got["verdict"], got["detail"]


def run(src: Path, ops: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(src / "psbck", root / "psbck", ignore=shutil.ignore_patterns("__pycache__"))
        t0 = time.perf_counter()
        verdict, detail = _judge(root, 600)
        if verdict != "survived":
            sys.exit(f"the unmutated tree does not pass: {verdict} {detail}")
        timeout = max(60.0, 10 * (time.perf_counter() - t0))
        for key, (rel, start, end, new) in sites(src, ops):
            target = root / rel
            original = target.read_text(encoding="utf-8")
            target.write_text(_apply(original, start, end, new), encoding="utf-8")
            try:
                key["verdict"], key["detail"] = _judge(root, timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            print(json.dumps(key), flush=True)
            print(f"{key['module']}:{key['line']} {key['verdict']}", file=sys.stderr)


def _key(site):
    return tuple(site[k] for k in ("module", "function", "code", "nth", "from", "to"))


def compare(old_path: Path, new_path: Path) -> dict:
    """Match two runs by site key: the shared sites whose verdicts differ,
    and the sites present on one side only."""
    old, new = ({_key(s): s for s in map(json.loads, p.read_text().splitlines())}
                for p in (old_path, new_path))
    shared = old.keys() & new.keys()
    return {
        "old": len(old), "new": len(new), "shared": len(shared),
        "differ": [[old[k], new[k]] for k in sorted(shared) if old[k]["verdict"] != new[k]["verdict"]],
        "only_old": [old[k] for k in sorted(old.keys() - shared)],
        "only_new": [new[k] for k in sorted(new.keys() - shared)],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", choices=("squig", "flip"), default="squig")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        print(json.dumps(compare(*args.compare), indent=1))
    else:
        run(args.src, args.ops)


if __name__ == "__main__":
    main()
