"""The three benchmark workloads: their inputs, their ops and how each op's
output is checked.

Every algebra reaches psbck as plain operation tables certified through
``psbck.algebra.validate``.  The tables come from ``inputs.json``, frozen
when the benchmark was defined, so a later change to psbck's own
generators does not move the workload.  Each op's output is reduced to a
canonical JSON value whose sha256 is compared with ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
INPUTS = HERE / "inputs.json"
DIGESTS = HERE / "digests.json"
POOL_SEED = 2026
WORKLOADS = ("suite-pool", "search-large", "cli-corpus")


@dataclass
class Op:
    key: str
    fn: Callable[..., object]
    args: tuple
    canon: Callable[[object], object]
    verify: Callable[[object], str | None] | None = None

    def call(self):
        return self.fn(*self.args)


@dataclass
class Workload:
    """``make_ops(pass_no)`` builds one pass's ops on inputs of their own.

    The ops built at set-up (``ops``) serve pass 0; every later pass gets
    ops built afresh, outside the timed calls, so no algebra object reaches
    psbck in two passes and a cache kept on an instance cannot turn a
    later pass's searches into lookups.
    """

    name: str
    make_ops: Callable[[int], list[Op]]
    seed: int
    digests_checked: bool = True
    limit: int | None = None

    def __post_init__(self):
        self.ops = self.fresh_ops(0)

    def fresh_ops(self, pass_no: int) -> list[Op]:
        return self.make_ops(pass_no)[: self.limit]

    def order(self, pass_no: int) -> list[Op]:
        """Pass ``pass_no``'s ops in an order drawn from the seed; each
        pass number is meant to be run once."""
        ops = list(self.ops) if pass_no == 0 else self.fresh_ops(pass_no)
        random.Random(f"{self.seed}/{pass_no}").shuffle(ops)
        return ops

    def check(self, op: Op, out, expected: dict[str, str]) -> str | None:
        """None if the output is right, else why not."""
        if op.verify is not None:
            reason = op.verify(out)
            if reason is not None:
                return reason
        if self.digests_checked and digest(op.canon(out)) != expected.get(op.key):
            return "output differs from the recorded digest"
        return None


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


# -- tables -----------------------------------------------------------------


def table_of(A):
    """Plain (names, one, arrow, squig, zero) of a psbck algebra."""
    return (list(A.element_names), A.one, [list(r) for r in A.arrow],
            [list(r) for r in A.squig], A.zero)


def certify(table):
    from psbck import algebra

    names, one, arrow, squig, zero = table
    return algebra.validate(
        tuple(names), one, tuple(map(tuple, arrow)), tuple(map(tuple, squig)),
        zero=zero,
    )


def relabel(table, perm, prefix="r"):
    """Isomorphic copy with element id i moved to perm[i]."""
    names, one, arrow, squig, zero = table
    n = len(names)
    new_names = [""] * n
    ar = [[0] * n for _ in range(n)]
    sq = [[0] * n for _ in range(n)]
    for x in range(n):
        new_names[perm[x]] = prefix + names[x]
        for y in range(n):
            ar[perm[x]][perm[y]] = perm[arrow[x][y]]
            sq[perm[x]][perm[y]] = perm[squig[x][y]]
    return new_names, perm[one], ar, sq, None if zero is None else perm[zero]


def _alg(A):
    return A.element_names, A.one, A.arrow, A.squig, A.zero


def _report(r):
    return (r.bounded, r.lattice, r.pp, r.flw, r.mtl, r.divisible, r.bl, r.mv,
            r.witnesses)


# -- suite-pool -------------------------------------------------------------


def pool_tables(pool_seed: int | None):
    """The ROADMAP pool: _seed_pool() plus random_batch(seed, 100, 6).

    The default seed's 118 tables are read from inputs.json; another seed
    draws a fresh batch from psbck's generator.
    """
    if pool_seed is None or pool_seed == POOL_SEED:
        return json.loads(INPUTS.read_text())["pool"]
    from psbck.generate import _seed_pool, random_batch

    batch = list(_seed_pool()) + random_batch(pool_seed, count=100, max_size=6)
    return [table_of(A) for A in batch]


def _suite_verdicts(out):
    failed = [r.name for r in out if not r.ok]
    return f"families failed: {', '.join(failed)}" if failed else None


def suite_pool(seed: int, pool_seed: int | None = None,
               limit: int | None = None) -> Workload:
    from psbck import suite

    tables = pool_tables(pool_seed)[:limit]

    def make_ops(_pass_no):
        return [Op(f"{i:03d}", suite.run_suite, (certify(table),),
                   lambda out: [(r.name, r.ok, r.detail) for r in out],
                   _suite_verdicts)
                for i, table in enumerate(tables)]

    default = pool_seed is None or pool_seed == POOL_SEED
    return Workload("suite-pool", make_ops, seed, digests_checked=default)


# -- search-large -----------------------------------------------------------


def _check_iso(A, B):
    def verify(h):
        if h is None:
            return "no isomorphism found onto the relabelled copy"
        m = h.map
        if sorted(m) != list(A.elements) or m[A.one] != B.one:
            return "not a bijection fixing 1"
        for x in A.elements:
            for y in A.elements:
                if (m[A.arrow[x][y]] != B.arrow[m[x]][m[y]]
                        or m[A.squig[x][y]] != B.squig[m[x]][m[y]]):
                    return f"does not preserve the implications at ({x},{y})"
        return None

    return verify


def _images(out):
    return [f.image for f in out]


def search_large(seed: int, limit: int | None = None) -> Workload:
    """``seed`` also draws the relabellings that ``is_isomorphic`` must undo.

    Each pass draws its own: how long the search takes depends on the
    relabelling (B16's varies about twentyfold), so a run samples many
    of them rather than resting on one.
    """
    from psbck import classes as cls, deduction as ded, morphisms as mor, operators as opr

    carriers = json.loads(INPUTS.read_text())["carriers"]

    def make_ops(pass_no):
        rng = random.Random(f"relabel/{seed}/{pass_no}")
        ops = []
        for name, table in carriers.items():
            A = certify(table)
            perm = list(A.elements)
            rng.shuffle(perm)
            B = certify(relabel(table, perm))
            n = A.n
            calls = [
                ("validate", certify, (table,), _alg, None),
                ("classify", cls.classify, (A,), _report, None),
                ("is_isomorphic", mor.is_isomorphic, (A, B),
                 lambda h: h is not None, _check_iso(A, B)),
            ]
            if n <= 10:
                calls += [
                    ("enumerate_interior", opr.enumerate_interior, (A,), _images, None),
                    ("enumerate_closure", opr.enumerate_closure, (A,), _images, None),
                    ("enumerate_vto", opr.enumerate_vto, (A,), _images, None),
                ]
            if n <= 20:
                calls += [
                    ("enumerate_ds", ded.enumerate_ds, (A,),
                     lambda out: [(sorted(d.members), d.normal) for d in out], None),
                    ("enumerate_congruences", ded.enumerate_congruences, (A,),
                     lambda out: [(sorted(q.by.members), q.class_of, _alg(q.algebra))
                                  for q in out], None),
                ]
            if n == 8:
                calls.append(("enumerate_hom", mor.enumerate_hom, (A, A),
                              lambda out: [h.map for h in out], None))
            if n <= 16:
                calls.append(("smarandache_search", cls.smarandache_search, (A,),
                              lambda out: [(sorted(q), _alg(s), _report(r))
                                           for q, s, r in out], None))
            ops += [Op(f"{name}/{call}", fn, args, canon, verify)
                    for call, fn, args, canon, verify in calls]
        return ops

    return Workload("search-large", make_ops, seed, limit=limit)


# -- cli-corpus -------------------------------------------------------------

EX25, EX26, EX68 = "corpus/ex_2_5.alg", "corpus/ex_2_6.alg", "corpus/ex_6_8.alg"

# The README quick start, as in tests/test_cli.py::COMMANDS.
COMMANDS = [
    ["validate", EX25],
    ["validate", EX25, "--json"],
    ["props", EX25],
    ["props", "corpus/ex_nonlinear_heyting.alg", "--json"],
    ["enum", "into", EX25],
    ["enum", "vto", EX25],
    ["enum", "vto", EX25, "--json"],
    ["enum", "clo", EX25],
    ["enum", "ds", EX68],
    ["enum", "dsn", EX68],
    ["enum", "dsv", EX25, "--vto", "v1"],
    ["enum", "vto", EX26],
    ["enum", "hom", EX26],
    ["enum", "vthom", EX26, "--vto", "v10"],
    ["enum", "cong", EX68, "--json"],
    ["enum", "smarandache", EX68],
    ["enum", "svto", EX68, "--q", "Q"],
    ["quotient", EX68, "--ds", "H"],
    ["quotient", EX68, "--ds", "H", "--json"],
    ["lift", EX68, "--vto", "v4", "--ds", "H"],
    ["hedges", EX25, "--vto", "v2"],
    ["factor", EX26, "--map", "psi3", "--vto", "v10", "--ds", "T"],
    ["valuation", "check", EX25, "--valuation", "phi"],
    ["valuation", "compose", EX25, "--valuation", "phi", "--vto", "v2"],
    ["suite", "corpus/ex_2_chain.alg"],
    ["suite", EX25, "--json"],
]

WORK = OUT / "work"
BAD_TABLE = WORK / "bad_table.alg"
TRUNCATED = WORK / "truncated.alg"

# (args, expected exit status): one entry changed so an axiom fails, a
# document cut off inside a table, and a file that does not exist.
ERROR_COMMANDS = [
    (["validate", BAD_TABLE.relative_to(ROOT).as_posix()], 1),
    (["validate", TRUNCATED.relative_to(ROOT).as_posix()], 2),
    (["props", "corpus/nope.alg"], 2),
]


def write_error_inputs():
    text = (ROOT / EX25).read_text(encoding="utf-8")
    WORK.mkdir(parents=True, exist_ok=True)
    BAD_TABLE.write_text(text.replace("    1 a 1 c", "    1 c 1 c", 1), encoding="utf-8")
    TRUNCATED.write_text(text[: text.index("    1 a 1 c")], encoding="utf-8")


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_command(argv: list[str], env: dict[str, str]):
    res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    return res.returncode, res.stdout, res.stderr


def _expect_status(status):
    def verify(out):
        rc, _, err = out
        if rc != status:
            return f"exit status {rc}, expected {status}"
        if status == 0 and err:
            return "unexpected output on stderr"
        return None

    return verify


def cli_corpus(seed: int, limit: int | None = None,
               trace_dir: Path | None = None) -> Workload:
    """One op per command, run as ``python -m psbck.cli`` from the root.

    With ``trace_dir``, each command instead runs under trace_cli.py,
    which writes its spans to one file in that directory.
    """
    import psbck.cli  # noqa: F401  (set-up includes the CLI's imports)
    from psbck import textfmt

    for path in sorted((ROOT / "corpus").glob("*.alg")):
        textfmt.parse(path.read_text(encoding="utf-8"))

    env = cli_env()

    def make_ops(_pass_no):
        ops = []
        for i, (args, status) in enumerate([(c, 0) for c in COMMANDS] + ERROR_COMMANDS):
            if trace_dir is None:
                argv = [sys.executable, "-m", "psbck.cli", *args]
            else:
                spans = trace_dir / f"spans-{i:03d}.bin"
                argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans), str(i), *args]
            ops.append(Op(
                " ".join(args), run_command, (argv, env),
                lambda out: [out[0], out[1].decode("latin-1"), out[2].decode("latin-1")],
                _expect_status(status),
            ))
        return ops

    return Workload("cli-corpus", make_ops, seed, limit=limit)


def build(name: str, seed: int, pool_seed: int | None = None,
          limit: int | None = None, trace_dir: Path | None = None) -> Workload:
    """The named workload; ``limit`` keeps only its first ops (for tests)."""
    if name == "suite-pool":
        return suite_pool(seed, pool_seed, limit)
    if name == "search-large":
        return search_large(seed, limit)
    if name == "cli-corpus":
        return cli_corpus(seed, limit, trace_dir)
    raise ValueError(f"unknown workload {name!r}")
