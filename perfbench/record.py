"""Freeze the benchmark's inputs and expected outputs at the current commit.

    python3 perfbench/record.py

Writes inputs.json (the seed-2026 suite pool and the search-large
carriers, as plain tables built with psbck's own constructors) and
digests.json (the sha256 of every op's canonical output).  The digests are
the contract later changes are held to, so re-record only when an output
change is intended, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from psbck import goldens  # noqa: E402
from psbck.generate import (  # noqa: E402
    _seed_pool, direct_product, goedel_chain, lukasiewicz_chain, random_batch,
)


def carriers():
    G, L, P = goedel_chain, lukasiewicz_chain, direct_product
    e25 = goldens.four_element_bounded()
    e26 = goldens.six_element_involutive()
    e68 = goldens.six_element_smarandache()
    return {
        "G8": G(8),
        "L8": L(8),
        "G2xL4": P(G(2), L(4)),
        "G2xL5": P(G(2), L(5)),
        "B16": P(P(P(G(2), G(2)), G(2)), G(2)),
        "G4xL5": P(G(4), L(5)),
        "T24": P(P(G(2), G(3)), L(4)),
        "E25xG2": P(e25, G(2)),
        "E26xG2": P(e26, G(2)),
        "E68xG2": P(e68, G(2)),
        "E68xG3": P(e68, G(3)),
    }


def main():
    pool = list(_seed_pool()) + random_batch(workloads.POOL_SEED, count=100, max_size=6)
    inputs = {
        "pool_seed": workloads.POOL_SEED,
        "pool": [workloads.table_of(A) for A in pool],
        "carriers": {k: workloads.table_of(A) for k, A in carriers().items()},
    }
    workloads.INPUTS.write_text(json.dumps(inputs, separators=(",", ":")) + "\n")

    workloads.write_error_inputs()
    digests = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed=0)
        digests[name] = {}
        for op in wl.ops:
            out = op.call()
            reason = op.verify(out) if op.verify else None
            if reason is not None:
                raise SystemExit(f"{name} {op.key}: {reason}; nothing recorded")
            digests[name][op.key] = workloads.digest(op.canon(out))
        print(f"{name}: {len(wl.ops)} ops recorded")
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
