"""Set-up of one workload in a fresh process, timed by run.py for setup_s.

    python3 perfbench/setup_probe.py --workload suite-pool --seed 1

Imports psbck, then builds and certifies the workload's inputs.  Takes the
input-defining options of run.py; argument parsing is kept minimal so the
probe costs little beyond the set-up it measures.
"""

import sys

import workloads

opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))


def _int(flag):
    return int(opts[flag]) if flag in opts else None


workloads.build(opts["--workload"], int(opts["--seed"]), _int("--pool-seed"),
                _int("--limit"))
