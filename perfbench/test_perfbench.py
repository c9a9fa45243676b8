"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Most tests run run.py in a subprocess on a few ops of a workload.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    return lines, json.loads(lines[-1])


def copy_bench(dest, with_program=True):
    """A checkout at ``dest`` holding the benchmark and, if asked, psbck's
    sources and corpus."""
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        for part in ("src", "corpus"):
            shutil.copytree(ROOT / part, dest / part,
                            ignore=shutil.ignore_patterns("__pycache__"))


def printed(lines, name, unit):
    return any(re.match(rf"\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", ln)
               for ln in lines)


@pytest.mark.parametrize("workload, limit",
                         [("suite-pool", 3), ("search-large", 6), ("cli-corpus", 2)])
def test_smoke_prints_every_end_to_end_metric(workload, limit):
    lines, result = bench("--workload", workload, "--seconds", "0", "--limit", str(limit))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in [*spec.items(), ("fail_ratio", "fraction")]:
        assert printed(lines[:-1], name, unit), name


def test_planted_wrong_digest_gives_failures(tmp_path):
    copy_bench(tmp_path)
    path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    digests["suite-pool"]["001"] = "0" * 64
    path.write_text(json.dumps(digests))
    lines, result = bench("--workload", "suite-pool", "--seconds", "0", "--limit", "3",
                          cwd=tmp_path)
    assert not result["correct"] and result["failed"] > 0
    fail_ratio = next(ln.split()[1] for ln in lines if ln.split()[:1] == ["fail_ratio"])
    assert float(fail_ratio) > 0


def test_traced_counts_and_ratios_repeat_exactly():
    runs = [bench("--workload", "suite-pool", "--trace", "1", "--limit", "8")[1]
            for _ in range(2)]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec

    def exact(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}

    assert exact(runs[0]) == exact(runs[1])
    assert exact(runs[0])["suite.run_suite.calls"] == 8
    assert exact(runs[0])["classes.join.calls"] > 0


@pytest.mark.parametrize("workload, limit", [("suite-pool", 4), ("search-large", 20)])
def test_passes_never_share_an_algebra(workload, limit):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads
        from psbck.algebra import FiniteAlgebra
    finally:
        del sys.path[:2]

    wl = workloads.build(workload, 1, limit=limit)
    passes = [wl.order(k) for k in range(3)]
    seen = [{id(a) for op in ops for a in op.args if isinstance(a, FiniteAlgebra)}
            for ops in passes]
    assert all(seen)
    assert len(set().union(*seen)) == sum(map(len, seen))
    assert [sorted(op.key for op in ops) for ops in passes[1:]] == [
        sorted(op.key for op in passes[0])] * 2


def test_refuses_to_run_without_the_program(tmp_path):
    copy_bench(tmp_path, with_program=False)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-pool",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
