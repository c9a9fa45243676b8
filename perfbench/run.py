"""psbck benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload suite-pool --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each run repeats whole passes over the
workload until ``--seconds`` have elapsed and at least 100 ops are timed,
checks every op's output, prints one line per metric, writes a result
record under perfbench/out/results/ and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass here and one traced pass in a separate process, and
reports per-layer calls, results, self time and ratios (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100          # so that 10 samples lie beyond the 90th percentile
SETUP_REPEATS = 11     # fresh processes timed for setup_s
IMPORT_REPEATS = 7     # interpreter starts timed for cli.import_s
KERNEL_REF_S = 0.001   # the calibration kernel's time at the reference speed
SPEED_WINDOW = 5       # kernel samples on each side that set an op's speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("suite-pool", "search-large", "cli-corpus"))
    p.add_argument("--seed", type=int, default=1,
                   help="op order in each pass; search-large: also the "
                        "relabelling that is_isomorphic must undo")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool-seed", type=int,
                   help="suite-pool: draw random_batch(seed) instead of the "
                        "recorded seed-2026 pool; only verdicts are checked")
    p.add_argument("--limit", type=int, help="keep only the first N ops (tests)")
    p.add_argument("--traced-child", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def layout_problem() -> str | None:
    for need in ("src/psbck/__init__.py", "corpus/ex_2_5.alg"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from a psbck checkout"
    return None


def workload_args(args) -> list[str]:
    """The options that define a workload's inputs, for child processes."""
    out = ["--workload", args.workload, "--seed", str(args.seed)]
    for flag, value in (("--pool-seed", args.pool_seed), ("--limit", args.limit)):
        if value is not None:
            out += [flag, str(value)]
    return out


_TABLE = tuple(tuple((x * y + 1) % 7 for y in range(7)) for x in range(7))


def _kernel():
    """Fixed pure-Python work: table lookups and dict stores.  It creates no
    object the garbage collector tracks, so the program's heap cannot set
    its pace."""
    table = _TABLE
    seen = {}
    acc = 0
    for i in range(4000):
        x, y = i % 7, i // 7 % 7
        acc += table[table[x][y]][y]
        seen[x * 7 + y] = acc
    return acc


def kernel_s():
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def time_calls(calls):
    """Run each call in turn with the kernel before and after it.

    Returns (outputs, raw seconds, scaled seconds); a call that raises
    gives its exception as output.  A call's scaled time is its raw time
    times KERNEL_REF_S over the median of the kernel times measured around
    it, SPEED_WINDOW samples to each side.  The kernel runs on the same
    interpreter, so a stretch in which the host runs Python slower slows
    both alike and the scaled time stays put.
    """
    ks = [kernel_s()]
    outs, raw = [], []
    for call in calls:
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # the caller decides what a raise means
            out = exc
        raw.append(perf_counter() - t0)
        ks.append(kernel_s())
        outs.append(out)
    scaled = []
    for i, r in enumerate(raw):
        near = ks[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 2]
        scaled.append(r * KERNEL_REF_S / statistics.median(near))
    return outs, raw, scaled


def run_pass(wl, pass_no, expected):
    """Time every op of one pass; return (raw s, scaled s, failures)."""
    order = wl.order(pass_no)
    outs, raw, scaled = time_calls([op.call for op in order])
    failures = []
    for op, out in zip(order, outs):
        if isinstance(out, Exception):
            failures.append([op.key, f"raised {type(out).__name__}: {out}"])
            continue
        reason = wl.check(op, out, expected)
        if reason is not None:
            failures.append([op.key, reason])
    return raw, scaled, failures


def timed_runs(cmd, repeats, env):
    """(raw, scaled) seconds of each of ``repeats`` runs of a command."""
    outs, raw, scaled = time_calls([lambda: subprocess.run(
        cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)] * repeats)
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return raw, scaled


def hd_quantile(samples, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of every
    order statistic, with Beta((n+1)p, (n+1)(1-p)) weights.  Unlike a
    single order statistic it does not jump when the ops near that rank
    trade places, which keeps a tail percentile steady from run to run."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = [sum(pdf((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def p50(samples):
    return hd_quantile(samples, 0.5)


def p90(samples):
    return hd_quantile(samples, 0.9)


def stats(scaled, raw, pick=p50):
    """The metric (``pick`` of the scaled samples), the same of the raw
    samples, and the scaled samples' count, median and quartiles."""
    q1, med, q3 = (statistics.quantiles(scaled, n=4) if len(scaled) > 1
                   else scaled * 3)
    return {"value": pick(scaled), "raw": pick(raw),
            "n": len(scaled), "median": med, "q1": q1, "q3": q3}


def end_to_end(args, wl, expected, workloads):
    deadline = perf_counter() + args.seconds
    raw, scaled, raw_walls, walls, failures = [], [], [], [], []
    while True:
        r, s, f = run_pass(wl, len(walls), expected)
        raw += r
        scaled += s
        failures += f
        raw_walls.append(sum(r))
        walls.append(sum(s))
        if perf_counter() >= deadline and len(raw) >= MIN_OPS:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-corpus" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024

    probe = [sys.executable, str(HERE / "setup_probe.py"), *workload_args(args)]
    setup_raw, setup = timed_runs(probe, SETUP_REPEATS, workloads.cli_env())

    ms, raw_ms = [x * 1000 for x in scaled], [x * 1000 for x in raw]
    tail = p90(ms)
    beyond = sum(x > tail for x in ms)
    metrics = {
        "setup_s": ("s", stats(setup, setup_raw), f"of {len(setup)} fresh processes"),
        "wall_s": ("s", stats(walls, raw_walls),
                   f"of {len(walls)} passes of {len(wl.ops)} ops"),
        "op_p50_ms": ("ms", stats(ms, raw_ms), f"n={len(ms)}"),
        "op_p90_ms": ("ms", stats(ms, raw_ms, p90), f"n={len(ms)}, {beyond} beyond"),
        "peak_rss_mb": ("MB", stats([rss_mb], [rss_mb]),
                        "largest child" if wl.name == "cli-corpus" else "driving process"),
    }
    return metrics, len(raw), failures


def traced(args, wl, expected, workloads):
    import tracer

    _, lat, failures = run_pass(wl, 0, expected)
    attempted, untraced_s = len(lat), sum(lat)

    trace_dir = HERE / "out" / f"trace-{wl.name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    if wl.name == "cli-corpus":
        twl = workloads.build("cli-corpus", args.seed, limit=args.limit, trace_dir=trace_dir)
        _, t_lat, t_fail = run_pass(twl, 0, expected)
        traced_s, t_attempted = sum(t_lat), len(t_lat)
    else:
        spans = trace_dir / "spans.bin"
        cmd = [sys.executable, str(HERE / "run.py"), *workload_args(args),
               "--traced-child", str(spans)]
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=170)
        header, _ = tracer.load(spans)
        traced_s, t_attempted, t_fail = header["wall_s"], header["attempted"], header["failures"]

    metrics = {name: (unit, {"value": v}, "")
               for name, (v, unit) in tracer.layer_metrics(sorted(trace_dir.glob("*.bin"))).items()}
    env = workloads.cli_env()
    _, bare = timed_runs([sys.executable, "-c", "pass"], IMPORT_REPEATS, env)
    _, imp = timed_runs([sys.executable, "-c", "import psbck.cli"], IMPORT_REPEATS, env)
    metrics["cli.import_s"] = ("s", {"value": statistics.median(imp) - statistics.median(bare)},
                               f"median of {len(imp)} minus median of {len(bare)} bare starts")
    metrics["trace.overhead_ratio"] = ("ratio", {"value": traced_s / untraced_s},
                                       f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced")
    return metrics, attempted + t_attempted, failures + t_fail


def traced_child(args, wl, expected):
    """The traced pass of suite-pool or search-large, in its own process."""
    import tracer

    t = tracer.Tracer()
    t.install()

    def tagged(op_id, fn):
        def run(*args):
            t.op = op_id
            return fn(*args)
        return run

    for i, op in enumerate(wl.ops):
        op.fn = tagged(i, t.wrappers.get(op.fn, op.fn))
    _, lat, failures = run_pass(wl, 0, expected)
    t.dump(args.traced_child, wall_s=sum(lat), attempted=len(lat), failures=failures)
    return 0


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": commit}


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = layout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    expected = workloads.load_digests()[args.workload]
    wl = workloads.build(args.workload, args.seed, args.pool_seed, args.limit)
    if args.traced_child is not None:
        return traced_child(args, wl, expected)
    if wl.name == "cli-corpus":
        workloads.write_error_inputs()

    run = traced if args.trace else end_to_end
    metrics, attempted, failures = run(args, wl, expected, workloads)
    fail_ratio = len(failures) / attempted

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    for name, (unit, st, note) in metrics.items():
        if "raw" in st and unit != "MB":
            note = f"{note}; unscaled {st['raw']:.6g}"
        print(f"  {name:<44} {st['value']:>14.6g} {unit:<6} {note}")
    print(f"  {'fail_ratio':<44} {fail_ratio:>14.6g} {'fraction':<6} "
          f"{len(failures)} of {attempted} ops")
    for key, reason in failures[:20]:
        print(f"  FAILED {key}: {reason}", file=sys.stderr)

    record = {
        "workload": wl.name, "args": vars(args),
        "machine": machine(), "attempted": attempted, "failed": len(failures),
        "fail_ratio": fail_ratio, "failures": failures[:20],
        "metrics": {name: {"unit": unit, **st} for name, (unit, st, _) in metrics.items()},
    }
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{wl.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": st["value"], "unit": unit}
                    for name, (unit, st, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
