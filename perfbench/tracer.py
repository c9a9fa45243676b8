"""Spans around psbck's public functions, recorded from the benchmark side.

``Tracer.install`` rebinds every listed function on its own module and on
every psbck module that imported it by name, so calls made from inside
the package are recorded too.  Each call becomes one span (name, start,
end, parent span, op id, result count) kept in flat in-memory arrays;
``Tracer.dump`` writes them out once the traced pass ends, and
``layer_metrics`` turns one or more dumps into per-layer numbers.

Self time is a span's duration minus the durations of its direct child
spans.  Time spent in functions that are not listed is charged to the
nearest listed caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# Layer -> traced public functions.  ``goldens`` and ``errors`` hold only
# data and exception classes, so they get no spans.
LAYERS = {
    "algebra": ("validate", "diagnose", "derived_law_suite"),
    "textfmt": ("parse", "parse_raw"),
    "classes": (
        "classify", "pseudo_product", "lattice_tables", "join", "meet",
        "smarandache_search", "enumerate_vto_flw", "is_vto_flw",
        "vt_pp_suite", "flw_arithmetic_suite",
    ),
    "operators": (
        "enumerate_interior", "enumerate_closure", "enumerate_vto", "is_vto",
        "is_interior", "compose", "lift_to_den_quotient",
    ),
    "deduction": (
        "enumerate_ds", "enumerate_ds_v", "enumerate_congruences",
        "congruence_from", "lift_vto_to_quotient",
    ),
    "morphisms": (
        "enumerate_hom", "enumerate_vthom", "factor", "transport",
        "first_isomorphism", "is_isomorphic", "is_vthom",
    ),
    "valuations": ("certify", "compose_with_vto"),
    "generate": ("random_batch", "direct_product"),
    "suite": ("run_suite",),
    "cli": ("main",),
}

# Searches also report how many results they returned.
SEARCHES = (
    "operators.enumerate_interior", "operators.enumerate_closure",
    "operators.enumerate_vto", "deduction.enumerate_ds",
    "deduction.enumerate_ds_v", "deduction.enumerate_congruences",
    "morphisms.enumerate_hom", "morphisms.enumerate_vthom",
    "morphisms.is_isomorphic", "classes.smarandache_search",
    "classes.enumerate_vto_flw",
)

# calls / distinct algebras passed in (distinct counted per process).
REPEAT = ("classes.classify", "classes.lattice_tables", "classes.pseudo_product")

# filtering search -> the search whose results it filters.
KEPT = {
    "morphisms.enumerate_vthom": "morphisms.enumerate_hom",
    "deduction.enumerate_ds_v": "deduction.enumerate_ds",
    "classes.enumerate_vto_flw": "operators.enumerate_vto",
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

_FIELDS = (
    ("name", "H"), ("parent", "i"), ("op", "i"),
    ("start", "q"), ("end", "q"), ("results", "i"),
)


def _algebra_key(A):
    return (A.element_names, A.one, A.arrow, A.squig, A.zero)


class Tracer:
    """Records one span per call of every function in ``LAYERS``."""

    def __init__(self):
        self.cols = {field: array(code) for field, code in _FIELDS}
        self.stack = [-1]
        self.op = -1
        self.distinct = {name: set() for name in REPEAT}
        # original -> wrapper, for callers that took a reference before install
        self.wrappers = {}

    def install(self):
        for mod in LAYERS:
            importlib.import_module(f"psbck.{mod}")
        package = [m for k, m in sys.modules.items()
                   if k == "psbck" or k.startswith("psbck.")]
        for nid, qual in enumerate(NAMES):
            mod, fn = qual.split(".")
            orig = getattr(sys.modules[f"psbck.{mod}"], fn)
            wrapped = self.wrappers[orig] = self._wrap(orig, nid, qual)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)

    def _wrap(self, fn, nid, qual):
        c = self.cols
        names, parents, ops, starts, ends, results = (
            c["name"], c["parent"], c["op"], c["start"], c["end"], c["results"])
        stack = self.stack
        tracer = self
        counted = qual in SEARCHES
        seen = self.distinct.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            results.append(-1)
            if seen is not None:
                seen.add(_algebra_key(args[0]))
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if counted:
                results[idx] = (out is not None) if qual == "morphisms.is_isomorphic" else len(out)
            return out

        return wrapper

    def dump(self, path, **extra):
        """Write the spans: one JSON header line, then the raw columns."""
        header = {
            "names": list(NAMES),
            "fields": [[f, code] for f, code in _FIELDS],
            "count": len(self.cols["name"]),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            **extra,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.cols[field].tofile(fh)


def load(path):
    """(header, columns) of one span dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols[field] = col
    return header, cols


def layer_metrics(paths):
    """Per-layer metrics summed over the span dumps in ``paths``.

    Returns {metric name: (value, unit)}.
    """
    count = len(NAMES)
    calls, self_ns, results = [0] * count, [0] * count, [0] * count
    kept_base = [0] * count
    kept_pairs = {(NAMES.index(p), NAMES.index(c)) for p, c in KEPT.items()}
    distinct = dict.fromkeys(REPEAT, 0)
    for path in paths:
        header, cols = load(path)
        if tuple(header["names"]) != NAMES:
            raise ValueError(f"{path}: span names differ from this tracer's")
        ids, parents, res = cols["name"], cols["parent"], cols["results"]
        starts, ends = cols["start"], cols["end"]
        child_ns = array("q", bytes(8 * len(ids)))
        for i, p in enumerate(parents):
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
                if (ids[p], ids[i]) in kept_pairs:
                    kept_base[ids[p]] += res[i]
        for i, k in enumerate(ids):
            calls[k] += 1
            self_ns[k] += ends[i] - starts[i] - child_ns[i]
            if res[i] > 0:
                results[k] += res[i]
        for name, n in header["distinct"].items():
            distinct[name] += n

    out = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            k = NAMES.index(f"{mod}.{fn}")
            out[f"{mod}.{fn}.calls"] = (calls[k], "count")
            out[f"{mod}.{fn}.self_s"] = (self_ns[k] / 1e9, "s")
            if NAMES[k] in SEARCHES:
                out[f"{mod}.{fn}.results"] = (results[k], "count")
        mod_ns = sum(self_ns[NAMES.index(f"{mod}.{fn}")] for fn in fns)
        out[f"{mod}.self_s"] = (mod_ns / 1e9, "s")
    for qual in REPEAT:
        k = NAMES.index(qual)
        out[f"{qual}.repeat_ratio"] = (_ratio(calls[k], distinct[qual]), "ratio")
    for qual in KEPT:
        k = NAMES.index(qual)
        out[f"{qual}.kept_ratio"] = (_ratio(results[k], kept_base[k]), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
