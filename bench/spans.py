"""Spans around the public entry points of each paircodes layer.

``Tracer.installed()`` replaces each target function by a wrapper at the
module attribute where its callers look it up, and restores the originals on
exit.  A span records its name, start, end, parent span and operation id;
spans stay in memory and are written out once, at the end of the run.

Per-element arithmetic (``Field.mul``, ``ChainRing.mul`` and friends) is
deliberately not wrapped: a sweep calls it millions of times and a wrapper
would mostly measure itself.  Its cost shows up as self time of the span
that called it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module where callers look the name up, attribute, span name).  The span
# name's prefix is the layer that owns the function.
TARGETS = [
    ("paircodes.cli", "Field", "galois.Field"),
    ("paircodes.cli", "irreducible_binomial_constants",
     "galois.irreducible_binomial_constants"),
    ("paircodes.galois", "binomial_irreducible", "galois.binomial_irreducible"),
    ("paircodes.cli", "QuotientRing", "quotient.QuotientRing"),
    ("paircodes.codes", "binomial_power", "quotient.binomial_power"),
    ("paircodes.quotient", "qmul", "quotient.qmul"),
    ("paircodes.codes", "qmul", "quotient.qmul"),
    ("paircodes.codes", "generators", "codes.generators"),
    ("paircodes.cli", "generators", "codes.generators"),
    ("paircodes.theory", "build_code", "codes.build_code"),
    ("paircodes.cli", "build_code", "codes.build_code"),
    ("paircodes.codes", "ideal_code", "codes.ideal_code"),
    ("paircodes.codes", "rref_mod_p", "codes.rref_mod_p"),
    ("paircodes.theory", "scan_minima", "pairmetric.scan_minima"),
    ("paircodes.pairmetric", "scan_minima", "pairmetric.scan_minima"),
    ("paircodes.theory", "min_distance_brute", "pairmetric.min_distance_brute"),
    ("paircodes.cli", "min_distance_brute", "pairmetric.min_distance_brute"),
    ("paircodes.theory", "min_pair_distance", "theory.min_pair_distance"),
    ("paircodes.cli", "min_pair_distance", "theory.min_pair_distance"),
    ("paircodes.cli", "min_pair_distance_field",
     "theory.min_pair_distance_field"),
    ("paircodes.theory", "mds_verdict", "theory.mds_verdict"),
    ("paircodes.theory", "all_code_specs", "theory.all_code_specs"),
    ("paircodes.cli", "mds_classify", "theory.mds_classify"),
    ("paircodes.theory", "consistency_scan", "theory.consistency_scan"),
    ("paircodes.cli", "consistency_scan", "theory.consistency_scan"),
    ("paircodes.cli", "main", "cli.main"),
]
LAYERS = ["galois", "quotient", "codes", "pairmetric", "theory", "cli"]


def _scan_info(result) -> dict:
    return {"scanned": result["scanned"], "exhaustive": result["exhaustive"]}


# Facts read off a result at the span that produced it.
INFO = {
    "pairmetric.scan_minima": _scan_info,
    "theory.all_code_specs": lambda specs: {"specs": len(specs)},
}


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        # [name, start, end, parent index, op id, info]
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if info is not None:
                span[5] = info(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                if not hasattr(mod, attr):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "info": info}) + "\n")


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Self times, inclusive times and counts per layer from one batch.

    A span's self time is its duration minus that of its direct children.
    The inclusive time of a set of names sums the spans of those names that
    have no ancestor in the set, so nested calls are not counted twice.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[3] is not None:
            self_t[s[3]] -= d

    def names(*wanted):
        return [i for i in range(n) if spans[i][0] in wanted]

    def inclusive(*wanted):
        total = 0.0
        for i in names(*wanted):
            parent = spans[i][3]
            while parent is not None and spans[parent][0] not in wanted:
                parent = spans[parent][3]
            if parent is None:
                total += dur[i]
        return total

    def count(*wanted):
        return len(names(*wanted))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_t):
        layer_self[s[0].split(".", 1)[0]] += t

    scans = [spans[i][5] for i in names("pairmetric.scan_minima")]
    scan_s = inclusive("pairmetric.scan_minima")
    words = sum(s["scanned"] for s in scans)
    builds = count("codes.build_code")
    out = {
        "pairmetric.scan_s": scan_s,
        "pairmetric.scan_calls": len(scans),
        "pairmetric.words_scanned": words,
        "pairmetric.words_per_s": words / scan_s if scan_s else 0.0,
        "pairmetric.exhaustive_ratio": (
            sum(s["exhaustive"] for s in scans) / len(scans) if scans else 0.0),
        "pairmetric.brute_s": inclusive("pairmetric.min_distance_brute"),
        "codes.build_code_s": inclusive("codes.build_code"),
        "codes.build_code_calls": builds,
        "codes.ideal_code_s": inclusive("codes.ideal_code"),
        "codes.rref_s": inclusive("codes.rref_mod_p"),
        "codes.build_useful_ratio": len(scans) / builds if builds else 0.0,
        "quotient.binomial_power_s": inclusive("quotient.binomial_power"),
        "quotient.binomial_power_calls": count("quotient.binomial_power"),
        "quotient.qmul_calls": count("quotient.qmul"),
        "galois.field_build_s": inclusive("galois.Field"),
        "galois.field_builds": count("galois.Field"),
        "theory.closed_form_s": inclusive("theory.min_pair_distance",
                                          "theory.min_pair_distance_field",
                                          "theory.mds_verdict"),
        "theory.closed_form_calls": count("theory.min_pair_distance",
                                          "theory.min_pair_distance_field"),
        "theory.all_code_specs_s": inclusive("theory.all_code_specs"),
        "theory.specs_enumerated": sum(
            spans[i][5]["specs"] for i in names("theory.all_code_specs")),
        "tracing.spans": n,
        "tracing.wall_s": wall_s,
        "pairmetric.wall_share": layer_self["pairmetric"] / wall_s,
        "codes.wall_share": (layer_self["codes"] + layer_self["quotient"]
                             + layer_self["galois"]) / wall_s,
    }
    for layer, t in layer_self.items():
        out[f"{layer}.self_s"] = t
    return out
