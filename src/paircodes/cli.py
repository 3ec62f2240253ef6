"""Command-line front end.

Subcommands::

    field-info      modulus, primitive elements, admissible binomial constants
    check-binomial  is x^n - alpha0 irreducible over GF(p^m)?
    build-code      dimension / size / generators of one code
    distance        closed-form and/or enumerated minimum pair distance
    scan            "mds" or "consistency" sweep over a whole ring
    tables          the MDS codes of a ring, as md / csv / json rows

All commands emit a JSON object {"config": ..., "results": [...],
"version": ...} unless a different --format is chosen where supported.
Exit codes: 0 success, 2 refused construction or invalid parameters,
3 verification mismatch, 4 budget exceeded where exactness was required.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys

from . import __version__
from .codes import (
    DEFAULT_BUDGET,
    _form_log_size,
    _standard_exponents,
    build_code,
    check_budget,
    generators,
    log_size,
    spec_from_text,
    spec_generator_text,
    spec_to_text,
)
from .errors import BudgetExceeded, PairCodeError, VerificationMismatch
from .galois import Field, irreducible_binomial_constants, parse_int
from .pairmetric import min_distance_brute
from .quotient import QuotientRing
from .theory import (
    _classify,
    consistency_scan,
    min_pair_distance,
    min_pair_distance_field,
)
# mds_classify is looked up here by bench/spans.py.
from .theory import mds_classify  # noqa: F401

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4

# First match wins, so subclasses come before PairCodeError.
EXIT_CODES = (
    (VerificationMismatch, EXIT_MISMATCH),
    (BudgetExceeded, EXIT_BUDGET),
    (PairCodeError, EXIT_REFUSED),
)


def _add_field_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--modulus", type=str, default=None,
                    help="field modulus digits, constant first (e.g. 1,0,1)")


def _add_ring_args(sp: argparse.ArgumentParser) -> None:
    _add_field_args(sp)
    sp.add_argument("--s", type=int, required=True, help="p-power exponent")
    sp.add_argument("--n", type=int, required=True, help="coprime length part")
    sp.add_argument("--alpha0", type=str, required=True,
                    help="field element with x^n - alpha0 irreducible "
                         "(digits, constant first)")
    sp.add_argument("--beta", type=str, default=None,
                    help="if given, work over GF+uGF with lam = "
                         "alpha0^(p^s) + u*beta")


def _field_from(args) -> Field:
    modulus = None
    if args.modulus is not None:
        modulus = [parse_int(c) for c in args.modulus.split(",")]
    return Field(args.p, args.m, modulus)


def _ring_from(args) -> QuotientRing:
    field = _field_from(args)
    alpha0 = field.parse_element(args.alpha0)
    beta = field.parse_element(args.beta) if args.beta is not None else None
    return QuotientRing(field, args.n, args.s, alpha0, beta)


def _ring_config(ring: QuotientRing) -> dict:
    return {
        "p": ring.p,
        "m": ring.m,
        "s": ring.s,
        "n": ring.n,
        "N": ring.N,
        "modulus": list(ring.field.modulus),
        "alpha0": ring.field.format_element(ring.alpha0),
        "beta": (None if ring.beta is None
                 else ring.field.format_element(ring.beta)),
        "ring": repr(ring),
    }


# Result values that the flat row writer of `_emit` encodes.
_SCALARS = {str, int, float, bool, type(None)}
# Rows of one slice of the flat row writer, about 200 bytes each.
_ROWS_PER_SLICE = 256
# One row as the stdlib's indent=2 writer lays it out at depth 2, but for
# its braces; applied to a list, it also puts that separator between rows.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True,
                                separators=(",\n      ", ": "))


def _emit(config: dict, results: list, out) -> None:
    """Write the JSON envelope shared by every command.

    Its bytes are those of ``json.dump(envelope, out, indent=2,
    sort_keys=True)`` and a newline.  When every result is a non-empty
    dict of scalars (`scan mds`, `tables --format json`), the rows are
    encoded by json's C encoder a slice at a time, and the row braces and
    indentation are spliced in; a raw newline never occurs inside a JSON
    string, so the text between two rows is unambiguous.  Other results go
    through the stdlib's indenting writer.  Either way the envelope is
    written in slices, never rendered whole: the largest (about 1.2 MB for
    `scan mds`) would otherwise be held twice.
    """
    env = {"config": config, "results": results, "version": __version__}
    if not (results and all(type(r) is dict and r for r in results)
            and {type(v) for r in results for v in r.values()} <= _SCALARS):
        json.dump(env, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    frame = json.dumps({**env, "results": []}, indent=2, sort_keys=True)
    head, _, tail = frame.partition('\n  "results": []')
    out.write(head + '\n  "results": [\n')
    for at in range(0, len(results), _ROWS_PER_SLICE):
        rows = _ROW_ENCODER.encode(results[at:at + _ROWS_PER_SLICE])[2:-2]
        out.write(("    {\n      " if at == 0 else ",\n    {\n      ")
                  + rows.replace("},\n      {", "\n    },\n    {\n      ")
                  + "\n    }")
    out.write("\n  ]" + tail + "\n")


def cmd_field_info(args, out) -> int:
    field = _field_from(args)
    orders = {a: field.order(a) for a in range(1, field.q)}
    primitive = [field.format_element(a) for a, e in orders.items()
                 if e == field.q - 1]
    lams = [field.format_element(a)
            for a in irreducible_binomial_constants(field, args.n)]
    _emit({"p": field.p, "m": field.m, "n": args.n}, [{
        "q": field.q,
        "modulus": list(field.modulus),
        "primitive_elements": primitive,
        "irreducible_binomial_constants": lams,
    }], out)
    return EXIT_OK


def cmd_check_binomial(args, out) -> int:
    from .galois import binomial_irreducible

    field = _field_from(args)
    lam = field.parse_element(args.alpha0)
    ok = binomial_irreducible(field, args.n, lam)
    _emit({"p": field.p, "m": field.m, "n": args.n,
           "alpha0": field.format_element(lam)},
          [{"irreducible": ok, "order": field.order(lam)}], out)
    return EXIT_OK


def cmd_build_code(args, out) -> int:
    ring = _ring_from(args)
    spec = spec_from_text(args.spec, ring)
    code = build_code(ring, spec)
    _emit(_ring_config(ring), [{
        "spec": spec_to_text(spec),
        "generator": spec_generator_text(ring, spec),
        "generator_polys": [repr(g) for g in generators(ring, spec)],
        "dim_p": code.dim_p,
        "log_size": log_size(ring, spec),
        "size": code.size,
    }], out)
    return EXIT_OK


def cmd_distance(args, out) -> int:
    check_budget(args.budget)
    ring = _ring_from(args)
    spec = spec_from_text(args.spec, ring)
    result: dict = {"spec": spec_to_text(spec)}
    formula = None
    if args.method in ("formula", "both"):
        formula = min_pair_distance(ring, spec)
        _, branch = min_pair_distance_field(
            ring.n, ring.p, ring.s, _standard_exponents(ring, spec)[1])
        result["formula"] = {"branch": branch, "d_sp": formula,
                             "method": "closed-form"}
    if args.method == "both":       # p^lg > budget once lg >= its bit length
        lg = log_size(ring, spec)
        if ring.p ** min(lg, args.budget.bit_length()) > args.budget:
            size = (ring.p ** lg if lg * ring.p.bit_length() <= 4096
                    else f"{ring.p}^{lg}")      # str() stops at 4300 digits
            raise BudgetExceeded(
                f"{size} codewords exceed --budget {args.budget}; "
                "cannot verify the closed form exactly")
    if args.method in ("brute", "both"):
        code = build_code(ring, spec)
        rep = min_distance_brute(code, args.budget)
        result["brute"] = rep.to_dict()
        if rep.method != "exhaustive":
            result["brute"]["warning"] = "budget exceeded; upper bound only"
        if args.method == "both":
            result["match"] = (rep.d_sp == formula)
            if not result["match"]:
                _emit(_ring_config(ring), [result], out)
                raise VerificationMismatch(
                    f"closed form {formula} != enumerated {rep.d_sp}")
    _emit(_ring_config(ring), [result], out)
    return EXIT_OK


def cmd_scan_mds(args, out) -> int:
    """One row per record: its text and its standard form's shared verdict
    (`MdsVerdict.to_dict` of each record of `mds_classify`)."""
    ring = _ring_from(args)
    rows = [{"spec": text, **verdicts[kind]}
            for row, _, verdicts in _classify(ring, random.Random(args.seed))
            for text, (_, kind, _) in zip(row.texts(), row.bs)]
    _emit(_ring_config(ring), rows, out)
    return EXIT_OK


def cmd_scan_consistency(args, out) -> int:
    check_budget(args.budget)
    ring = _ring_from(args)
    report = consistency_scan(ring, budget=args.budget,
                              rng=random.Random(args.seed))
    _emit(_ring_config(ring), [report.to_dict()], out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _mds_rows(ring: QuotientRing, rng: random.Random) -> list[dict]:
    """The nontrivial MDS codes of the ring, one row per generator text in
    record order.  The records of one b kind of a key row share their
    verdict and their generator text, so each kind is read once."""
    rows, seen = [], set()
    for row, forms, verdicts in _classify(ring, rng):
        for kind, v in verdicts.items():
            if not v["is_mds"] or v["trivial"]:
                continue
            gen = row.generator_text(ring, kind)
            if gen in seen:
                continue
            seen.add(gen)
            rows.append({
                "generator": gen,
                "size": f"{ring.p}^{_form_log_size(ring, *forms[kind])}",
                "pair_distance": v["d_sp"],
                "remark": row.prefix().split(":")[0],
            })
    return rows


def cmd_tables(args, out) -> int:
    ring = _ring_from(args)
    rng = random.Random(args.seed)
    rows = _mds_rows(ring, rng)
    if args.format == "json":
        _emit(_ring_config(ring), rows, out)
        return EXIT_OK
    if args.format == "csv":
        w = csv.DictWriter(out, fieldnames=["generator", "size",
                                            "pair_distance", "remark"])
        w.writeheader()
        for r in rows:
            w.writerow(r)
        return EXIT_OK
    # markdown
    out.write("| generator | size | pair distance | remark |\n")
    out.write("|---|---|---|---|\n")
    for r in rows:
        out.write(f"| {r['generator']} | {r['size']} | "
                  f"{r['pair_distance']} | {r['remark']} |\n")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of `main` shares it."""
    ap = argparse.ArgumentParser(
        prog="paircodes",
        description="Constacyclic codes over GF(p^m) and GF(p^m)+uGF(p^m): "
                    "symbol-pair distances and MDS classification.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field-info", help="describe GF(p^m)")
    _add_field_args(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(fn=cmd_field_info)

    sp = sub.add_parser("check-binomial",
                        help="test irreducibility of x^n - alpha0")
    _add_field_args(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha0", type=str, required=True)
    sp.set_defaults(fn=cmd_check_binomial)

    sp = sub.add_parser("build-code", help="materialize one code")
    _add_ring_args(sp)
    sp.add_argument("--spec", type=str, required=True,
                    help='e.g. "field-power:i=2" or "type2:j=7,k=1,b=1"')
    sp.set_defaults(fn=cmd_build_code)

    sp = sub.add_parser("distance", help="minimum pair distance of one code")
    _add_ring_args(sp)
    sp.add_argument("--spec", type=str, required=True)
    sp.add_argument("--method", choices=["formula", "brute", "both"],
                    default="both")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.set_defaults(fn=cmd_distance)

    targets = sub.add_parser("scan", help="sweep every code of a ring") \
        .add_subparsers(dest="target", required=True)
    sp = targets.add_parser("mds", help="the MDS verdict of every code")
    _add_ring_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_scan_mds)
    sp = targets.add_parser("consistency", help="closed forms vs enumeration")
    _add_ring_args(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_scan_consistency)

    sp = sub.add_parser("tables", help="MDS rows for a ring")
    _add_ring_args(sp)
    sp.add_argument("--format", choices=["md", "csv", "json"], default="md")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_tables)

    for sp in [*sub.choices.values(), *targets.choices.values()]:
        if sp.get_default("fn"):        # every parser that runs a command
            sp.add_argument("--out", type=str, default=None,
                            help="write output to this file instead of stdout")
    return ap


def _error_exit(exc: Exception, code: int) -> int:
    """Print the error as one JSON line on stderr; return the exit code."""
    print(json.dumps({"error": {"type": type(exc).__name__,
                                "message": str(exc)}}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            return _error_exit(exc, EXIT_REFUSED)
    try:
        return args.fn(args, out)
    except PairCodeError as exc:
        return _error_exit(exc, next(code for cls, code in EXIT_CODES
                                 if isinstance(exc, cls)))
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
