"""Closed-form minimum distances, the Singleton gap, and MDS scans.

Everything here is organized around one partition of the exponent range.
For 1 <= i <= p^s - 1 there is a unique pair (k, theta) with 0 <= k <= s-1
and 0 <= theta <= p-2 such that

    p^s - p^(s-k) + theta*p^(s-k-1) + 1  <=  i  <=
    p^s - p^(s-k) + (theta+1)*p^(s-k-1),

and the closed forms below are piecewise-constant on those intervals.  The
dispatch is interval-driven on purpose: for p = 2 the theta range collapses
to {0} and every sub-case keyed by larger theta is simply vacuous, never
special-cased.

The Singleton gap compares log-sizes exactly in integers: a code of length
N over an alphabet of size A with pair distance d satisfies
|C| <= A^(N-d+2), and "MDS" means equality.  Verdicts flag the degenerate
always-MDS endpoints (zero code, full space) as trivial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .codes import (
    DEFAULT_BUDGET,
    CodeSpec,
    _form_log_size,
    _key_rows,
    _standard_exponents,
    all_code_specs,
    # build_code is looked up here by bench/spans.py.
    build_code,  # noqa: F401
    build_codes,
    check_budget,
    spec_to_text,
    validate_spec,
)
from .errors import (
    ConstraintViolation,
    ExponentOutOfRange,
    NotPrime,
    VerificationMismatch,
)
from .galois import as_int, prime_factors
# min_distance_brute is looked up here by bench/spans.py.
from .pairmetric import min_distance_brute, scan_minima  # noqa: F401
from .quotient import QuotientRing


def _prime_power(p: int, s: int) -> tuple[int, int]:
    """p and s as ints, refusing a p that is not prime and an s below 1."""
    p, s = as_int(p), as_int(s)
    if prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    if s < 1:
        raise ConstraintViolation(f"need s >= 1, got {s}")
    return p, s


def binomial_power_weight(p: int, s: int, i: int) -> int:
    """Hamming weight of (x-c)^i over GF(p), c != 0, for 0 <= i < p^s.

    By Lucas' theorem the number of nonzero binomial coefficients C(i, j)
    mod p is the product of (digit + 1) over the base-p digits of i.
    """
    (p, s), i = _prime_power(p, s), as_int(i)
    if not 0 <= i < p ** s:
        raise ExponentOutOfRange(f"need 0 <= i < {p ** s}, got {i}")
    w = 1
    while i:
        i, r = divmod(i, p)
        w *= r + 1
    return w


def exponent_interval(p: int, s: int, i: int) -> tuple[int, int, int, int]:
    """(k, theta, lo, hi) for the unique interval containing i."""
    (p, s), i = _prime_power(p, s), as_int(i)
    if not 1 <= i <= p ** s - 1:
        raise ExponentOutOfRange(
            f"the interval partition covers 1..{p ** s - 1}, got {i}")
    for k in range(s):
        base = p ** s - p ** (s - k)
        width = p ** (s - k - 1)
        if i <= base + (p - 1) * width:
            theta = (i - base - 1) // width
            lo = base + theta * width + 1
            return k, theta, lo, lo + width - 1
    raise AssertionError("interval partition failed")  # pragma: no cover


def min_hamming_distance(p: int, s: int, i: int) -> int:
    """Minimum Hamming distance of <(x^n-a0)^i> in the field quotient.

    Independent of n: 1 at i = 0, 0 at i = p^s, else (theta+2)*p^k on the
    (k, theta) interval.
    """
    (p, s), i = _prime_power(p, s), as_int(i)
    if i == 0:
        return 1
    if i == p ** s:
        return 0
    k, theta, _, _ = exponent_interval(p, s, i)
    return (theta + 2) * p ** k


def min_pair_distance_field(n: int, p: int, s: int,
                            i: int) -> tuple[int, str]:
    """Minimum pair distance of <(x^n-a0)^i> over GF(p^m), with the rule of
    the closed-form branch that produced it.

    The value does not depend on m or on the choice of a0.
    """
    n, (p, s), i = as_int(n), _prime_power(p, s), as_int(i)
    if n < 1:
        raise ConstraintViolation("n must be positive")
    if n % p == 0:
        raise ConstraintViolation(
            f"n = {n} must be coprime to the characteristic {p}")
    ps = p ** s
    if not 0 <= i <= ps:
        raise ExponentOutOfRange(f"need 0 <= i <= {ps}, got {i}")
    if i == 0:
        return 2, "full-space"
    if i == ps:
        return 0, "zero-code"
    k, theta, lo, _ = exponent_interval(p, s, i)
    if n >= 2:
        return 2 * (theta + 2) * p ** k, "n>=2"
    if k <= s - 2:
        if theta == 0 and i == lo:
            return 3 * p ** k, "n=1 interval-start"
        if theta == 0:
            return 4 * p ** k, "n=1 theta=0 tail"
        return 2 * (theta + 2) * p ** k, "n=1 mid-theta"
    # k = s-1: the intervals are single points i = p^s - p + theta + 1.
    if i == ps - 1:
        return ps, "n=1 last-exponent"
    return (theta + 3) * p ** (s - 1), "n=1 top-block"


def min_pair_distance(ring: QuotientRing, spec: CodeSpec) -> int:
    """Closed-form minimum pair distance for any supported family."""
    validate_spec(ring, spec)
    return min_pair_distance_field(ring.n, ring.p, ring.s,
                                   _standard_exponents(ring, spec)[1])[0]


@dataclass(frozen=True)
class MdsVerdict:
    spec: CodeSpec
    d_sp: int
    singleton_defect: int
    is_mds: bool
    trivial: bool

    def to_dict(self) -> dict:
        return {
            "spec": spec_to_text(self.spec),
            "d_sp": self.d_sp,
            "singleton_defect": self.singleton_defect,
            "is_mds": self.is_mds,
            "trivial": self.trivial,
        }


def mds_verdict(ring: QuotientRing, spec: CodeSpec) -> MdsVerdict:
    """Singleton gap of the code, in exact integer log_p units.

    The bound is |C| <= A^(N - d_sp + 2) with A the coefficient-ring size,
    so the defect is (N - d_sp + 2)*log_p(A) - log_p|C| and MDS means
    defect 0.  Full spaces and zero codes satisfy the bound degenerately
    and are flagged trivial.
    """
    validate_spec(ring, spec)
    return MdsVerdict(spec, **_verdict(ring, *_standard_exponents(ring, spec)))


def _verdict(ring: QuotientRing, e0: int, e1: int) -> dict:
    """The numbers of `mds_verdict` for every code with the standard form
    (e0, e1), by field name."""
    d_sp = min_pair_distance_field(ring.n, ring.p, ring.s, e1)[0]
    alog = ring.base.gfp_dim
    clog = _form_log_size(ring, e0, e1)
    defect = (ring.N - d_sp + 2) * alog - clog
    return {"d_sp": d_sp, "singleton_defect": defect, "is_mds": defect == 0,
            "trivial": clog in (0, ring.N * alog)}


def _classify(ring: QuotientRing,
              rng: random.Random | None = None) -> Iterator[tuple]:
    """(row, forms, verdicts) for each key row of the ring
    (`codes._key_rows`): the standard form (e0, e1) and the `_verdict` of
    the records of each b kind.  A verdict's numbers are a function of the
    form alone, so they are computed once per distinct form and shared by
    every record of that form."""
    known: dict[tuple[int, int], dict] = {}
    for row in _key_rows(ring, rng):
        forms = {kind: row.exponents(ring, kind) for kind in row.kinds}
        for form in forms.values():
            if form not in known:
                known[form] = _verdict(ring, *form)
        yield row, forms, {kind: known[form] for kind, form in forms.items()}


def mds_classify(ring: QuotientRing, *,
                 rng: random.Random | None = None) -> list[MdsVerdict]:
    """Closed-form MDS verdict for every admissible code of the ring, in
    the order of `all_code_specs`: the per-record view of `_classify`.

    Nothing is enumerated here; :func:`consistency_scan` checks the closed
    forms against the exhaustive oracle.
    """
    return [MdsVerdict(spec, **verdicts[kind])
            for row, _, verdicts in _classify(ring, rng)
            for spec, (_, kind, _) in zip(row.records(), row.bs)]


@dataclass
class ScanEntry:
    spec_text: str
    dim_p: int
    log_size: int
    formula_pair: int
    oracle_pair: int | None
    formula_hamming: int
    oracle_hamming: int | None
    witness: str | None = None

    @property
    def dim_ok(self) -> bool:
        return self.dim_p == self.log_size

    @property
    def ok(self) -> bool:
        return (self.dim_ok and self.oracle_pair == self.formula_pair
                and self.oracle_hamming == self.formula_hamming)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_text,
            "dim_p": self.dim_p,
            "log_size": self.log_size,
            "dim_ok": self.dim_ok,
            "formula_pair": self.formula_pair,
            "oracle_pair": self.oracle_pair,
            "formula_hamming": self.formula_hamming,
            "oracle_hamming": self.oracle_hamming,
            "ok": self.ok,
            "witness": self.witness,
        }


@dataclass
class ScanReport:
    entries: list[ScanEntry] = field(default_factory=list)
    skipped: int = 0

    @property
    def mismatches(self) -> list[ScanEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "checked": len(self.entries),
            "skipped_over_budget": self.skipped,
            "ok": self.ok,
            "entries": [e.to_dict() for e in self.entries],
        }


def consistency_scan(ring: QuotientRing,
                     budget: int = DEFAULT_BUDGET, *,
                     rng: random.Random | None = None) -> ScanReport:
    """Exhaustively cross-check closed forms against enumeration.

    For every admissible code of the ring that fits the budget: the GF(p)
    dimension must match the classified size, and the enumerated minimum
    pair and Hamming distances must match their closed forms.  A code whose
    rank disagrees is recorded with ``dim_ok`` false and no oracle values,
    and the scan goes on.  Codes over budget are counted, not checked.
    An entry whose distances disagree carries as ``witness`` the first
    codeword attaining the oracle's pair minimum, or its Hamming minimum
    when only that disagrees.  Each record's standard form (e0, e1) is read
    once and gives its size and both closed forms; the codes in budget are
    built by one ``build_codes`` call, and each distinct basis is scanned
    once, its minima shared by every entry with that basis.
    """
    check_budget(budget)
    report = ScanReport()
    specs = all_code_specs(ring, rng=rng)
    forms = [_standard_exponents(ring, spec) for spec in specs]
    sizes = [_form_log_size(ring, *form) for form in forms]
    inside = [at for at, log_p_size in enumerate(sizes)
              if ring.p ** log_p_size <= budget]
    report.skipped = len(specs) - len(inside)
    built = build_codes(ring, [specs[at] for at in inside])
    scans: dict[bytes, dict] = {}
    for at, code in zip(inside, built):
        e1 = forms[at][1]
        formula_pair = min_pair_distance_field(ring.n, ring.p, ring.s, e1)[0]
        formula_ham = min_hamming_distance(ring.p, ring.s, e1)
        oracle_pair = oracle_ham = witness = None
        if isinstance(code, VerificationMismatch):
            dim_p = code.rank
        elif code.dim_p == 0:
            dim_p = oracle_pair = oracle_ham = 0
        else:
            dim_p = code.dim_p
            key = code.basis.tobytes()
            if key not in scans:
                scans[key] = scan_minima(code, budget)
            res = scans[key]
            oracle_pair, oracle_ham = res["min_pair"], res["min_hamming"]
            if oracle_pair != formula_pair:
                witness = repr(code.word_at(res["pair_at"]))
            elif oracle_ham != formula_ham:
                witness = repr(code.word_at(res["hamming_at"]))
        report.entries.append(ScanEntry(
            spec_text=spec_to_text(specs[at]),
            dim_p=dim_p,
            log_size=sizes[at],
            formula_pair=formula_pair,
            oracle_pair=oracle_pair,
            formula_hamming=formula_ham,
            oracle_hamming=oracle_ham,
            witness=witness,
        ))
    return report
