"""Construction of constacyclic codes from their ideal descriptions.

A code here is an ideal of a :class:`~paircodes.quotient.QuotientRing`,
described by one of five parameter records:

* ``FieldPower(i)``      -- <(x^n-a0)^i> over the field.
* ``ChainPrincipal(i)``  -- <(x^n-a0)^i> over the two-component ring with
  beta != 0 (a chain ring).
* ``Type1(k)``           -- <(x^n-a0)^k> over the ring with beta = 0.
* ``Type2(j, k, b)``     -- <(x^n-a0)^j b(x) + u (x^n-a0)^k>, beta = 0.
* ``Type3(j, k, t, b)``  -- <(x^n-a0)^j b(x) + u (x^n-a0)^k, (x^n-a0)^(k+t)>,
  beta = 0.

The families each kind of ring admits, and the range of every key, are
written once, in the tables `_FIELD_CODES`, `_CHAIN_CODES` and
`_BETA0_CODES`: `validate_spec` checks a record against them and
`_key_rows` enumerates them, one key row (one family, one set of integer
keys, every b of the ring) at a time; `all_code_specs` lists the records
of those rows.  A Type2 or Type3 record refuses, when it is made, a b that
is neither zero nor a unit of its field quotient.  The standard-form
exponents of a key row and b kind, which fix its records' size and
closed-form distances, are written once, in `_key_row_exponents`.

``build_codes`` turns records into explicit GF(p)-bases in row-reduced
echelon form, written straight from the standard form
<a^e0 + u a^k c, u a^e1> with no elimination and then proved to span the
ideal of the literal generators (see `_standard_bases`).  One call builds
each distinct generator tuple of its list once, and keeps nothing on the
ring; a ring keeps only facts of its algebra.  ``ideal_code``
builds the same basis from arbitrary generators by one RREF; it is the
reference the tests hold ``build_code`` to.  Codewords are laid out
position-major: position t of a word occupies columns [t*d, (t+1)*d) where
d is the GF(p)-dimension of the coefficient ring (m for the field, 2m with
the a-part first for the two-component ring).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    BetaMismatch,
    ConstraintViolation,
    ConstructionRefused,
    InvalidValue,
    NotUnitNorZero,
    RingMismatch,
    VerificationMismatch,
)
from ._digits import _Digits, _digits_of
from .galois import as_int, parse_int
from .quotient import QPoly, QuotientRing, binomial_power, qmul

DEFAULT_BUDGET = 1 << 21
# The most GF(p) columns (N times the coefficient ring's GF(p) dimension) a
# code is built over.  Building multiplies square int64 matrices of up to
# that size: 3-6 s and 25-35 MB of arrays at 2^10 columns on a 2-core VM,
# eight times the time and four times the memory per doubling.
MAX_COLUMNS = 1 << 10
# The most records `all_code_specs` lists for one ring.  A sweep validates,
# classifies or builds each record in Python; the heaviest ring the CLI
# benchmark tables has 6,742, and chain p=2, s=7, beta=0 would have 739,845.
MAX_RECORDS = 1 << 17


def check_budget(budget: int) -> None:
    """Refuse a word budget that is not an integer or would allow no
    codeword at all."""
    if as_int(budget) < 1:
        raise InvalidValue(f"the budget must be at least 1, got {budget}")


def _check_b(spec: Type2 | Type3) -> None:
    """Refuse a b that is neither zero nor a unit of its field quotient."""
    fq = spec.b.ring
    if unit_kind(fq, spec.b) == "neither":
        raise NotUnitNorZero(
            f"b = {spec.b!r} is neither zero nor a unit of {fq!r}")


@dataclass(frozen=True)
class FieldPower:
    i: int


@dataclass(frozen=True)
class ChainPrincipal:
    i: int


@dataclass(frozen=True)
class Type1:
    k: int


@dataclass(frozen=True)
class Type2:
    j: int
    k: int
    b: QPoly
    __post_init__ = _check_b


@dataclass(frozen=True)
class Type3:
    j: int
    k: int
    t: int
    b: QPoly
    __post_init__ = _check_b


CodeSpec = Union[FieldPower, ChainPrincipal, Type1, Type2, Type3]

_FAMILIES = {"field-power": FieldPower, "chain": ChainPrincipal,
             "type1": Type1, "type2": Type2, "type3": Type3}
# Each family's keys in field order, the order of its text form.
_FIELDS = {family: tuple(f.name for f in fields(family))
           for family in _FAMILIES.values()}

# The records each kind of ring admits (Dinh, J. Algebra 324 (2010)): each
# family's integer keys in enumeration order, every one with the bounds
# (lo, hi) of its range as a function of p^s and the keys before it.
_FIELD_CODES = {FieldPower: (("i", lambda ps: (0, ps)),)}
_CHAIN_CODES = {ChainPrincipal: (("i", lambda ps: (0, 2 * ps)),)}
_BETA0_CODES = {
    Type1: (("k", lambda ps: (0, ps)),),
    Type2: (("k", lambda ps: (0, ps - 1)),
            # j = p^s only at k = p^s - 1, where the head is u a^(p^s-1)
            # for every b: the minimal ideal, which no other record gives.
            ("j", lambda ps, k: (-(-(ps + k) // 2),
                                 ps if k == ps - 1 else ps - 1))),
    Type3: (("k", lambda ps: (0, ps - 2)),
            ("t", lambda ps, k: (1, ps - k - 1)),
            ("j", lambda ps, k, t: (k + -(-t // 2), k + t))),
}


def _admitted(ring: QuotientRing) -> dict:
    """The table of the families `ring` admits."""
    if not ring.is_chain:
        return _FIELD_CODES
    return _CHAIN_CODES if ring.beta != 0 else _BETA0_CODES


def unit_kind(fq: QuotientRing, b: QPoly) -> str:
    """Classify b as "zero", "unit" or "neither" in the field quotient.

    Each distinct b is decided once per quotient and remembered there.
    """
    if fq.is_chain or b.ring != fq:
        raise RingMismatch("b must live in the companion field quotient")
    return fq.remember(("codes.unit_kind", b.coeffs),
                       lambda: _fold_kind(fq, b))


def _fold_kind(fq: QuotientRing, b: QPoly) -> str:
    """b is a unit exactly when it is nonzero modulo the radical generator;
    folding x^n to alpha0 computes that remainder in one pass."""
    if b.is_zero():
        return "zero"
    field, n, a0 = fq.field, fq.n, fq.alpha0
    rem = [0] * n
    for d, c in enumerate(b.coeffs):
        if c:
            folded = field.mul(c, field.pow(a0, d // n))
            rem[d % n] = field.add(rem[d % n], folded)
    return "unit" if any(rem) else "neither"


def validate_spec(ring: QuotientRing, spec: CodeSpec) -> None:
    """Check a parameter record against its admissible range for the ring.

    The family must be one the ring admits and each integer key must lie in
    its range in that family's table.  Whether b is zero or a unit is
    checked when a Type2/Type3 record is made; here b only has to live in
    the ring's field quotient.
    """
    families = _admitted(ring)
    ranges = families.get(type(spec))
    if ranges is None:
        if type(spec) not in _FIELDS:
            raise TypeError(f"not a code parameter record: {spec!r}")
        raise BetaMismatch(
            f"{type(spec).__name__} codes are not admitted over {ring!r}, "
            f"which admits {', '.join(f.__name__ for f in families)}")
    ps = ring.p ** ring.s
    before: list[int] = []
    for key, bounds in ranges:
        value = as_int(getattr(spec, key))
        lo, hi = bounds(ps, *before)
        if not lo <= value <= hi:
            need = f"need {lo} <= {key} <= {hi}"
            if before:
                need += " for " + ", ".join(
                    f"{k}={v}" for (k, _), v in zip(ranges, before))
            raise ConstraintViolation(f"{need}, got {key}={value}")
        before.append(value)
    b = getattr(spec, "b", None)
    if b is not None and b.ring != ring.field_quotient():
        raise RingMismatch("b must live in the companion field quotient")


def all_code_specs(ring: QuotientRing, *,
                   rng: random.Random | None = None) -> list[CodeSpec]:
    """Every admissible parameter record for the ring, in a fixed order:
    the records of each key row of `_key_rows`, b fastest.

    For the families with a free polynomial b, the zero choice is always
    included plus three random units drawn from `rng` (seeded
    deterministically when omitted).  A ring with more than `MAX_RECORDS`
    records is refused (see `_key_rows`).
    """
    return [spec for row in _key_rows(ring, rng) for spec in row.records()]


# The b choices of a family without b: one record, whose text is its prefix.
_NO_B = ((None, None, ""),)


class _KeyRow(NamedTuple):
    """The records of one family with one set of integer keys, which differ
    only in b: each record's text is one prefix plus its b text, and its
    (e0, e1) is that of its b kind."""
    family: type
    keys: dict          # the integer keys by name
    bs: tuple           # (b, kind, text) of each record; _NO_B without b
    kinds: tuple        # the distinct b kinds of `bs`, in order

    def records(self) -> list[CodeSpec]:
        if self.bs is _NO_B:
            return [self.family(**self.keys)]
        return [self.family(**self.keys, b=b) for b, _, _ in self.bs]

    def prefix(self) -> str:
        """The records' text form up to the b value."""
        return _FORMATS[self.family].format_map(self.keys)

    def texts(self) -> list[str]:
        prefix = self.prefix()
        return [prefix + text for _, _, text in self.bs]

    def exponents(self, ring: QuotientRing,
                  kind: str | None) -> tuple[int, int]:
        """(e0, e1) of the records whose b is of `kind`."""
        return _key_row_exponents(ring, self.family, self.keys, kind)

    def generator_text(self, ring: QuotientRing, kind: str | None) -> str:
        """`spec_generator_text` of the records whose b is of `kind`."""
        return _generator_text(ring, self.family, self.keys, kind)


def _key_rows(ring: QuotientRing,
              rng: random.Random | None = None) -> Iterator[_KeyRow]:
    """Every key row of the ring's table, in a fixed order: the families
    and their keys as the table lists them, the last key fastest.

    The records of a family with b take the ring's b choices: zero, then
    three random units drawn from `rng` (seeded with 0 when omitted), each
    with its kind and its text, decided once per ring.  A ring with more than
    `MAX_RECORDS` records is refused before a key level over the ceiling is
    built.  A level has sum(hi - lo + 1) rows over the rows of the level
    above it, four records each in a family with b; no range is empty, so
    no level has fewer rows than the one above it, and the count is exact.
    """
    ps = ring.p ** ring.s
    bs = None
    records = 0
    for family, ranges in _admitted(ring).items():
        per_row = 4 if "b" in _FIELDS[family] else 1     # b = 0, 3 units
        rows = [()]
        for _, bounds in ranges:     # nested loops, the last key fastest
            spans = [(row, bounds(ps, *row)) for row in rows]
            count = per_row * sum(hi - lo + 1 for _, (lo, hi) in spans)
            if records + count > MAX_RECORDS:
                raise ConstructionRefused(
                    f"a ring is enumerated with at most {MAX_RECORDS} "
                    f"records; {ring!r} has more")
            rows = [row + (value,) for row, (lo, hi) in spans
                    for value in range(lo, hi + 1)]
        records += per_row * len(rows)
        choices = _NO_B
        if per_row > 1:
            if bs is None:
                fq = ring.field_quotient()
                rng = random.Random(0) if rng is None else rng
                bs = [(fq.zero(), "zero")] + [
                    (random_unit(fq, rng), "unit") for _ in range(3)]
                bs = tuple((b, kind, _poly_text_short(b)) for b, kind in bs)
            choices = bs
        kinds = tuple(dict.fromkeys(kind for _, kind, _ in choices))
        keys = [key for key, _ in ranges]
        for row in rows:
            yield _KeyRow(family, dict(zip(keys, row)), choices, kinds)


def generators(ring: QuotientRing, spec: CodeSpec) -> list[QPoly]:
    """The defining generator polynomials, as elements of the quotient.

    A sweep's records share a^j b across k and t, so the field quotient
    makes each such product once."""
    validate_spec(ring, spec)
    if isinstance(spec, (FieldPower, ChainPrincipal)):
        return [binomial_power(ring, spec.i)]
    if isinstance(spec, Type1):
        return [binomial_power(ring, spec.k)]
    fq = ring.field_quotient()
    ajb = fq.remember(("codes.generators", spec.j, spec.b.coeffs),
                      lambda: qmul(binomial_power(fq, spec.j), spec.b).coeffs)
    head = ring.lift(QPoly(fq, ajb), binomial_power(fq, spec.k))
    if isinstance(spec, Type2):
        return [head]
    return [head, binomial_power(ring, spec.k + spec.t)]


def log_size(ring: QuotientRing, spec: CodeSpec) -> int:
    """log_p of the code's cardinality, from the classification."""
    validate_spec(ring, spec)
    return _log_size(ring, spec)


def _log_size(ring: QuotientRing, spec: CodeSpec) -> int:
    """`log_size` of a spec already checked by `validate_spec`."""
    return _form_log_size(ring, *_standard_exponents(ring, spec))


def _form_log_size(ring: QuotientRing, e0: int, e1: int) -> int:
    """log_p of the size of a code with the standard form (e0, e1)."""
    return ring.m * ring.n * (2 * ring.p ** ring.s - e0 - e1)


def _b_kind(spec: CodeSpec) -> str | None:
    """The kind of a record's b: None without b, else "zero" or "unit" (a
    record refused any other b when it was made)."""
    b = getattr(spec, "b", None)
    return None if b is None else "zero" if b.is_zero() else "unit"


def _standard_exponents(ring: QuotientRing, spec: CodeSpec) -> tuple[int, int]:
    """(e0, e1) of a spec already checked by `validate_spec`: those of its
    key row and b kind."""
    return _key_row_exponents(ring, type(spec), vars(spec), _b_kind(spec))


def _key_row_exponents(ring: QuotientRing, family: type, keys,
                       kind: str | None) -> tuple[int, int]:
    """(e0, e1) of the records of `family` with the integer `keys` (by name)
    whose b is of `kind`: with a = x^n - alpha0 the code is
    <a^e0 + u a^k c, u a^e1> (Norton and Salagean, AAECC 10 (2000); Dinh,
    J. Algebra 324 (2010)), so it has p^(m n (2p^s - e0 - e1)) words.  Its
    Hamming and pair distances are those of its torsion code
    <a^e1> = {c : u c in C}: u times that code lies in C, and a word
    c0 + u c1 of C with c0 != 0 has u c0 in C, whose support lies inside
    its own.  A field code C counts as u C: (p^s, i).
    """
    ps = ring.p ** ring.s
    if family is FieldPower:
        return ps, keys["i"]
    if family is ChainPrincipal:
        return min(keys["i"], ps), max(keys["i"] - ps, 0)
    if family is Type1:
        return keys["k"], keys["k"]
    j, k, unit = keys["j"], keys["k"], kind == "unit"
    if family is Type2:
        return (j, ps - j + k) if unit else (ps, k)
    t = keys["t"]
    return (j, 2 * k + t - j) if unit else (k + t, k)


# --- GF(p) linear algebra ---------------------------------------------------

def rref_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """The nonzero rows of the row-reduced echelon form over GF(p).

    The rows are a compact copy, so a code's basis does not keep the whole
    elimination matrix alive."""
    mat = np.array(mat, dtype=np.int64) % p
    rows, cols = mat.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            mat[[r, piv]] = mat[[piv, r]]
        mat[r] = (mat[r] * pow(int(mat[r, c]), p - 2, p)) % p
        col = mat[:, c].copy()
        col[r] = 0
        mat = (mat - np.outer(col, mat[r])) % p
        r += 1
    return mat[:r].copy()


def word_coords(w: QPoly) -> np.ndarray:
    """GF(p) coordinate row of a word, position-major."""
    return _digits_of(w.ring).of(w).reshape(-1)


class ConstacyclicCode:
    """An ideal of the quotient: the GF(p) row space of the independent rows
    `basis`.  Words follow `basis` as given; membership and equality do not."""

    def __init__(self, ring: QuotientRing, basis: np.ndarray):
        self.ring = ring
        basis = np.ascontiguousarray(basis, dtype=np.int64)
        if basis.ndim != 2 or basis.shape[1] != self.ncols:
            raise RingMismatch(f"need basis rows of {self.ncols} coordinates")
        nonzero = basis % ring.p != 0       # echelon rows are independent
        lead = nonzero.argmax(axis=1)
        if not (nonzero.any(axis=1).all() and (lead[1:] > lead[:-1]).all()) \
                and len(rref_mod_p(basis, ring.p)) < len(basis):
            raise ConstructionRefused(f"dependent basis rows over GF({ring.p})")
        basis.flags.writeable = False
        self.basis = basis
        self.dim_p = basis.shape[0]

    @property
    def size(self) -> int:
        return self.ring.p ** self.dim_p

    @property
    def ncols(self) -> int:
        return self.ring.N * self.ring.base.gfp_dim

    # -- words <-> coordinate rows ------------------------------------------

    def coords_at(self, counter: int) -> np.ndarray:
        """GF(p) coordinates of codeword number `counter`: its base-p
        digits, least significant first, weight the basis rows."""
        if not 0 <= as_int(counter) < self.size:
            raise InvalidValue(f"no codeword number {counter} among "
                               f"{self.size}")
        digits = []
        while counter:
            counter, digit = divmod(counter, self.ring.p)
            digits.append(digit)
        rows = self.basis[:len(digits)]
        return (np.array(digits, dtype=np.int64) @ rows) % self.ring.p

    def word_at(self, counter: int) -> QPoly:
        return self.ring.poly(
            _digits_of(self.ring).values(self.coords_at(counter)))

    # -- membership -----------------------------------------------------------

    def contains(self, w: QPoly) -> bool:
        if w.ring != self.ring:
            raise RingMismatch("word lives in a different quotient")
        return bool(self.contains_batch(word_coords(w)[None, :])[0])

    def contains_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized membership for rows of GF(p) coordinates: a word is a
        member when the reduced basis rebuilds it from its pivot columns."""
        p = self.ring.p
        w = np.asarray(words, dtype=np.int64) % p
        if w.ndim != 2 or w.shape[1] != self.ncols:
            raise RingMismatch(f"need rows of {self.ncols} coordinates")
        red = rref_mod_p(self.basis, p)
        resid = (w - w[:, (red != 0).argmax(axis=1)] @ red) % p
        return ~resid.any(axis=1)

    def same_rowspace(self, other: "ConstacyclicCode") -> bool:
        """Whether the two bases span one code: their reduced forms agree."""
        if other.ring != self.ring:
            raise RingMismatch("codes live in different quotients")
        p = self.ring.p
        return np.array_equal(rref_mod_p(self.basis, p),
                              rref_mod_p(other.basis, p))

    def __repr__(self) -> str:
        return f"ConstacyclicCode(dim_p={self.dim_p}, ring={self.ring!r})"


def ideal_code(ring: QuotientRing,
               gens: Sequence[QPoly]) -> ConstacyclicCode:
    """The ideal generated by arbitrary elements, as a row-reduced basis.

    The ideal is spanned over GF(p) by y^e x^t g for every generator g,
    t < N and e < m, and over the two-component ring also by u times
    those.  The build's digit layer forms them, and one RREF reduces them
    all; the standard form is never read.
    """
    if any(g.ring != ring for g in gens):
        raise RingMismatch("generator lives in a different quotient")
    dig, N, d = _digits_of(ring), ring.N, ring.base.gfp_dim
    G = dig.of(*gens).reshape(len(gens), N, d)      # (0, N, d) with no gens
    S = dig.shifts(G, N).reshape(-1, N, d)
    if ring.is_chain:
        S = np.concatenate([S, dig.times_u(S)])
    return ConstacyclicCode(ring, rref_mod_p(dig.basis_multiples(S), ring.p))


def build_code(ring: QuotientRing, spec: CodeSpec) -> ConstacyclicCode:
    """Materialize the ideal described by `spec` as a row-reduced basis:
    `build_codes` of one record, raising its VerificationMismatch."""
    code, = build_codes(ring, [spec])
    if isinstance(code, VerificationMismatch):
        raise code
    return code


def build_codes(ring: QuotientRing, specs: Sequence[CodeSpec]) -> list:
    """For each record of `specs`, its code as a row-reduced basis, or the
    VerificationMismatch that fails it alone.

    A ring of more than `MAX_COLUMNS` GF(p) columns is refused before any
    work.  Each record is validated and its generators computed once.
    Records with the same generator coefficients span the same ideal, so
    the batched kernel `_standard_bases` writes each distinct tuple of
    `specs` once, all in one call, and every record of a tuple gets its
    basis or its mismatch.  Each record's rank is checked against its own
    classified size.
    """
    _check_columns(ring)
    todo = [(spec, generators(ring, spec)) for spec in specs]
    keys = [tuple(g.coeffs for g in gens) for _, gens in todo]
    distinct: dict[tuple, tuple] = {}
    for key, record in zip(keys, todo):
        distinct.setdefault(key, record)
    built = dict(zip(distinct, _standard_bases(ring, [*distinct.values()])))
    out = []
    for key, (spec, _) in zip(keys, todo):
        basis = built[key]
        if isinstance(basis, VerificationMismatch):
            out.append(basis)
            continue
        code = ConstacyclicCode(ring, basis)
        want = _log_size(ring, spec)
        out.append(code if code.dim_p == want else VerificationMismatch(
            f"rank {code.dim_p} != classified size exponent {want}",
            rank=code.dim_p))
    return out


def _check_columns(ring: QuotientRing) -> None:
    """Refuse a ring of more than `MAX_COLUMNS` GF(p) columns."""
    cols = ring.N * ring.base.gfp_dim
    if cols > MAX_COLUMNS:
        raise ConstructionRefused(
            f"a code is built over at most {MAX_COLUMNS} GF({ring.p}) "
            f"columns; this ring has {cols}")


def _multipliers(ring: QuotientRing,
                 spec: CodeSpec) -> list[list[tuple[int, ...]]]:
    """Coefficients of the ring elements f_oi with g_o = sum_i f_oi h_i, the
    standard pair g0 = a^e0 + u a^k c and g1 = u a^e1 as explicit ring
    multiples of the literal generators h_i.  g0 is zero where the code
    has no a-part of its own (a field code, b = 0 in Type2, a chain code
    past p^s).  With h = a^j b + u a^k and c = b^-1: g0 = c h, and
    g1 = a^(p^s-j) h in Type2, a^(k+t-j) h - b a^(k+t) in Type3.  g1 may
    come out a unit multiple of u a^e1, as over beta != 0: making it monic
    takes the unit off."""
    ps, zero, one = ring.p ** ring.s, (0,), (1,)
    if isinstance(spec, FieldPower):
        return [[zero], [one]]
    if isinstance(spec, Type1):
        return [[one], [(ring.base.make(0, 1),)]]
    if isinstance(spec, ChainPrincipal):   # a^(p^s) = u beta: g1 = beta u
        return [[one], [binomial_power(ring, ps - spec.i).coeffs]] \
            if spec.i <= ps else [[zero], [one]]
    if spec.b.is_zero():        # <u a^k>, and a^(k+t) after it in Type3
        return [[zero, one], [one, zero]] if isinstance(spec, Type3) else \
            [[zero], [one]]
    fq = ring.field_quotient()
    c = unit_inverse(fq, spec.b).coeffs
    if isinstance(spec, Type2):
        return [[c], [binomial_power(fq, ps - spec.j).coeffs]]
    return [[c, zero], [binomial_power(fq, spec.k + spec.t - spec.j).coeffs,
                        tuple(map(fq.field.neg, spec.b.coeffs))]]


def _pivot_inverse(ring: QuotientRing, dig: _Digits, e: int) -> np.ndarray:
    """The inverse of the pivot block of the basis multiples of x^t a^e,
    t < N - n e, for a^e monic: the upper block-Toeplitz matrix of the
    power-series inverse of a^e.  For e > 0 that series is the monic
    a^(p^s - e), as their product x^N - alpha is constant below x^N; the
    inverse of a^0 = 1 is 1, not a^(p^s) = 0.  The ring keeps the matrix
    per e: it has ((N - n e) m)^2 entries, no more than the basis of a
    code with that e."""
    def make():
        ps, m = ring.p ** ring.s, ring.m
        series = dig.of(binomial_power(ring.field_quotient(), (ps - e) % ps))
        head = int(series[0, 0, :m] @ dig.place[:m])
        if head != 1:
            series = dig.scale(series, [ring.field.pow(head, -1)])
        return dig.toeplitz(series[0, :ring.N - ring.n * e, :m])
    return ring.remember(("codes._pivot_inverse", e), make)


# The most int64 entries of one temporary of a batch of builds, which holds
# at most (N d)^2 per build; more records are built in several batches.
_BATCH = 1 << 14


def _standard_bases(ring: QuotientRing, todo: Sequence[tuple]) -> list:
    """For each (spec, gens) of `todo`, the row-reduced basis of the ideal I
    of `gens`, the literal generators of `spec`, written from its standard
    form with no elimination; or the VerificationMismatch its proof raised.

    g0 = a^e0 + u a^k c and g1 = u a^e1 are ring multiples of `gens`,
    made monic (`_standard_pairs`).  The rows are y^e x^t g0 for
    t < c0 = N - n e0 and y^e x^t g1 for t < c1 = N - n e1, e < m, with
    (e0, e1) read from `_standard_exponents`.  Their pivot columns are
    digit e of the a-block, resp. u-block, of position t.  In block order,
    a-rows first, the pivot block is [[T_a, B], [0, T_u]] with T_a and T_u
    unit upper block-Toeplitz; its inverse Q has the power-series inverses
    of T_a and T_u on the diagonal (`_pivot_inverse`), and R = Q rows:
    R_u = T_u^-1 U, R_a = T_a^-1 (A - B R_u).  Pivot order would not be
    triangular: x^t g0 wraps its u-part below position t.

    Proof that R is the RREF basis of I, checked here, not assumed:
    * R[:, piv] = I.  R = Q rows with Q unit upper triangular, so the
      pivot block is Q^-1, unit upper triangular: the rows are
      independent and R spans what they span, call it V.
    * Sorted by pivot, each row of R starts at its pivot: echelon form.
    * Every literal generator lies in V, so I is in V once V is an ideal.
    * x^c0 g0, x^c1 g1, u g0 and u g1 lie in V.  V is closed under
      GF(p^m) scalars (the y^e span them); x times a row is the next row
      or a scalar times x^c g, and u times a row is a scalar times a
      shift of u g, so V is closed under x and u: an ideal.
    Every row is a ring multiple of `gens`, so V is in I: V = I.  A check
    that fails, for one because (e0, e1) are wrong, fails its own record.

    The records are sorted by their number of generators and (e0, e1), and
    cut into batches of one number of generators, at most `_BATCH` //
    (N d)^2 records each.  One batched product writes a batch's standard
    pairs; then the records of one (e0, e1), which share c0, c1, the
    pivots and both pivot inverses, are reduced and proved together.
    """
    step = max(1, _BATCH // (ring.N * ring.base.gfp_dim) ** 2)
    forms = [(len(gens), *_standard_exponents(ring, spec))
             for spec, gens in todo]
    order = sorted(range(len(todo)), key=forms.__getitem__)
    out: list = [None] * len(todo)
    lo = 0
    while lo < len(order):
        k = forms[order[lo]][0]
        batch = [at for at in order[lo:lo + step] if forms[at][0] == k]
        lo += len(batch)
        pairs = _standard_pairs(ring, [todo[at] for at in batch])
        runs: dict[tuple, list[int]] = {}
        for i, at in enumerate(batch):
            runs.setdefault(forms[at], []).append(i)
        for (_, e0, e1), run in runs.items():
            part = slice(run[0], run[-1] + 1)       # a batch is sorted by form
            for at, basis in zip(batch[part], _standard_batch(
                    ring, e0, e1, [todo[at][0] for at in batch[part]],
                    *(a[part] for a in pairs))):
                out[at] = basis
    return out


def _standard_pairs(ring: QuotientRing, todo: list[tuple]) -> tuple:
    """For (spec, gens) records of one number k of generators: the digits
    of their literal generators (B, k, N, d), of their standard pairs
    (B, 2, N, d), and whether each g of a pair has a nonzero lowest digit
    block (B, 2): the a-digits of position 0 for g0, the u-digits for g1
    (all the digits over the field).  Each g with one is made monic there.
    """
    N, m, d = ring.N, ring.m, ring.base.gfp_dim
    dig, B = _digits_of(ring), len(todo)
    lits = dig.of(*(g for _, gens in todo for g in gens)).reshape(B, -1, N, d)
    table: dict[tuple, int] = {}     # each distinct multiplier once
    at = [[[table.setdefault(f, len(table)) for f in row] for row in rows]
          for rows in (_multipliers(ring, spec) for spec, _ in todo)]
    K = max(map(len, table))
    F = dig.digits([f + (0,) * (K - len(f)) for f in table])
    G = dig.times(lits, F[np.array(at)])
    heads = G[:, :, 0].reshape(B, 2, -1, m) @ dig.place[:m]
    leads = heads[:, [0, 1], [0, -1]]           # per digit group
    flat = leads.ravel().tolist()
    inverse = {lead: ring.field.pow(lead, -1) for lead in set(flat) if lead}
    if any(inv != 1 for inv in inverse.values()):
        G = dig.scale(G.reshape(2 * B, N, d),
                      [inverse.get(lead, 1) for lead in flat]).reshape(G.shape)
    return lits, G, leads != 0


def _standard_batch(ring: QuotientRing, e0: int, e1: int,
                    specs: list[CodeSpec], lits: np.ndarray, G: np.ndarray,
                    led: np.ndarray) -> list:
    """`_standard_bases` of records with the standard exponents (e0, e1),
    from their `_standard_pairs`."""
    p, N, n, m = ring.p, ring.N, ring.n, ring.m
    d, dig, B = ring.base.gfp_dim, _digits_of(ring), len(specs)
    c0, c1 = N - n * e0, N - n * e1

    def mismatch(spec, formed=False):
        text = spec_to_text(spec)
        return VerificationMismatch(
            f"the standard form of {text} does not reduce to the ideal of "
            "its generators" if formed else
            f"no standard form with {c0} + {c1} shifts for {text}")
    if not (0 <= c0 <= N and 0 <= c1 <= N):
        return [mismatch(spec) for spec in specs]
    formed = (led[:, 0] | (c0 == 0)) & (led[:, 1] | (c1 == 0))
    # One gather for both blocks, or for g1 alone when g0 has no rows.
    S = dig.shifts(G[:, 1 - bool(c0):], max(c0, c1) + 1)
    S0, S1 = S[:, 0] if c0 else G[:, :1], S[:, -1]
    checks = [lits, S0[:, c0:c0 + 1], S1[:, c1:c1 + 1]]
    if d > m:
        checks.append(dig.times_u(G))
    checks = np.concatenate(checks, axis=1).reshape(B, -1, N * d)
    piv = (dig.cols[:c1] + d - m).ravel()
    R = _pivot_inverse(ring, dig, e1) @ dig.basis_multiples(S1[:, :c1])
    R %= p
    del S, S1                   # a batch's peak memory is about 3 R
    if c0:
        A = dig.basis_multiples(S0[:, :c0])
        R_a = _pivot_inverse(ring, dig, e0) @ (
            (A - A[:, :, piv] @ R) % p) % p
        piv = np.concatenate([dig.cols[:c0].ravel(), piv])
        order = np.argsort(piv)
        R, piv = np.concatenate([R_a, R], axis=1)[:, order], piv[order]
    proved = formed & (
        (R[:, :, piv] == np.eye(len(piv), dtype=R.dtype)).all(axis=(1, 2))
        & ((R != 0).argmax(axis=2) == piv).all(axis=1)
        & ~((checks - checks[:, :, piv] @ R) % p).any(axis=(1, 2)))
    return [basis.copy() if ok else mismatch(spec, form)
            for basis, ok, form, spec in zip(R, proved.tolist(),
                                             formed.tolist(), specs)]


def random_unit(fq: QuotientRing, rng: random.Random) -> QPoly:
    """A uniformly random unit of the field quotient."""
    q = fq.field.q
    while True:
        f = fq.poly([rng.randrange(q) for _ in range(fq.N)])
        if unit_kind(fq, f) == "unit":
            return f


def unit_inverse(fq: QuotientRing, b: QPoly) -> QPoly:
    """Inverse of a unit of the field quotient, made once per quotient.

    The units of F[x]/(a^(p^s)) are GF(q^n)* times 1 + aF[x], a group of
    exponent p^s, so b^(p^s (q^n - 1)) = 1: b^-1 is b to one less, by
    square and multiply.  For any other b that power is no inverse, and b
    is refused."""
    if fq.is_chain or b.ring != fq:
        raise RingMismatch("b must live in the companion field quotient")
    return QPoly(fq, fq.remember(("codes.unit_inverse", b.coeffs),
                                 lambda: _unit_power(fq, b)))


def _unit_power(fq: QuotientRing, b: QPoly) -> tuple[int, ...]:
    """Coefficients of b^(p^s (q^n - 1) - 1), checked to be b^-1."""
    dig, p = _digits_of(fq), fq.p
    B, one = dig.of(b, fq.one())

    def times(x, y):
        return dig.times(x[None, None], y[None, None, None])[0, 0]
    out = one
    for bit in bin(p ** fq.s * (fq.field.q ** fq.n - 1) - 1)[2:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, B)
    if not np.array_equal(times(out, B), one):
        raise NotUnitNorZero(f"{b!r} is not a unit of {fq!r}")
    return tuple(dig.values(out).tolist())


# --- textual parameter records ------------------------------------------------

# Each family's text form up to its b value, e.g. "type2:j={j},k={k},b=".
_FORMATS = {family: f"{head}:" + ",".join(
                "b=" if key == "b" else f"{key}={{{key}}}"
                for key in _FIELDS[family])
            for head, family in _FAMILIES.items()}


def spec_to_text(spec: CodeSpec) -> str:
    """Compact text form, e.g. "field-power:i=2" or "type2:j=7,k=1,b=1";
    the inverse of `spec_from_text`.

    The b value, always last, is the polynomial in the usual coefficient
    syntax (and may itself contain commas).
    """
    fmt = _FORMATS.get(type(spec))
    if fmt is None:
        raise TypeError(f"not a code parameter record: {spec!r}")
    b = getattr(spec, "b", None)
    return fmt.format_map(vars(spec)) + (
        "" if b is None else _poly_text_short(b))


def _poly_text_short(f: QPoly) -> str:
    """f's text without trailing "0" coefficients, made once per quotient."""
    return f.ring.remember(("codes._poly_text_short", f.coeffs),
                           lambda: re.sub(r"(,0)+$", "", f.ring.format_poly(f)))


def spec_from_text(text: str, ring: QuotientRing) -> CodeSpec:
    """Parse the compact text form; b, if present, must be the last key.

    Every key of the family must be given once, and no other key.
    """
    head, _, body = text.strip().partition(":")
    head = head.strip().lower()
    given: dict[str, str] = {}
    rest = body.strip()
    while rest:
        key, eq, tail = rest.partition("=")
        key = key.strip().lower()
        if not eq:
            raise ConstraintViolation(f"malformed parameter text: {text!r}")
        if key in given:
            raise ConstraintViolation(f"repeated key {key}= in {text!r}")
        if key == "b":
            given["b"] = tail.strip()
            break
        val, comma, rest = tail.partition(",")
        if comma and not rest.strip():
            raise ConstraintViolation(f"malformed parameter text: {text!r}")
        given[key] = val.strip()
    if head not in _FAMILIES:
        raise ConstraintViolation(f"unknown code family {head!r}")
    keys = _FIELDS[_FAMILIES[head]]
    for key in given:
        if key not in keys:
            raise ConstraintViolation(
                f"unknown key {key}= for {head} in {text!r}")

    def value(key: str) -> int | QPoly:
        if key not in given:
            raise ConstraintViolation(f"missing {key}= in {text!r}")
        if key == "b":
            return ring.field_quotient().parse_poly(given["b"])
        return parse_int(given[key])

    return _FAMILIES[head](**{key: value(key) for key in keys})


def spec_generator_text(ring: QuotientRing, spec: CodeSpec) -> str:
    """Human-readable generator description for tables."""
    validate_spec(ring, spec)
    return _generator_text(ring, type(spec), vars(spec), _b_kind(spec))


def _generator_text(ring: QuotientRing, family: type, keys,
                    kind: str | None) -> str:
    """The generator description of the records of `family` with the
    integer `keys` (by name) whose b is of `kind`."""
    a0 = ring.field.format_coeff(ring.alpha0)
    g = f"x^{ring.n}-{a0}" if ring.n > 1 else f"x-{a0}"

    def pw(e: int) -> str:
        if e == 0:
            return "1"
        return f"({g})" if e == 1 else f"({g})^{e}"

    if family in (FieldPower, ChainPrincipal):
        return pw(keys["i"])
    if family is Type1:
        return pw(keys["k"])
    head = (f"u{pw(keys['k'])}" if kind == "zero"
            else f"{pw(keys['j'])}b + u{pw(keys['k'])}")
    if family is Type2:
        return head
    return f"<{head}, {pw(keys['k'] + keys['t'])}>"
