"""Quotient rings F[x]/(x^N - lam) and their residue polynomials.

Here N = n * p^s with gcd(n, p) = 1, the coefficient ring is either
GF(p^m) or GF(p^m) + u GF(p^m), and the constant lam is chosen so that the
quotient has repeated-root structure: over the field, lam = alpha0^(p^s)
for a given alpha0 with x^n - alpha0 irreducible, so that

    x^N - lam = (x^n - alpha0)^(p^s);

over the two-component ring, lam = alpha + u*beta with alpha = alpha0^(p^s).
The binomial a(x) = x^n - alpha0 is the *radical generator*: every ideal of
the quotient is built from its powers, which ``binomial_power`` writes down
by the binomial theorem.

A residue is a :class:`QPoly`: an immutable length-N coefficient tuple
(degree 0 first) of encoded coefficient-ring ints.  Multiplication wraps
x^N back to lam.  Text form: coefficients joined by commas, degree 0 first,
each coefficient comma-free ("2.1" for 2+y in GF(9), "2+u1" over the
two-component ring).  Only polynomials over the field are read back.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from .errors import (
    ConstructionRefused,
    ExponentOutOfRange,
    InvalidValue,
    RingMismatch,
    ZeroPolynomial,
)
from .galois import ChainRing, Field, as_int, binomial_irreducible

CoefficientRing = Union[Field, ChainRing]


class QuotientRing:
    """F[x]/(x^(n*p^s) - lam) with repeated-root structure."""

    def __init__(self, field: Field, n: int, s: int, alpha0,
                 beta: int | None = None):
        p = field.p
        if as_int(n) < 1 or as_int(s) < 1:
            raise ConstructionRefused("n and s must be positive")
        if math.gcd(n, p) != 1:
            raise ConstructionRefused(
                f"n = {n} must be coprime to the characteristic {p}")
        if not binomial_irreducible(field, n, alpha0):
            raise ConstructionRefused(
                f"x^{n} - ({field.format_element(alpha0)}) is reducible "
                f"over GF({field.q})")
        self.field = field
        self.n = n
        self.s = s
        self.p = p
        self.N = n * p ** s
        self.alpha0 = alpha0
        self.alpha = field.pow(alpha0, p ** s)
        if beta is None:
            self.beta = self._fq = None
            self.base: CoefficientRing = field
            self.lam = self.alpha
        else:
            self.beta = field.check_element(beta)
            self.base = ChainRing(field)
            self.lam = self.base.make(self.alpha, self.beta)
            self._fq = QuotientRing(field, n, s, alpha0)
        self._memo: dict[tuple, object] = {}

    @property
    def is_chain(self) -> bool:
        return self.beta is not None

    @property
    def m(self) -> int:
        return self.field.m

    def field_quotient(self) -> "QuotientRing":
        """The companion quotient over the plain field (same n, s, alpha0)."""
        return self if self._fq is None else self._fq

    def remember(self, key: tuple, make=None):
        """``make()``, run once per key for as long as the ring lives; with
        no `make`, the kept value or None, and nothing is stored.  The key's
        first item names the kind of work.  Values hold plain data that never
        refers back to a ring, and `make` never returns None.  The companion
        field quotient is no memo: a chain ring builds it with itself.
        """
        value = self._memo.get(key)
        if value is None and make is not None:
            value = self._memo[key] = make()
        return value

    # -- polynomial constructors --------------------------------------------

    def poly(self, coeffs: Iterable[int]) -> "QPoly":
        cs = [as_int(c) for c in coeffs]
        if len(cs) > self.N:
            raise RingMismatch(
                f"{len(cs)} coefficients for a length-{self.N} quotient")
        cs += [0] * (self.N - len(cs))
        size = self.base.size if self.is_chain else self.field.q
        for c in cs:
            if not 0 <= c < size:
                raise InvalidValue(f"coefficient {c} out of range")
        return QPoly(self, tuple(cs))

    def zero(self) -> "QPoly":
        return QPoly(self, (0,) * self.N)

    def one(self) -> "QPoly":
        return self.monomial(0)

    def monomial(self, j: int) -> "QPoly":
        """x^j for 0 <= j < N; other j are refused, not reduced."""
        if not 0 <= as_int(j) < self.N:
            raise ExponentOutOfRange(
                f"exponent {j} outside [0, {self.N}) for {self!r}")
        cs = [0] * self.N
        cs[j] = 1
        return QPoly(self, tuple(cs))

    def lift(self, f: "QPoly", g: "QPoly") -> "QPoly":
        """f + u*g in the two-component quotient, for polynomials f and g
        over the companion field quotient."""
        if not self.is_chain:
            raise RingMismatch("lift targets the two-component quotient")
        fq = self.field_quotient()
        if f.ring != fq or g.ring != fq:
            raise RingMismatch("lift expects polynomials over the companion "
                               "field quotient")
        return QPoly(self, tuple(map(self.base.make, f.coeffs, g.coeffs)))

    # -- text ------------------------------------------------------------------

    def format_poly(self, f: "QPoly") -> str:
        return ",".join(self.base.format_coeff(c) for c in f.coeffs)

    def parse_poly(self, text: str) -> "QPoly":
        """Read comma-separated field coefficients, degree 0 first."""
        parts = [s.strip() for s in text.split(",")]
        return self.poly(self.field.parse_coeff(s) for s in parts)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, QuotientRing)
            and self.field == other.field and self.n == other.n
            and self.s == other.s and self.alpha0 == other.alpha0
            and self.beta == other.beta)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.s, self.alpha0, self.beta))

    def __repr__(self) -> str:
        lam = self.base.format_element(self.lam)
        return f"{self.base!r}[x]/(x^{self.N} - ({lam}))"


class QPoly:
    """Immutable residue polynomial in a :class:`QuotientRing`."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: QuotientRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other: "QPoly") -> None:
        if not isinstance(other, QPoly):
            raise TypeError(f"expected QPoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatch(
                f"polynomials live in different quotients: "
                f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "QPoly") -> "QPoly":
        self._check(other)
        base = self.ring.base
        return QPoly(self.ring, tuple(
            base.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c != 0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        return self.ring.format_poly(self)


def qmul(f: QPoly, g: QPoly) -> QPoly:
    """Product in the quotient: convolution with x^N folded back to lam."""
    if g.ring != f.ring:
        raise RingMismatch(
            f"polynomials live in different quotients: "
            f"{f.ring!r} vs {g.ring!r}")
    ring = f.ring
    N, lam, add, mul = ring.N, ring.lam, ring.base.add, ring.base.mul
    terms = [(j, b) for j, b in enumerate(g.coeffs) if b]
    buf = [0] * (2 * N - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in terms:
                buf[i + j] = add(buf[i + j], mul(a, b))
    for t in range(2 * N - 2, N - 1, -1):
        if buf[t]:
            buf[t - N] = add(buf[t - N], mul(lam, buf[t]))
    return QPoly(ring, tuple(buf[:N]))


def binomial_power(ring: QuotientRing, i: int) -> QPoly:
    """(x^n - alpha0)^i in the quotient, by the binomial theorem.

    Write i = w*p^s + r with 0 <= r < p^s.  The coefficient of x^(n*j) in
    a^r, a = x^n - alpha0, is C(r, j)*(-alpha0)^(r-j).  Over the field a is
    nilpotent of index p^s, so i ranges over [0, p^s].  Over the
    two-component ring i ranges over [0, 2*p^s]: a^(p^s) = x^N - alpha =
    u*beta, so a^i = u*beta*a^r when w = 1, and a^i = 0 when w = 2 or
    beta = 0 (u^2 = 0).  The ring remembers the coefficients per i.
    """
    ps = ring.p ** ring.s
    top, i = ps * (2 if ring.is_chain else 1), as_int(i)
    if not 0 <= i <= top:
        raise ExponentOutOfRange(
            f"exponent {i} outside [0, {top}] for {ring!r}")

    def make():
        w, r = divmod(i, ps)
        if w and not (w == 1 and ring.beta):
            return ring.zero().coeffs
        field, p, n = ring.field, ring.p, ring.n
        mul, neg_a0 = field.mul, field.neg(ring.alpha0)
        cs = [0] * ring.N
        power = 1                   # (-alpha0)^(r - j)
        for j in range(r, -1, -1):
            cs[n * j] = mul(math.comb(r, j) % p, power)
            power = mul(power, neg_a0)
        if w:
            cs = [ring.base.make(0, mul(ring.beta, c)) for c in cs]
        return tuple(cs)
    return QPoly(ring, ring.remember(("quotient.binomial_power", i), make))


def coefficient_weight(f: QPoly) -> int:
    """Smallest gap between two exponents in the support; 0 for monomials.

    This is the plain (non-cyclic) gap: exponents are compared as integers
    in [0, N), not around the circle.
    """
    supp = f.support()
    if not supp:
        raise ZeroPolynomial("the zero polynomial has no coefficient weight")
    if len(supp) == 1:
        return 0
    return min(b - a for a, b in zip(supp, supp[1:]))
