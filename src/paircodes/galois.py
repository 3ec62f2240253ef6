"""Arithmetic for GF(p^m) and for the two-component ring GF(p^m) + u GF(p^m).

Field elements are encoded as plain integers in ``[0, p^m)``: the integer
whose base-p digits, least significant first, are the coefficients of the
residue polynomial (constant term first).  An element of the two-component
ring ``a + u*b`` (with u^2 = 0) packs its halves as ``a + q*b`` where
``q = p^m``.  Ints are the only element API: they keep the hot loops cheap
and index straight into the field's exp/log/Zech tables, which every field
builds in O(q) time and memory from a primitive element.  Values that come
from outside (text, moduli, constants, digits) are range-checked on the way
in and never reduced mod p.

Text forms: a field element prints as its digit list, constant first
("2,1" is 2 + y in GF(9)); a two-component element prints as "a|b".
Inside polynomial strings (see :mod:`paircodes.quotient`) the commas are
taken, so there a field coefficient joins its digits with "." and a
two-component coefficient prints as "a+ub".
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    InvalidValue,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
)


def parse_int(text: str) -> int:
    """The integer written in `text`; any other text is refused."""
    try:
        return int(text)
    except ValueError:
        raise InvalidValue(f"not an integer: {text!r}") from None


def as_int(value) -> int:
    """`value` as an int.  Python and numpy integers are read; bools, floats,
    text and anything else are refused, never truncated."""
    if type(value) is int:          # the common case, checked first
        return value
    if isinstance(value, bool):
        raise InvalidValue(f"not an integer: {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidValue(f"not an integer: {value!r}") from None


def prime_factors(x: int) -> list[int]:
    """Distinct prime factors of ``x``, ascending."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out.append(x)
    return out


# --- polynomials over GF(p): lists of ints, constant term first ------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """Remainder of ``a`` modulo a monic ``f``."""
    a = [c % p for c in a]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    del a[df:]
    return _ptrim(a)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _ptrim([c % p for c in a]), _ptrim([c % p for c in b])
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), f, p)
    return result


def _is_irreducible_poly(f: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic polynomial over GF(p)."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    powers = {0: x}
    h = x
    for k in range(1, m + 1):
        h = _ppowmod(h, p, f, p)
        powers[k] = h
    if powers[m] != x:
        return False
    for r in prime_factors(m):
        # Never a constant: its p^(m - m/r)-th power x^(p^m) is x mod f.
        diff = list(powers[m // r])
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(diff, f, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m (constant first)."""
    # For m >= 2 a zero constant term means x divides f.
    first = range(1, p) if m >= 2 else range(p)
    for tail in itertools.product(first, *[range(p)] * (m - 1)):
        f = list(tail) + [1]
        if _is_irreducible_poly(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# The most elements a Field builds: its O(q) tables take about 16 s at 2^20.
_MAX_Q = 1 << 20


class Field:
    """GF(p^m), elements encoded as ints in [0, p^m).

    If no modulus is given, the lexicographically least monic irreducible
    polynomial of degree m over GF(p) (compared constant term first) is
    used, so the same (p, m) always names the same field.
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        if as_int(p) > 1 and p ** min(as_int(m), _MAX_Q.bit_length()) > _MAX_Q:
            raise InvalidValue(f"GF({p}^{m}) has more than {_MAX_Q} elements")
        if prime_factors(as_int(p)) != [p]:
            raise NotPrime(f"{p} is not prime")
        if as_int(m) < 1:
            raise DegreeMismatch("extension degree must be at least 1")
        if modulus is None:
            modulus = _smallest_irreducible(p, m)
        else:
            modulus = tuple(as_int(c) for c in modulus)
            if any(not 0 <= c < p for c in modulus):
                raise InvalidValue(
                    f"modulus digits must lie in [0, {p}), got {modulus}")
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {m}, got {modulus}")
            if not _is_irreducible_poly(list(modulus), p):
                raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus: tuple[int, ...] = tuple(modulus)
        self._pow_p = [p ** t for t in range(m)]
        self._build_logs()

    def _build_logs(self) -> None:
        """Exp, log and Zech tables over a primitive element g, in O(q).

        ``_exp[k] = g^k`` for k in [0, 2(q-1)), so a sum of two logs needs no
        reduction; ``_log[a]`` inverts it on nonzero a; ``_zech[k]`` is
        log(1 + g^k), or None where 1 + g^k = 0.  Indexing ``_zech`` with a
        difference of logs in (-(q-1), q-1) reduces it mod q-1 for free.

        The digit rows of g^0 .. g^(L-1) times the matrix of multiplication
        by g^L are those of g^L .. g^(2L-1): log2(q) doublings build them all.
        """
        p, m, q1, mod = self.p, self.m, self.q - 1, list(self.modulus)
        factors = prime_factors(q1)
        for a in range(1, self.q):
            g = _ptrim(list(self.coords(a)))
            if all(_ppowmod(g, q1 // r, mod, p) != [1] for r in factors):
                break
        # Row t holds the digits of y^t * g: digits(h * g) = digits(h) @ step.
        rows = [_pmod([0] * t + g, mod, p) for t in range(m)]
        step = np.array([r + [0] * (m - len(r)) for r in rows], dtype=np.int64)
        powers = np.eye(1, m, dtype=np.int64)
        while len(powers) < q1:
            powers = np.concatenate([powers, powers @ step % p])
            step = step @ step % p
        exp = (powers[:q1] @ np.array(self._pow_p, dtype=np.int64)).tolist()
        log: list = [None] * self.q
        for k, e in enumerate(exp):
            log[e] = k
        # 1 + g^k only changes the constant digit of g^k; where the sum is 0,
        # log[0] = None is the marker.
        self._zech = [log[e + 1 - p if (e + 1) % p == 0 else e + 1]
                      for e in exp]
        self._exp, self._log = exp * 2, log
        self._log_neg1 = q1 // 2 if p > 2 else 0

    # -- encoding ----------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        """Base-p digits of the encoded element, constant term first."""
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coords(self, cs: Iterable[int]) -> int:
        """The element with base-p digits `cs`, constant term first."""
        cs = [as_int(c) for c in cs]
        for c in cs:
            if not 0 <= c < self.p:
                raise InvalidValue(
                    f"digit {c} outside [0, {self.p}) for {self!r}")
        if len(cs) > self.m:
            raise DegreeMismatch(
                f"too many coefficients for GF({self.q}): {cs}")
        return sum(c * self._pow_p[t] for t, c in enumerate(cs))

    # -- arithmetic on encoded ints -----------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b = a * (1 + b/a), read off the Zech table."""
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg1] if a else 0

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def pow(self, a: int, e: int) -> int:
        if a:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if e < 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return 0 if e else 1

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ZeroElement(f"0 has no multiplicative order in GF({self.q})")
        return (self.q - 1) // math.gcd(self._log[a], self.q - 1)

    # -- GF(p)-linear structure ---------------------------------------------

    @property
    def gfp_dim(self) -> int:
        return self.m

    # -- range checks and text ------------------------------------------------

    def check_element(self, a: int) -> int:
        """`a` itself, if it encodes an element of this field."""
        a = as_int(a)
        if not 0 <= a < self.q:
            raise InvalidValue(f"{a!r} does not encode an element of {self!r}")
        return a

    def format_element(self, a: int) -> str:
        return ",".join(str(c) for c in self.coords(a))

    def parse_element(self, text: str) -> int:
        return self.from_coords(parse_int(s) for s in text.split(","))

    def format_coeff(self, a: int) -> str:
        """Comma-free rendering for use inside polynomial strings."""
        if self.m == 1:
            return str(a)
        return ".".join(str(c) for c in self.coords(a))

    def parse_coeff(self, text: str) -> int:
        return self.from_coords(parse_int(s) for s in text.split("."))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


class ChainRing:
    """GF(p^m) + u GF(p^m) with u^2 = 0; elements encoded as a + q*b."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q
        self.size = field.q ** 2

    def make(self, a: int, b: int) -> int:
        return a + self.q * b

    def a_of(self, e: int) -> int:
        return e % self.q

    def b_of(self, e: int) -> int:
        return e // self.q

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        f = self.field
        return self.make(f.add(self.a_of(x), self.a_of(y)),
                         f.add(self.b_of(x), self.b_of(y)))

    def mul(self, x: int, y: int) -> int:
        f = self.field
        a, b = self.a_of(x), self.b_of(x)
        c, d = self.a_of(y), self.b_of(y)
        return self.make(f.mul(a, c), f.add(f.mul(a, d), f.mul(b, c)))

    # -- GF(p)-linear structure ----------------------------------------------

    @property
    def gfp_dim(self) -> int:
        return 2 * self.field.m

    # -- text ------------------------------------------------------------------

    def format_element(self, e: int) -> str:
        f = self.field
        return f"{f.format_element(self.a_of(e))}|{f.format_element(self.b_of(e))}"

    def format_coeff(self, e: int) -> str:
        f = self.field
        a, b = self.a_of(e), self.b_of(e)
        if b == 0:
            return f.format_coeff(a)
        if a == 0:
            return f"u{f.format_coeff(b)}"
        return f"{f.format_coeff(a)}+u{f.format_coeff(b)}"

    def __repr__(self) -> str:
        return f"GF({self.q})+uGF({self.q})"


# --- binomial irreducibility ------------------------------------------------

def binomial_irreducible(field: Field, n: int, lam) -> bool:
    """Is x^n - lam irreducible over the field?

    For n >= 2 this holds exactly when every prime factor of n divides the
    multiplicative order e of lam but not (q-1)/e, with the extra condition
    q = 1 (mod 4) whenever 4 divides n.  Degree-1 binomials (n = 1) are
    always irreducible.
    """
    field.check_element(lam)
    if lam == 0:
        raise ZeroElement("x^n - 0 is never irreducible")
    if as_int(n) < 1:
        raise InvalidValue(f"n must be positive, got {n}")
    if n == 1:
        return True
    e = field.order(lam)
    rest = (field.q - 1) // e
    for r in prime_factors(n):
        if e % r != 0 or rest % r == 0:
            return False
    if n % 4 == 0 and field.q % 4 != 1:
        return False
    return True


def irreducible_binomial_constants(field: Field, n: int) -> list[int]:
    """All lam (encoded) for which x^n - lam is irreducible over the field."""
    return [lam for lam in range(1, field.q)
            if binomial_irreducible(field, n, lam)]
