import random

import pytest

from paircodes.errors import (
    DegreeMismatch,
    DivisionByZero,
    InvalidValue,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
)
from paircodes import galois
from paircodes.galois import (
    ChainRing,
    Field,
    _pmod,
    _pmul,
    binomial_irreducible,
    irreducible_binomial_constants,
)


# --- an independent irreducibility oracle: trial division by every monic ----

def _poly_divides(field, divisor, target):
    """Does `divisor` (monic, coeff tuples over the field) divide `target`?"""
    rem = list(target)
    dd = len(divisor) - 1
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            return not rem
        lead, deg = rem[-1], len(rem) - 1
        for i, c in enumerate(divisor):
            rem[deg - dd + i] = field.add(rem[deg - dd + i],
                                          field.neg(field.mul(lead, c)))
        # Each pass must cancel the leading term, or the loop never ends.
        assert rem.pop() == 0, (
            f"the x^{deg} term did not cancel over GF({field.q}): "
            f"add({lead}, neg(mul({lead}, 1))) != 0")


def _binomial_reducible_by_search(field, n, lam):
    """x^n - lam has a monic divisor of degree 1..n//2 (exhaustive search)."""
    target = [field.neg(lam)] + [0] * (n - 1) + [1]
    for d in range(1, n // 2 + 1):
        for tail in range(field.q ** d):
            cs, t = [], tail
            for _ in range(d):
                t, r = divmod(t, field.q)
                cs.append(r)
            divisor = cs + [1]
            if _poly_divides(field, divisor, target):
                return True
    return False


def test_binomial_irreducible_matches_exhaustive_search():
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        field = Field(p, m)
        for n in range(2, 7):
            for lam in range(1, field.q):
                fast = binomial_irreducible(field, n, lam)
                slow = not _binomial_reducible_by_search(field, n, lam)
                assert fast == slow, (p, m, n, lam)


def test_binomial_irreducible_edge_cases():
    f3 = Field(3, 1)
    assert binomial_irreducible(f3, 1, 1)          # degree 1: always
    assert binomial_irreducible(f3, 1, 2)
    with pytest.raises(ZeroElement):
        binomial_irreducible(f3, 2, 0)
    assert binomial_irreducible(f3, 2, 2)          # x^2 + 1 over GF(3)
    assert not binomial_irreducible(f3, 2, 1)      # x^2 - 1 = (x-1)(x+1)
    # 4 | n requires q = 1 (mod 4)
    assert irreducible_binomial_constants(f3, 4) == []
    f5 = Field(5, 1)
    assert irreducible_binomial_constants(f5, 4) == [2, 3]
    assert irreducible_binomial_constants(f3, 1) == [1, 2]


def test_default_moduli_are_least_lexicographic():
    assert Field(2, 1).modulus == (0, 1)           # x
    assert Field(3, 1).modulus == (0, 1)
    assert Field(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert Field(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert Field(2, 3).modulus == (1, 0, 1, 1)     # x^3 + x^2 + 1


def test_default_modulus_search_skips_multiples_of_x(monkeypatch):
    calls = []
    rabin = galois._is_irreducible_poly

    def counting(f, p):
        calls.append(tuple(f))
        return rabin(f, p)

    monkeypatch.setattr(galois, "_is_irreducible_poly", counting)
    field = Field(2, 14)
    assert field.modulus == (1,) + (0,) * 8 + (1,) + (0,) * 4 + (1,)
    assert all(f[0] for f in calls)
    assert len(calls) <= 40, len(calls)


def test_modulus_validation():
    with pytest.raises(NotPrime):
        Field(4, 1)
    with pytest.raises(NotPrime):
        Field(1, 1)
    with pytest.raises(ReducibleModulus):
        Field(3, 2, (1, 2, 1))                     # (x+1)^2
    with pytest.raises(DegreeMismatch):
        Field(3, 2, (1, 0, 0, 1))                  # degree 3, m = 2
    with pytest.raises(DegreeMismatch):
        Field(3, 2, (1, 0, 2))                     # not monic
    # a valid explicit modulus is accepted and distinguishes the field
    alt = Field(3, 2, (2, 1, 1))                   # x^2 + x + 2
    assert alt.modulus == (2, 1, 1)
    assert alt != Field(3, 2)
    with pytest.raises(InvalidValue):
        Field(2, 1, (3, 1))                        # digit 3 is not in GF(2)
    with pytest.raises(InvalidValue):
        Field(3, 1, (-1, 1))


def test_a_field_over_the_ceiling_is_refused_up_front(monkeypatch):
    # Refused before the primality test, the modulus search and the O(q)
    # tables, and without computing p^m for a huge m.
    def never(*args):
        raise AssertionError("work done past the size check")

    for name in ("prime_factors", "_smallest_irreducible"):
        monkeypatch.setattr(galois, name, never)
    monkeypatch.setattr(Field, "_build_logs", never)
    for p, m in ((2, 21), (2, 24), (2, 10 ** 18), (3, 13),
                 (2 ** 61 - 1, 1), (4, 30)):
        with pytest.raises(InvalidValue, match="more than 1048576 elements"):
            Field(p, m)
    monkeypatch.undo()
    # The ceiling itself still builds; only the tables are skipped here.
    built = []
    monkeypatch.setattr(Field, "_build_logs", lambda f: built.append(f.q))
    Field(2, 20)
    Field(1021, 2)
    assert built == [1 << 20, 1021 ** 2]
    assert galois._MAX_Q == 1 << 20
    with pytest.raises(NotPrime):
        Field(4, 1)
    with pytest.raises(DegreeMismatch):
        Field(2, 0)


def test_field_axioms_random():
    rng = random.Random(1)
    for p, m in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (7, 2)]:
        field = Field(p, m)
        q = field.q
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == \
                field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == 0
            assert field.mul(a, 1) == a
            assert field.pow(a, q) == a            # Frobenius fixed point
            if a:
                assert field.mul(a, field.pow(a, -1)) == 1


class _DigitReference:
    """Field arithmetic straight from digits and `_pmul`/`_pmod`."""

    def __init__(self, field):
        self.field, self.p, self.mod = field, field.p, list(field.modulus)

    def enc(self, digits):
        return sum(d * self.p ** t for t, d in enumerate(digits))

    def add(self, a, b):
        return self.enc((x + y) % self.p for x, y in
                        zip(self.field.coords(a), self.field.coords(b)))

    def neg(self, a):
        return self.enc((-x) % self.p for x in self.field.coords(a))

    def mul(self, a, b):
        prod = _pmul(self.field.coords(a), self.field.coords(b), self.p)
        return self.enc(_pmod(prod, self.mod, self.p))

    def powers(self, a):
        """[a^0, a^1, ...] up to, not including, the first return to 1."""
        out = [1]
        while True:
            nxt = self.mul(out[-1], a)
            if nxt == 1:
                return out
            out.append(nxt)


def _check_pair(field, ref, a, b):
    assert field.add(a, b) == ref.add(a, b), (field, a, b)
    assert field.mul(a, b) == ref.mul(a, b), (field, a, b)


def _check_element(field, ref, a, exponents):
    assert field.neg(a) == ref.neg(a), (field, a)
    if a == 0:
        assert field.pow(0, 0) == 1
        assert all(field.pow(0, e) == 0 for e in exponents if e > 0)
        with pytest.raises(DivisionByZero):
            field.pow(0, -1)
        with pytest.raises(ZeroElement):
            field.order(0)
        return
    cycle = ref.powers(a)
    assert field.order(a) == len(cycle), (field, a)
    assert ref.mul(a, field.pow(a, -1)) == 1, (field, a)
    for e in exponents:
        assert field.pow(a, e) == cycle[e % len(cycle)], (field, a, e)


_SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 47, 53, 59, 61)
                 for m in range(1, 7) if p ** m <= 64]


def test_field_arithmetic_matches_polynomial_reference():
    # Every pair in every field with q <= 64, plus explicit moduli; GF(9)
    # (x^2 + 1) and x^4 + x^3 + x^2 + x + 1 are irreducible but not
    # primitive, so x does not generate them.
    fields = [Field(p, m) for p, m in _SMALL_FIELDS]
    fields += [Field(3, 2, (2, 1, 1)), Field(2, 4, (1, 1, 1, 1, 1))]
    for field in fields:
        ref = _DigitReference(field)
        q = field.q
        exponents = [0, 1, 2, q - 2, q - 1, q, 2 * q + 3, -1, -2, -q - 1]
        for a in range(q):
            _check_element(field, ref, a, exponents)
            for b in range(q):
                _check_pair(field, ref, a, b)
    assert len(_DigitReference(Field(3, 2)).powers(3)) == 4     # x^2 = -1
    assert len(_DigitReference(fields[-1]).powers(2)) == 5      # x^5 = 1


def test_log_tables_match_a_polynomial_walk():
    # Every field with q <= 2^12 and p < 64, which is every extension field
    # of that size: the tables against g^0, g^1, ... by `_pmul`/`_pmod`.
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61):
        for m in range(1, 13):
            if p ** m > 1 << 12:
                break
            field = Field(p, m)
            ref = _DigitReference(field)
            walk = ref.powers(field._exp[1])
            assert len(walk) == field.q - 1, (p, m)
            assert field._exp == walk * 2, (p, m)
            assert field._log[0] is None
            assert [field._log[e] for e in walk] == list(range(field.q - 1))
            assert field._zech == [field._log[ref.add(1, e)] for e in walk]


def test_large_field_arithmetic_matches_polynomial_reference():
    # Random pairs on fields of 256 to 729 elements.  None of their default
    # moduli is primitive: x has order 364, 73 and 51 respectively.
    rng = random.Random(2)
    for p, m in [(3, 6), (2, 9), (2, 8)]:
        field = Field(p, m)
        ref = _DigitReference(field)
        q = field.q
        for _ in range(400):
            a, b = rng.randrange(q), rng.randrange(q)
            _check_pair(field, ref, a, b)
            assert field.neg(a) == ref.neg(a)
            if a:
                assert ref.mul(a, field.pow(a, -1)) == 1
        for a in [0, 1, p, q - 1] + [rng.randrange(1, q) for _ in range(6)]:
            _check_element(field, ref, a, [0, 1, 5, q - 2, q, -1, -7])
        assert len(ref.powers(p)) < q - 1


def test_element_orders():
    f3 = Field(3, 1)
    assert f3.order(1) == 1
    assert f3.order(2) == 2
    f5 = Field(5, 1)
    assert f5.order(2) == 4
    assert f5.order(4) == 2
    f9 = Field(3, 2)
    y = f9.from_coords((0, 1))
    assert f9.order(y) == 4                        # y^2 = -1
    prim = [a for a in range(1, 9) if f9.order(a) == 8]
    assert len(prim) == 4                          # phi(8)
    with pytest.raises(ZeroElement):
        f3.order(0)
    with pytest.raises(DivisionByZero):
        f9.pow(0, -1)


def test_chain_ring_arithmetic():
    f3 = Field(3, 1)
    R = ChainRing(f3)
    assert R.mul(R.make(0, 1), R.make(0, 1)) == 0
    assert R.mul(R.make(1, 1), R.make(1, 2)) == 1  # (1 + u)(1 - u) = 1
    rng = random.Random(3)
    for _ in range(300):
        x, y, z = (rng.randrange(R.size) for _ in range(3))
        assert R.mul(x, y) == R.mul(y, x)
        assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))
        assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))


def test_chain_ring_text_forms():
    f9 = Field(3, 2)
    R = ChainRing(f9)
    e = R.make(f9.from_coords((2, 1)), f9.from_coords((0, 1)))
    assert R.format_element(e) == "2,1|0,1"
    assert R.format_coeff(e) == "2.1+u0.1"
    assert R.format_coeff(R.make(0, 1)) == "u1.0"
    assert R.format_coeff(R.make(2, 0)) == "2.0"
    R1 = ChainRing(Field(3, 1))
    assert R1.format_coeff(R1.make(2, 1)) == "2+u1"
    for bad in ("3,1", "-1", "x", "1.5", "", "0x1"):  # never reduced mod p
        with pytest.raises(InvalidValue):
            f9.parse_element(bad)
    with pytest.raises(InvalidValue):
        Field(3, 1).from_coords([7])
    with pytest.raises(InvalidValue):
        f9.from_coords([1, -1])


def test_element_text_roundtrip_random():
    rng = random.Random(4)
    for p, m in [(2, 1), (3, 2), (5, 1)]:
        field = Field(p, m)
        R = ChainRing(field)
        for _ in range(50):
            a = rng.randrange(field.q)
            assert field.parse_element(field.format_element(a)) == a
            assert field.parse_coeff(field.format_coeff(a)) == a
            # A chain-ring element is written as its two field halves.
            e = rng.randrange(R.size)
            a_text, b_text = R.format_element(e).split("|")
            assert field.parse_element(a_text) == R.a_of(e)
            assert field.parse_element(b_text) == R.b_of(e)
