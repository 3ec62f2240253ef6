import random

import numpy as np
import pytest

from paircodes.errors import (
    ConstructionRefused,
    ExponentOutOfRange,
    InvalidValue,
    RingMismatch,
    ZeroElement,
    ZeroPolynomial,
)
from paircodes.galois import Field
from paircodes.pairmetric import hamming_weight, pair_weight
from paircodes.quotient import (
    QuotientRing,
    binomial_power,
    coefficient_weight,
    qmul,
)


def _rings():
    f2, f3, f9 = Field(2, 1), Field(3, 1), Field(3, 2)
    return [
        QuotientRing(f3, 2, 1, 2),                 # field, N = 6
        QuotientRing(f2, 1, 2, 1),                 # field, N = 4
        QuotientRing(f9, 1, 1, 5),                 # field GF(9), N = 3
        QuotientRing(f3, 1, 2, 1, beta=1),         # two-component, beta != 0
        QuotientRing(f3, 2, 1, 2, beta=0),         # two-component, beta = 0
    ]


def _rand_poly(ring, rng):
    size = ring.base.size if ring.is_chain else ring.field.q
    return ring.poly([rng.randrange(size) for _ in range(ring.N)])


def test_construction_guards():
    f3 = Field(3, 1)
    with pytest.raises(ConstructionRefused):
        QuotientRing(f3, 3, 1, 1)                  # gcd(n, p) != 1
    with pytest.raises(ConstructionRefused):
        QuotientRing(f3, 2, 1, 1)                  # x^2 - 1 reducible
    with pytest.raises(ZeroElement):
        QuotientRing(f3, 2, 1, 0)
    with pytest.raises(InvalidValue):
        QuotientRing(f3, 2, 1, 5)                  # alpha0 outside GF(3)
    with pytest.raises(InvalidValue):
        QuotientRing(f3, 1, 1, 1, beta=3)
    with pytest.raises(ConstructionRefused):
        QuotientRing(f3, 2, 0, 2)                  # s must be >= 1
    f5 = Field(5, 1)
    with pytest.raises(ConstructionRefused):
        QuotientRing(f5, 2, 1, 4)                  # x^2 - 4 = (x-2)(x+2)


def test_field_elements_must_be_integers():
    f3 = Field(3, 1)
    for bad in (True, False, 1.0, "1", None, np.float64(1)):
        with pytest.raises(InvalidValue):
            f3.check_element(bad)
        with pytest.raises(InvalidValue):
            QuotientRing(f3, 1, 1, bad)            # as alpha0
        if bad is not None:                        # beta=None: no u-part
            with pytest.raises(InvalidValue):
                QuotientRing(f3, 1, 1, 1, beta=bad)
    assert f3.check_element(np.int64(2)) == 2
    assert type(QuotientRing(f3, 1, 1, 1, beta=np.int64(0)).beta) is int


def test_ring_equality():
    f3 = Field(3, 1)
    ring = QuotientRing(f3, 2, 1, 2, beta=0)
    twin = QuotientRing(Field(3, 1), 2, 1, 2, beta=0)
    assert twin is not ring and twin == ring and hash(twin) == hash(ring)
    assert ring == ring and not ring != ring
    for other in (QuotientRing(f3, 2, 1, 2), QuotientRing(f3, 2, 1, 2, 1),
                  QuotientRing(f3, 2, 2, 2, beta=0),
                  QuotientRing(f3, 1, 1, 2, beta=0),
                  QuotientRing(Field(5, 1), 2, 1, 2, beta=0), "ring"):
        assert ring != other and other != ring


def test_quotient_parameters():
    f3 = Field(3, 1)
    ring = QuotientRing(f3, 2, 2, 2)
    assert ring.N == 18
    assert ring.alpha == f3.pow(2, 9)
    chain = QuotientRing(f3, 1, 1, 2, beta=1)
    assert chain.is_chain
    assert chain.lam == chain.base.make(f3.pow(2, 3), 1)
    assert chain.field_quotient().lam == f3.pow(2, 3)


def test_x_to_the_N_wraps_to_lambda():
    for ring in _rings():
        x, w = ring.monomial(1), ring.one()
        for _ in range(ring.N):
            w = qmul(x, w)
        expect = list(ring.zero().coeffs)
        expect[0] = ring.lam
        assert w.coeffs == tuple(expect)


def test_monomial_refuses_exponents_outside_the_quotient():
    # over GF(3)[x]/(x^3 - 2), x^3 = 2 and x^-1 = 2x^2: neither is x^(j mod 3)
    ring = QuotientRing(Field(3, 1), 1, 1, 2)
    assert ring.lam == 2
    assert ring.monomial(2).coeffs == (0, 0, 1)
    for j in (3, -1, 7):
        with pytest.raises(ExponentOutOfRange):
            ring.monomial(j)


def test_qmul_ring_axioms_random():
    rng = random.Random(1)
    for ring in _rings():
        for _ in range(25):
            f, g, h = (_rand_poly(ring, rng) for _ in range(3))
            assert qmul(f, g) == qmul(g, f)
            assert qmul(qmul(f, g), h) == qmul(f, qmul(g, h))
            assert qmul(f, g + h) == qmul(f, g) + qmul(f, h)
            assert qmul(f, ring.one()) == f


def test_ring_mismatch_between_quotients():
    f3 = Field(3, 1)
    r1 = QuotientRing(f3, 2, 1, 2)
    r2 = QuotientRing(f3, 1, 1, 1)
    with pytest.raises(RingMismatch):
        r1.one() + r2.poly([1, 0, 0])
    with pytest.raises(RingMismatch):
        qmul(r1.one(), r2.poly([1, 0, 0]))


def test_binomial_power_matches_repeated_multiplication():
    # Every exponent, so the u*beta*a^r half of the range is compared too;
    # GF(4) with n = 3 and GF(9) with n = 2, beta != 0 cover m = 2.
    f4, f9 = Field(2, 2), Field(3, 2)
    for ring in _rings() + [
            QuotientRing(f4, 3, 2, f4.parse_element("0,1")),
            QuotientRing(f9, 2, 2, f9.parse_element("2,1"),
                         beta=f9.parse_element("1,2"))]:
        top = ring.p ** ring.s * (2 if ring.is_chain else 1)
        cs = [0] * ring.N
        cs[0], cs[ring.n] = ring.field.neg(ring.alpha0), 1
        a, acc = ring.poly(cs), ring.one()         # a = x^n - alpha0
        for i in range(top + 1):
            assert binomial_power(ring, i) == acc
            acc = qmul(acc, a)


def test_binomial_power_nilpotency():
    f3, f2 = Field(3, 1), Field(2, 1)
    # field base: (x^n - a0)^(p^s) = 0
    ring = QuotientRing(f3, 2, 1, 2)
    assert binomial_power(ring, 3).is_zero()
    # beta != 0: (x - a0)^(p^s) = u*beta exactly
    for beta in (1, 2):
        chain = QuotientRing(f3, 1, 2, 1, beta=beta)
        w = binomial_power(chain, 9)
        expect = list(chain.zero().coeffs)
        expect[0] = chain.base.make(0, beta)
        assert w.coeffs == tuple(expect)
        assert binomial_power(chain, 18).is_zero()
    # beta = 0: nilpotent at p^s already
    flat = QuotientRing(f2, 1, 3, 1, beta=0)
    assert binomial_power(flat, 8).is_zero()
    assert not binomial_power(flat, 7).is_zero()


def test_binomial_power_range_checks():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    with pytest.raises(ExponentOutOfRange):
        binomial_power(ring, -1)
    with pytest.raises(ExponentOutOfRange):
        binomial_power(ring, 4)
    chain = QuotientRing(Field(3, 1), 2, 1, 2, beta=1)
    assert binomial_power(chain, 6).is_zero()
    with pytest.raises(ExponentOutOfRange):
        binomial_power(chain, 7)


def test_frobenius_splits_binomial_powers():
    # (x^n - a0)^p = x^(n*p) - a0^p in characteristic p
    for ring in [QuotientRing(Field(3, 1), 2, 2, 2),
                 QuotientRing(Field(2, 2), 3, 2, 2)]:
        p = ring.p
        w = binomial_power(ring, p)
        expect = list(ring.zero().coeffs)
        expect[0] = ring.field.neg(ring.field.pow(ring.alpha0, p))
        expect[ring.n * p] = 1
        assert w.coeffs == tuple(expect)


def test_coefficient_weight():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    assert coefficient_weight(ring.monomial(4)) == 0
    assert coefficient_weight(binomial_power(ring, 1)) == 2
    assert coefficient_weight(binomial_power(ring, 2)) == 2
    assert coefficient_weight(ring.poly([1, 0, 0, 1, 0, 1])) == 2
    with pytest.raises(ZeroPolynomial):
        coefficient_weight(ring.zero())


def test_weight_product_rule():
    # For deg(g) <= cw(f) - 2 and deg(f) + deg(g) <= N - 2:
    #   pair_weight(f*g) = hamming_weight(f) * pair_weight(g)
    rng = random.Random(7)
    f3 = Field(3, 1)
    ring = QuotientRing(f3, 1, 3, 1)               # N = 27
    checked = 0
    while checked < 200:
        gap = rng.randrange(2, 6)
        exps, e = [], rng.randrange(0, 3)
        while e < ring.N:
            exps.append(e)
            e += gap + rng.randrange(0, 3)
        if len(exps) < 2:
            continue
        cs = [0] * ring.N
        for e in exps:
            cs[e] = rng.randrange(1, 3)
        f = ring.poly(cs)
        cw = coefficient_weight(f)
        if cw < 2:
            continue
        dg = rng.randrange(0, cw - 1)              # deg(g) <= cw - 2
        if max(f.support(), default=-1) + dg > ring.N - 2:
            continue
        gcs = [rng.randrange(3) for _ in range(dg)] + [rng.randrange(1, 3)]
        g = ring.poly(gcs + [0] * (ring.N - dg - 1))
        assert pair_weight(qmul(f, g)) == hamming_weight(f) * pair_weight(g), \
            (f, g)
        checked += 1


def test_poly_text_roundtrip():
    # Polynomial text is read over the field: b of a Type2/Type3 record.
    rng = random.Random(5)
    for ring in _rings():
        fq = ring.field_quotient()
        for _ in range(20):
            w = _rand_poly(fq, rng)
            assert fq.parse_poly(fq.format_poly(w)) == w
    chain = QuotientRing(Field(3, 1), 1, 2, 1, beta=0)
    w = chain.poly([chain.base.make(2, 1), 0, chain.base.make(0, 2), 1])
    assert chain.format_poly(w) == "2+u1,0,u2,1,0,0,0,0,0"
    with pytest.raises(InvalidValue):
        chain.poly([chain.base.size])              # coefficient out of range
    with pytest.raises(InvalidValue):
        chain.field_quotient().parse_poly("2,3")   # digit 3 is not in GF(3)


def test_coefficients_must_be_integers():
    ring = QuotientRing(Field(3, 1), 1, 1, 2)
    f9 = Field(3, 2)
    for bad in ([2.7, True], [1.9, True], [1.0], [True], ["1"], [None],
                [np.float64(1)], [np.bool_(True)]):
        with pytest.raises(InvalidValue):
            ring.poly(bad)
        with pytest.raises(InvalidValue):
            f9.from_coords(bad)
        with pytest.raises(InvalidValue):
            Field(3, 1, bad + [1])                 # as modulus digits
    # word_at and unit_inverse pass numpy int64 arrays
    assert ring.poly(np.array([2, 1], dtype=np.int64)) == ring.poly([2, 1])
    assert f9.from_coords(np.array([1, 2], dtype=np.int64)) == 7


def test_both_quotients_refuse_the_same_malformed_coefficients():
    # Both read polynomial text over the field, so a u-part is refused too.
    f3, f9 = Field(3, 1), Field(3, 2)
    field_q = QuotientRing(f3, 1, 1, 2)
    chain = QuotientRing(f3, 1, 1, 2, beta=0)
    for bad in ("", "+", " + ", "2+", "2++", "x", "3", "-1",
                "u", "+u1", "2u1", "2+u", "2+u1", "1+2+u1"):
        with pytest.raises(InvalidValue):
            f3.parse_coeff(bad)
        for ring in (field_q, chain):
            with pytest.raises(InvalidValue):
                ring.parse_poly(f"1,{bad},2")
    for field in (f3, f9):
        for c in range(field.q):
            text = field.format_coeff(c)
            assert field.parse_coeff(text) == c
            assert field.parse_coeff(f" {text} ") == c


def test_lift_forms_a_plus_u_b():
    chain = QuotientRing(Field(3, 1), 2, 1, 2, beta=0)
    fq = chain.field_quotient()
    base = chain.base
    f = fq.poly([1, 2, 0, 1, 0, 0])
    g = fq.poly([0, 1, 2, 2, 0, 1])
    lifted = chain.lift(f, fq.zero())
    assert [base.a_of(c) for c in lifted.coeffs] == list(f.coeffs)
    assert all(base.b_of(c) == 0 for c in lifted.coeffs)
    ued = chain.lift(fq.zero(), f)
    assert all(base.a_of(c) == 0 for c in ued.coeffs)
    assert [base.b_of(c) for c in ued.coeffs] == list(f.coeffs)
    assert qmul(lifted, chain.lift(fq.zero(), fq.one())) == ued
    assert chain.lift(f, g) == lifted + chain.lift(fq.zero(), g)
    with pytest.raises(RingMismatch):
        fq.lift(f, g)
    with pytest.raises(RingMismatch):
        chain.lift(lifted, g)
    with pytest.raises(RingMismatch):
        chain.lift(f, ued)
