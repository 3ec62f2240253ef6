import dataclasses
import random

import numpy as np
import pytest

from paircodes import codes, theory
from paircodes.codes import (
    ChainPrincipal,
    ConstacyclicCode,
    FieldPower,
    Type1,
    Type2,
    Type3,
    build_code,
    generators,
    log_size,
    random_unit,
    rref_mod_p,
    spec_from_text,
    spec_generator_text,
    spec_to_text,
    unit_inverse,
    unit_kind,
    word_coords,
)
from paircodes.errors import (
    BetaMismatch,
    ConstraintViolation,
    ConstructionRefused,
    DegreeMismatch,
    InvalidValue,
    LengthTooShort,
    NotUnitNorZero,
    ReducibleModulus,
    RingMismatch,
    VerificationMismatch,
)
from paircodes.galois import (
    Field,
    binomial_irreducible,
    irreducible_binomial_constants,
)
from paircodes.pairmetric import (
    block_decomposition,
    hamming_distance,
    pair_distance,
)
from paircodes.quotient import QuotientRing, binomial_power, qmul
from paircodes.theory import all_code_specs
from test_acceptance import grid_rings


F3 = Field(3, 1)
F2 = Field(2, 1)


def _small_rings():
    return [
        QuotientRing(F3, 2, 1, 2),                 # field, N = 6
        QuotientRing(F2, 1, 2, 1),                 # field, N = 4
        QuotientRing(Field(3, 2), 1, 1, 5),        # field GF(9), N = 3
        QuotientRing(F2, 1, 2, 1, beta=1),         # chain beta != 0, N = 4
        QuotientRing(F3, 1, 1, 2, beta=2),         # chain beta != 0, N = 3
        QuotientRing(F3, 2, 1, 2, beta=0),         # beta = 0, N = 6
        QuotientRing(F2, 1, 2, 1, beta=0),         # beta = 0, N = 4
    ]


def test_dimension_matches_classified_size_everywhere():
    rng = random.Random(11)
    for ring in _small_rings():
        for spec in all_code_specs(ring, rng=rng):
            code = build_code(ring, spec)
            assert code.dim_p == log_size(ring, spec), spec_to_text(spec)


def test_rank_mismatch_raises(monkeypatch):
    ring = QuotientRing(F3, 2, 1, 2)
    monkeypatch.setattr(codes, "_log_size", lambda ring, spec: 99)
    with pytest.raises(VerificationMismatch) as exc:
        build_code(ring, FieldPower(1))
    assert exc.value.rank == 4


def test_field_codes_are_nested():
    ring = QuotientRing(F3, 1, 2, 1)
    codes = [build_code(ring, FieldPower(i)) for i in range(10)]
    for big, small in zip(codes, codes[1:]):
        assert big.contains_batch(small.basis).all()
        assert not small.contains_batch(big.basis).all()


def test_chain_principal_codes_are_nested():
    ring = QuotientRing(F2, 1, 2, 1, beta=1)
    codes = [build_code(ring, ChainPrincipal(i)) for i in range(9)]
    for big, small in zip(codes, codes[1:]):
        assert big.contains_batch(small.basis).all()


def test_generator_membership_and_unit_exclusion():
    for ring in _small_rings():
        specs = [FieldPower(1)] if not ring.is_chain else (
            [ChainPrincipal(1)] if ring.beta != 0 else [Type1(1)])
        for spec in specs:
            code = build_code(ring, spec)
            for g in generators(ring, spec):
                assert code.contains(g)
            assert not code.contains(ring.one())


def test_contains_checks_ring():
    r1 = QuotientRing(F3, 2, 1, 2)
    r2 = QuotientRing(F3, 1, 1, 1)
    code = build_code(r1, FieldPower(1))
    with pytest.raises(RingMismatch):
        code.contains(r2.one())


def test_enumeration_is_complete_and_distinct():
    ring = QuotientRing(F3, 2, 1, 2)
    code = build_code(ring, FieldPower(1))         # 81 words
    words = [code.word_at(c) for c in range(code.size)]
    assert len(words) == 81
    assert len({w.coeffs for w in words}) == 81
    assert all(code.contains(w) for w in words)
    x = ring.monomial(1)
    shifted_ok = all(code.contains(qmul(x, w)) for w in words)
    assert shifted_ok


def test_full_space_and_zero_code():
    ring = QuotientRing(F2, 1, 2, 1)
    full = build_code(ring, FieldPower(0))
    assert full.dim_p == 4 and full.size == 16
    zero = build_code(ring, FieldPower(4))
    assert zero.dim_p == 0 and zero.size == 1
    words = [zero.word_at(c) for c in range(zero.size)]
    assert len(words) == 1 and words[0].is_zero()


def test_chain_high_powers_are_u_times_field_code():
    # over the beta != 0 ring, <(x^n-a0)^(p^s + r)> = u * <(x^n-a0)^r>
    ring = QuotientRing(F2, 1, 2, 1, beta=1)
    fq = ring.field_quotient()
    for r in range(5):
        code = build_code(ring, ChainPrincipal(4 + r))
        fcode = build_code(fq, FieldPower(r))
        for w in map(code.word_at, range(code.size)):
            assert all(ring.base.a_of(c) == 0 for c in w.coeffs)
            proj = fq.poly([ring.base.b_of(c) for c in w.coeffs])
            assert fcode.contains(proj)
        assert code.dim_p == fcode.dim_p


def _residue_and_torsion(code):
    """The residue code (the a-parts of the words) and the torsion code
    {c : u c in C} of a code over the two-component ring, as RREF bases.

    With every a-column moved in front of every u-column, the RREF rows
    with a pivot among the a-columns carry the residue code, and the other
    rows, zero on every a-column, the torsion code.
    """
    ring = code.ring
    half = ring.N * ring.m
    cols = np.arange(2 * half).reshape(ring.N, 2, ring.m)
    red = rref_mod_p(code.basis[:, np.concatenate(
        [cols[:, 0].ravel(), cols[:, 1].ravel()])], ring.p)
    split = sum(c < half for c in (red != 0).argmax(axis=1))
    return red[:split, :half], red[split:, half:]


def test_standard_exponents_are_the_residue_and_torsion_codes():
    # Read off the built code, not the closed forms: (e0, e1) must be the
    # exponents of the field codes under every code's words.
    f4, f9 = Field(2, 2), Field(3, 2)
    a9 = irreducible_binomial_constants(f9, 2)[0]
    for args in [(F2, 1, 2, 1), (F3, 2, 1, 2), (F3, 1, 2, 1), (f4, 1, 1, 2),
                 (f9, 2, 1, a9)]:
        for beta in (0, 1):
            ring = QuotientRing(*args, beta=beta)
            fq = ring.field_quotient()
            for spec in all_code_specs(ring):
                e0, e1 = codes._standard_exponents(ring, spec)
                residue, torsion = _residue_and_torsion(build_code(ring, spec))
                assert np.array_equal(
                    residue, build_code(fq, FieldPower(e0)).basis), spec
                assert np.array_equal(
                    torsion, build_code(fq, FieldPower(e1)).basis), spec


def test_spec_validation_errors():
    field_ring = QuotientRing(F3, 2, 1, 2)
    chain1 = QuotientRing(F3, 2, 1, 2, beta=1)
    chain0 = QuotientRing(F3, 2, 1, 2, beta=0)
    fq = chain0.field_quotient()
    with pytest.raises(BetaMismatch):
        build_code(chain1, FieldPower(1))
    with pytest.raises(BetaMismatch):
        build_code(field_ring, ChainPrincipal(1))
    with pytest.raises(BetaMismatch):
        build_code(chain0, ChainPrincipal(1))
    with pytest.raises(BetaMismatch):
        build_code(chain1, Type1(1))
    with pytest.raises(ConstraintViolation):
        build_code(field_ring, FieldPower(5))      # i > p^s
    with pytest.raises(ConstraintViolation):
        build_code(chain0, Type2(j=1, k=1, b=fq.one()))   # j < ceil((p^s+k)/2)
    with pytest.raises(ConstraintViolation):
        build_code(chain0, Type3(j=0, k=0, t=2, b=fq.one()))  # j < k+ceil(t/2)
    with pytest.raises(ConstraintViolation):
        build_code(chain0, Type3(j=1, k=0, t=3, b=fq.one()))  # t > p^s-k-1
    # b must be zero or a unit: the radical generator itself is neither
    with pytest.raises(NotUnitNorZero):
        build_code(chain0, Type2(j=2, k=0, b=binomial_power(fq, 1)))


def _reference_specs(ring, rng):
    """The admissible records as nested loops over the ranges of Dinh,
    J. Algebra 324 (2010), written out family by family."""
    ps = ring.p ** ring.s
    if not ring.is_chain:
        return [FieldPower(i) for i in range(ps + 1)]
    if ring.beta != 0:
        return [ChainPrincipal(i) for i in range(2 * ps + 1)]
    fq = ring.field_quotient()
    bs = [fq.zero()] + [random_unit(fq, rng) for _ in range(3)]
    out = [Type1(k) for k in range(ps + 1)]
    for k in range(ps):
        for j in range(-(-(ps + k) // 2), ps):
            out += [Type2(j, k, b) for b in bs]
    out += [Type2(ps, ps - 1, b) for b in bs]      # <u a^(p^s-1)>
    for k in range(ps - 1):
        for t in range(1, ps - k):
            for j in range(k + (-(-t // 2)), k + t + 1):
                out += [Type3(j, k, t, b) for b in bs]
    return out


def _family_rings():
    """Field, beta != 0 and beta = 0 rings, p in {2, 3, 5}, n in {1, 2},
    p^s <= 27 (s <= 3 for p = 2, 3 and s <= 2 for p = 5)."""
    for p in (2, 3, 5):
        field = Field(p, 1)
        for n in (1, 2):
            if n % p == 0:
                continue
            a0 = irreducible_binomial_constants(field, n)[0]
            for s in range(1, 4):
                if p ** s <= 27:
                    for beta in (None, 1, 0):
                        yield QuotientRing(field, n, s, a0, beta)


def test_all_code_specs_match_the_reference_loops():
    assert theory.all_code_specs is codes.all_code_specs
    kinds = set()
    for ring in _family_rings():
        kinds.add((ring.p, ring.n, ring.beta))
        got = codes.all_code_specs(ring, rng=random.Random(4))
        want = _reference_specs(ring, random.Random(4))
        assert [spec_to_text(s) for s in got] == \
            [spec_to_text(s) for s in want], ring
        assert got == want
    assert len(kinds) == 15


def test_no_key_range_is_empty():
    # all_code_specs refuses the first key level over MAX_RECORDS.  That
    # count is exact because no range is empty: every row has a child, so
    # no level has fewer rows than the one above it.
    for ps in range(2, 33):
        for table in (codes._FIELD_CODES, codes._CHAIN_CODES,
                      codes._BETA0_CODES):
            for family, ranges in table.items():
                rows = [()]
                for key, bounds in ranges:
                    spans = [bounds(ps, *row) for row in rows]
                    assert all(lo <= hi for lo, hi in spans), \
                        (ps, family, key)
                    rows = [row + (value,)
                            for row, (lo, hi) in zip(rows, spans)
                            for value in range(lo, hi + 1)]


def test_the_record_ceiling_counts_exactly(monkeypatch):
    # The heaviest ring the CLI benchmark tables: 6,742 records, four per
    # Type2 and Type3 key row.  The ceiling admits it at its own count and
    # refuses it at one less.
    heavy = QuotientRing(Field(5, 1), 1, 2, 1, beta=0)
    assert len(codes.all_code_specs(heavy)) == 6742 < codes.MAX_RECORDS
    monkeypatch.setattr(codes, "MAX_RECORDS", 6742)
    assert len(codes.all_code_specs(heavy)) == 6742
    monkeypatch.setattr(codes, "MAX_RECORDS", 6741)
    with pytest.raises(ConstructionRefused):
        codes.all_code_specs(heavy)


def test_validate_spec_admits_exactly_the_enumerated_records():
    # Every key moved one step off an admissible record: the record is
    # accepted exactly when the enumeration lists it.  At each end of a
    # key's range, one below and one above is refused.
    for ring in _family_rings():
        if ring.p ** ring.s > 9:
            continue
        specs = codes.all_code_specs(ring, rng=random.Random(2))
        admitted = {spec_to_text(s) for s in specs}
        refused = 0
        for spec in specs:
            codes.validate_spec(ring, spec)
            for key in ("i", "j", "k", "t"):
                if not hasattr(spec, key):
                    continue
                for step in (-1, 1):
                    moved = dataclasses.replace(
                        spec, **{key: getattr(spec, key) + step})
                    if spec_to_text(moved) in admitted:
                        codes.validate_spec(ring, moved)
                        continue
                    refused += 1
                    with pytest.raises(ConstraintViolation):
                        codes.validate_spec(ring, moved)
        assert refused, ring


def test_constraint_messages_are_pinned():
    field_ring = QuotientRing(F3, 2, 1, 2)         # p^s = 3
    chain1 = QuotientRing(F3, 2, 1, 2, beta=1)
    chain0 = QuotientRing(F3, 2, 1, 2, beta=0)
    one = chain0.field_quotient().one()
    for ring, spec, message in [
            (field_ring, FieldPower(5), "need 0 <= i <= 3, got i=5"),
            (field_ring, FieldPower(-1), "need 0 <= i <= 3, got i=-1"),
            (chain1, ChainPrincipal(7), "need 0 <= i <= 6, got i=7"),
            (chain0, Type1(4), "need 0 <= k <= 3, got k=4"),
            (chain0, Type2(j=2, k=3, b=one), "need 0 <= k <= 2, got k=3"),
            (chain0, Type2(j=1, k=1, b=one),
             "need 2 <= j <= 2 for k=1, got j=1"),
            (chain0, Type3(j=1, k=2, t=1, b=one), "need 0 <= k <= 1, got k=2"),
            (chain0, Type3(j=1, k=0, t=3, b=one),
             "need 1 <= t <= 2 for k=0, got t=3"),
            (chain0, Type3(j=0, k=0, t=2, b=one),
             "need 1 <= j <= 2 for k=0, t=2, got j=0"),
            (chain0, Type3(j=3, k=1, t=1, b=one),
             "need 2 <= j <= 2 for k=1, t=1, got j=3")]:
        with pytest.raises(ConstraintViolation) as exc:
            codes.validate_spec(ring, spec)
        assert str(exc.value) == message


def test_spec_text_inverts_for_every_enumerated_record():
    for ring in _family_rings():
        if ring.p ** ring.s > 9:
            continue
        for spec in codes.all_code_specs(ring, rng=random.Random(6)):
            assert spec_from_text(spec_to_text(spec), ring) == spec
    with pytest.raises(TypeError):
        spec_to_text("type1:k=1")


def test_wrong_family_names_the_admitted_ones():
    admits = {None: ["FieldPower"], 1: ["ChainPrincipal"],
              0: ["Type1", "Type2", "Type3"]}
    for beta, names in admits.items():
        ring = QuotientRing(F3, 2, 1, 2, beta)
        one = ring.field_quotient().one()
        for spec in (FieldPower(1), ChainPrincipal(1), Type1(1),
                     Type2(j=2, k=1, b=one), Type3(j=1, k=0, t=2, b=one)):
            if type(spec).__name__ in names:
                continue
            with pytest.raises(BetaMismatch) as exc:
                codes.validate_spec(ring, spec)
            assert str(exc.value) == (
                f"{type(spec).__name__} codes are not admitted over "
                f"{ring!r}, which admits {', '.join(names)}")
    with pytest.raises(TypeError):
        codes.validate_spec(QuotientRing(F3, 2, 1, 2), "field-power:i=1")


def test_record_keys_must_be_integers():
    ring = QuotientRing(F3, 1, 1, 1)
    chain0 = QuotientRing(F3, 1, 1, 1, beta=0)
    one = chain0.field_quotient().one()
    for bad in (1.0, True, False, "1", None, np.float64(1)):
        for check in (log_size, build_code, codes.validate_spec):
            with pytest.raises(InvalidValue):
                check(ring, FieldPower(bad))
        with pytest.raises(InvalidValue):
            build_code(chain0, Type2(j=2, k=bad, b=one))
        with pytest.raises(InvalidValue):
            build_code(chain0, Type3(j=bad, k=0, t=2, b=one))
    assert log_size(ring, FieldPower(np.int64(1))) == log_size(
        ring, FieldPower(1))


F5 = Field(5, 1)
RING = QuotientRing(F2, 1, 2, 1)

# Every integer parameter outside the per-element arithmetic: each call,
# with arguments it accepts.
INTEGER_CALLS = {
    "Field": (Field, (2, 1)),
    "QuotientRing": (lambda n, s: QuotientRing(F2, n, s, 1), (1, 2)),
    "binomial_irreducible": (lambda n: binomial_irreducible(F5, n, 2), (2,)),
    "irreducible_binomial_constants":
        (lambda n: irreducible_binomial_constants(F5, n), (2,)),
    "binomial_power": (lambda i: binomial_power(RING, i), (1,)),
    "monomial": (RING.monomial, (1,)),
    "coords_at": (build_code(RING, FieldPower(1)).coords_at, (1,)),
    "binomial_power_weight": (theory.binomial_power_weight, (2, 3, 1)),
    "exponent_interval": (theory.exponent_interval, (2, 3, 1)),
    "min_hamming_distance": (theory.min_hamming_distance, (2, 3, 1)),
    "min_pair_distance_field": (theory.min_pair_distance_field, (1, 2, 3, 2)),
}


@pytest.mark.parametrize("value", [1.5, True, "2"])
@pytest.mark.parametrize("name", sorted(INTEGER_CALLS))
def test_integer_parameters_refuse_other_values(name, value):
    # Each integer argument in turn is replaced by `value`: refused with
    # InvalidValue, never truncated, read as 1 or left to a bare TypeError.
    call, good = INTEGER_CALLS[name]
    call(*good)
    for at in range(len(good)):
        args = list(good)
        args[at] = value
        with pytest.raises(InvalidValue):
            call(*args)


def _count_validate_spec(monkeypatch) -> list:
    checked = []

    def counting(ring, spec):
        checked.append(spec)
        return validate_spec(ring, spec)

    validate_spec = codes.validate_spec
    for mod in (codes, theory):
        monkeypatch.setattr(mod, "validate_spec", counting)
    return checked


def test_sweeps_do_not_recheck_enumerated_records(monkeypatch):
    ring = QuotientRing(F2, 1, 3, 1, beta=0)
    budget = 1 << 10
    specs = codes.all_code_specs(ring, rng=random.Random(5))
    skipped = [spec_to_text(s) for s in specs
               if ring.p ** log_size(ring, s) > budget]
    checked = _count_validate_spec(monkeypatch)
    verdicts = theory.mds_classify(ring, rng=random.Random(5))
    assert len(verdicts) == len(specs) and checked == []
    report = theory.consistency_scan(ring, budget, rng=random.Random(5))
    assert report.ok and report.skipped == len(skipped) > 0
    assert checked and not set(skipped) & {spec_to_text(s) for s in checked}


def _count_unit_kind(monkeypatch) -> list:
    calls = []

    def counting(fq, b):
        calls.append(b)
        return unit_kind(fq, b)

    for mod in (codes, theory):
        if hasattr(mod, "unit_kind"):
            monkeypatch.setattr(mod, "unit_kind", counting)
    return calls


def test_b_kind_is_decided_once_by_the_record(monkeypatch):
    for ring in _small_rings():
        if ring.beta != 0:
            continue
        specs = all_code_specs(ring, rng=random.Random(3))
        assert any(isinstance(s, (Type2, Type3)) for s in specs)
        calls = _count_unit_kind(monkeypatch)
        for spec in specs:
            theory.mds_verdict(ring, spec)
            theory.min_pair_distance(ring, spec)
            log_size(ring, spec)
            build_code(ring, spec)
            spec_generator_text(ring, spec)
        assert calls == [], ring


def test_each_b_is_folded_and_formatted_once_per_quotient(monkeypatch):
    folded, formatted = [], []

    def fold(fq, b):
        folded.append((fq, b.coeffs))
        return fold_kind(fq, b)

    def format_poly(fq, f):
        formatted.append((fq, f.coeffs))
        return format_text(fq, f)

    fold_kind, format_text = codes._fold_kind, QuotientRing.format_poly
    monkeypatch.setattr(codes, "_fold_kind", fold)
    monkeypatch.setattr(QuotientRing, "format_poly", format_poly)
    for ring in _small_rings():
        if ring.beta != 0:
            continue
        fq = ring.field_quotient()
        specs = all_code_specs(ring, rng=random.Random(5))
        theory.mds_classify(ring, rng=random.Random(5))
        for spec in specs:
            spec_to_text(spec)
        bs = {s.b.coeffs for s in specs if isinstance(s, (Type2, Type3))}
        assert len(bs) >= 2, ring
        assert bs <= {c for r, c in folded if r is fq}
        assert {c for r, c in formatted if r is fq} == bs
    assert len(folded) == len(set(folded))
    assert len(formatted) == len(set(formatted))


def test_b_facts_are_kept_per_quotient():
    # The same coefficients over GF(3) and GF(9): x - 1 is not a unit
    # where alpha0 = 1, and x + 2 is a unit where alpha0 = 2 + y.
    fq3 = QuotientRing(F3, 1, 1, 1)
    fq9 = QuotientRing(Field(3, 2), 1, 1, 5)
    b3, b9 = fq3.poly([2, 1]), fq9.poly([2, 1])
    for _ in range(2):
        assert unit_kind(fq3, b3) == "neither"
        assert unit_kind(fq9, b9) == "unit"
        assert codes._poly_text_short(b3) == "2,1"
        assert codes._poly_text_short(b9) == "2.0,1.0,0.0"
        assert spec_to_text(Type2(2, 0, b9)) == "type2:j=2,k=0,b=2.0,1.0,0.0"
    with pytest.raises(NotUnitNorZero):
        Type2(2, 0, b3)


def test_records_refuse_b_neither_zero_nor_unit():
    fq = QuotientRing(F3, 2, 1, 2, beta=0).field_quotient()
    for nonunit in (binomial_power(fq, 1), binomial_power(fq, 2)):
        with pytest.raises(NotUnitNorZero):
            Type2(j=2, k=0, b=nonunit)
        with pytest.raises(NotUnitNorZero):
            Type3(j=1, k=0, t=2, b=nonunit)
    # zero and units are accepted
    Type2(j=2, k=0, b=fq.zero())
    Type3(j=1, k=0, t=2, b=fq.one())


def test_b_over_the_chain_quotient_is_refused():
    chain0 = QuotientRing(F3, 2, 1, 2, beta=0)
    fq = chain0.field_quotient()
    for b in (chain0.one(), chain0.zero(), chain0.lift(fq.zero(), fq.one())):
        with pytest.raises(RingMismatch):
            Type2(j=2, k=0, b=b)
        with pytest.raises(RingMismatch):
            Type3(j=1, k=0, t=2, b=b)
    # a b over another field quotient is refused when checked against a ring
    other = QuotientRing(F3, 1, 1, 1)
    with pytest.raises(RingMismatch):
        build_code(chain0, Type2(j=2, k=0, b=other.one()))
    with pytest.raises(RingMismatch):
        theory.min_pair_distance(chain0, Type3(j=1, k=0, t=2, b=other.one()))


def test_unit_kind_refuses_the_chain_quotient():
    # Over the chain quotient the coefficients a + u b are >= q, so they
    # are not field elements that unit_kind could fold.
    for chain in (QuotientRing(F3, 1, 2, 1, beta=0),
                  QuotientRing(F3, 2, 1, 2, beta=1)):
        fq = chain.field_quotient()
        u = chain.lift(fq.zero(), fq.one())
        for b in (u, chain.one(), chain.zero()):
            with pytest.raises(RingMismatch):
                unit_kind(chain, b)
            with pytest.raises(RingMismatch):
                unit_inverse(chain, b)
        with pytest.raises(RingMismatch):
            random_unit(chain, random.Random(0))


def test_unit_kind_and_inverse():
    ring = QuotientRing(F3, 2, 1, 2)
    assert unit_kind(ring, ring.zero()) == "zero"
    assert unit_kind(ring, ring.one()) == "unit"
    assert unit_kind(ring, binomial_power(ring, 1)) == "neither"
    assert unit_kind(ring, binomial_power(ring, 2)) == "neither"
    rng = random.Random(9)
    for fq in (ring,
               QuotientRing(Field(3, 2), 1, 2, 5),      # GF(9), N = 9
               QuotientRing(Field(2, 2), 3, 2, 2),      # GF(4), N = 12
               QuotientRing(F3, 1, 3, 1)):              # GF(3), N = 27
        for _ in range(10):
            b = random_unit(fq, rng)
            binv = unit_inverse(fq, b)
            assert qmul(b, binv) == fq.one(), (fq, b)
        with pytest.raises(NotUnitNorZero):
            unit_inverse(fq, binomial_power(fq, 1))


def test_random_unit_deterministic():
    ring = QuotientRing(F3, 2, 1, 2)
    a = random_unit(ring, random.Random(42))
    b = random_unit(ring, random.Random(42))
    assert a == b


def test_spec_text_roundtrip():
    chain0 = QuotientRing(F3, 1, 2, 1, beta=0)
    fq = chain0.field_quotient()
    samples = [
        (FieldPower(2), "field-power:i=2"),
        (ChainPrincipal(10), "chain:i=10"),
        (Type1(3), "type1:k=3"),
        (Type2(j=7, k=1, b=fq.one()), "type2:j=7,k=1,b=1"),
        (Type3(j=5, k=2, t=4, b=fq.zero()), "type3:j=5,k=2,t=4,b=0"),
    ]
    for spec, text in samples:
        assert spec_to_text(spec) == text
    ring_for = {
        "field-power:i=2": QuotientRing(F3, 1, 2, 1),
        "chain:i=10": QuotientRing(F3, 1, 2, 1, beta=1),
        "type1:k=3": chain0,
        "type2:j=7,k=1,b=1": chain0,
        "type3:j=5,k=2,t=4,b=0": chain0,
    }
    for spec, text in samples:
        assert spec_from_text(text, ring_for[text]) == spec
    # b may itself contain commas (a full polynomial); it must parse greedily
    spec = spec_from_text("type2:j=7,k=1,b=1,2,0,1", chain0)
    assert spec.b == fq.poly([1, 2, 0, 1] + [0] * 5)
    with pytest.raises(ConstraintViolation):
        spec_from_text("type9:k=1", chain0)
    with pytest.raises(ConstraintViolation):
        spec_from_text("type2:j=7,k=1", chain0)    # missing b
    for text in ("type1:k=2,zz=5", "type1:k=2,k=3", "type2:j=7,k=1,t=4,b=1",
                 "type3:j=5,k=2,t=4,t=4,b=0", "type2:b=1,j=7,k=1"):
        with pytest.raises(ConstraintViolation):
            spec_from_text(text, chain0)


def test_spec_generator_text():
    chain0 = QuotientRing(F3, 2, 1, 2, beta=0)
    fq = chain0.field_quotient()
    assert spec_generator_text(chain0, Type1(2)) == "(x^2-2)^2"
    assert spec_generator_text(
        chain0, Type2(j=2, k=1, b=fq.one())) == "(x^2-2)^2b + u(x^2-2)"
    assert spec_generator_text(
        chain0, Type2(j=2, k=1, b=fq.zero())) == "u(x^2-2)"


def test_spec_generator_text_validates_its_record():
    field = QuotientRing(F3, 2, 1, 2)
    assert spec_generator_text(field, FieldPower(1)) == "(x^2-2)"
    with pytest.raises(TypeError):
        spec_generator_text(field, "x")
    with pytest.raises(BetaMismatch):
        spec_generator_text(field, Type1(1))
    with pytest.raises(ConstraintViolation):
        spec_generator_text(field, FieldPower(99))


def _reference_coords(w):
    """GF(p) coordinates one coefficient at a time: the field digits of
    each coefficient, a-part then b-part over the two-component ring."""
    ring = w.ring
    out = []
    for c in w.coeffs:
        parts = (ring.base.a_of(c), ring.base.b_of(c)) if ring.is_chain \
            else (c,)
        for part in parts:
            out.extend(ring.field.coords(part))
    return np.array(out, dtype=np.int64)


def _reference_ideal_rows(ring, gens):
    """Every scalar multiple of every shift, built in the quotient."""
    rows = [np.zeros(ring.N * ring.base.gfp_dim, dtype=np.int64)]
    x = ring.monomial(1)
    for g in gens:
        w = g
        for _ in range(ring.N):
            for e in _reference_scalars(ring):
                rows.append(_reference_coords(qmul(ring.poly([e]), w)))
            w = qmul(x, w)
    return np.array(rows)


def _reference_scalars(ring):
    """A GF(p)-basis of the coefficient ring, built from field digits: the
    unit vectors of GF(p^m), then u times each of them."""
    field = ring.field
    units = [field.from_coords([0] * e + [1]) for e in range(field.m)]
    if not ring.is_chain:
        return units
    return ([ring.base.make(a, 0) for a in units]
            + [ring.base.make(0, a) for a in units])


def test_ideal_code_matches_qpoly_reference():
    rings = [
        QuotientRing(F3, 2, 1, 2, beta=0),              # chain, beta = 0, n = 2
        QuotientRing(F2, 1, 3, 1, beta=0),              # chain, beta = 0, N = 8
        QuotientRing(Field(2, 2), 1, 2, 1, beta=2),     # chain, beta != 0, m = 2
        QuotientRing(F3, 1, 2, 1, beta=1),              # chain, beta != 0, N = 9
        QuotientRing(Field(2, 2), 3, 2, 2),             # GF(4), n = 3, N = 12
        QuotientRing(F2, 1, 6, 1),                      # GF(2), s = 6, N = 64
    ]
    checked = 0
    for ring in rings:
        for spec in all_code_specs(ring, rng=random.Random(31)):
            gens = generators(ring, spec)
            code = codes.ideal_code(ring, gens)
            basis = rref_mod_p(_reference_ideal_rows(ring, gens), ring.p)
            label = (ring, spec_to_text(spec))
            assert code.basis.dtype == basis.dtype, label
            assert code.basis.shape == basis.shape, label
            assert code.basis.tobytes() == basis.tobytes(), label
            checked += 1
    assert checked > 150


def _multiplication_matrix(ring, g):
    """The (N*d) x (N*d) matrix M with coords(f * g) = coords(f) @ M,
    written by the digit layer: row t*d + e is coords(y^e x^t g), and
    over the two-component ring row t*d + m + e is coords(u y^e x^t g)."""
    dig, N, m = codes._digits_of(ring), ring.N, ring.m
    S = dig.shifts(dig.of(g), N)[0]
    blocks = [dig.basis_multiples(S)]
    if ring.is_chain:
        blocks.append(dig.basis_multiples(dig.times_u(S)))
    return np.stack([b.reshape(N, m, -1) for b in blocks], axis=1) \
        .reshape(N * ring.base.gfp_dim, -1)


def test_consta_shift_matrix_agrees_with_shift():
    # The digit layer's shifts x^t w, t <= N, and the multiplication
    # matrix of x it writes, against repeated qmul by x.
    rng = random.Random(3)
    for ring in _small_rings() + list(grid_rings()):
        x = ring.monomial(1)
        dig = codes._digits_of(ring)
        S = _multiplication_matrix(ring, x)
        size = ring.base.size if ring.is_chain else ring.field.q
        for i in range(20):
            w = ring.poly([rng.randrange(size) for _ in range(ring.N)])
            coords = _reference_coords(w)
            assert np.array_equal(word_coords(w), coords), ring
            lhs = (coords @ S) % ring.p
            rhs = _reference_coords(qmul(x, w))
            assert np.array_equal(lhs, rhs), ring
            if i >= 2:
                continue
            shifts = dig.shifts(dig.of(w), ring.N + 1)[0]
            for t in range(ring.N + 1):
                assert np.array_equal(shifts[t].reshape(-1),
                                      _reference_coords(w)), (ring, t)
                w = qmul(x, w)


def test_multiples_is_multiplication_by_g():
    # coords(f * g) = coords(f) @ M for the matrix the digit layer writes
    # (shifts, basis_multiples, times_u), and scale is multiplication by a
    # field constant: both checked against qmul on random f and g.
    rng = random.Random(13)
    for ring in _small_rings() + list(grid_rings()):
        dig = codes._digits_of(ring)
        size = ring.base.size if ring.is_chain else ring.field.q
        for _ in range(3):
            g = ring.poly([rng.randrange(size) for _ in range(ring.N)])
            M = _multiplication_matrix(ring, g)
            assert M.shape == (ring.N * ring.base.gfp_dim,) * 2, ring
            for _ in range(5):
                f = ring.poly([rng.randrange(size) for _ in range(ring.N)])
                lhs = (_reference_coords(f) @ M) % ring.p
                assert np.array_equal(lhs, _reference_coords(qmul(f, g))), \
                    (ring, f, g)
            c = rng.randrange(ring.field.q)
            scaled = dig.scale(dig.of(g), [c]).reshape(-1)
            assert np.array_equal(
                scaled, _reference_coords(qmul(ring.poly([c]), g))), \
                (ring, c, g)
    other = QuotientRing(F3, 1, 1, 2)
    with pytest.raises(RingMismatch):
        codes.ideal_code(_small_rings()[0], [other.one()])


def test_rref():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 8)
            M = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)])
            R = rref_mod_p(M, p)
            piv = (R != 0).argmax(axis=1)
            assert R.shape[0] <= min(rows, cols)
            assert (np.diff(piv) > 0).all()
            for r, c in enumerate(piv):
                assert R[r, c] == 1
                col = R[:, c].copy()
                col[r] = 0
                assert not col.any()


def test_same_rowspace_on_different_generating_sets():
    # <(x^2-a0)> built from the generator vs from generator * unit
    ring = QuotientRing(F3, 2, 1, 2)
    rng = random.Random(23)
    g = binomial_power(ring, 1)
    base_code = build_code(ring, FieldPower(1))
    for _ in range(5):
        unit = random_unit(ring, rng)
        rows = []
        w, x = qmul(g, unit), ring.monomial(1)
        for _ in range(ring.N):
            for e in _reference_scalars(ring):
                rows.append(word_coords(qmul(ring.poly([e]), w)))
            w = qmul(x, w)
        other = ConstacyclicCode(ring, rref_mod_p(np.array(rows), ring.p))
        assert base_code.same_rowspace(other)


def test_membership_and_equality_hold_for_any_basis():
    # A unit upper-triangular mix of a row-reduced basis spans the same
    # code; only enumeration follows the basis as given.
    ring = QuotientRing(F3, 1, 2, 1)
    built = build_code(ring, FieldPower(3))
    p, dim = ring.p, built.dim_p
    mix = np.triu(np.random.default_rng(p).integers(0, p, (dim, dim)), 1)
    code = ConstacyclicCode(
        ring, ((mix + np.eye(dim, dtype=np.int64)) @ built.basis) % p)
    assert not np.array_equal(code.basis, built.basis)
    words = np.array([word_coords(code.word_at(c))
                      for c in range(code.size)])
    assert len(words) == code.size == 729
    assert code.contains_batch(words).all()
    assert all(code.contains(w) for w in generators(ring, FieldPower(3)))
    assert code.same_rowspace(built) and built.same_rowspace(code)
    smaller = build_code(ring, FieldPower(4))
    assert not code.same_rowspace(smaller)
    assert not smaller.same_rowspace(code)
    outside = words[1].copy()
    outside[0] = (outside[0] + 1) % p
    assert not built.contains_batch(outside[None, :])[0]
    assert not code.contains_batch(outside[None, :])[0]
    assert not code.contains(ring.one())


def test_a_basis_with_dependent_rows_is_refused(monkeypatch):
    ring = QuotientRing(F3, 1, 2, 1)
    built = build_code(ring, FieldPower(7))             # 9 words
    zero_row = np.zeros_like(built.basis[:1])
    for rows in ([built.basis, built.basis], [built.basis, zero_row],
                 [built.basis[:1], 2 * built.basis[:1]]):
        with pytest.raises(ConstructionRefused):
            ConstacyclicCode(ring, np.concatenate(rows))
    # Independent rows are kept as given, in any order.
    flipped = ConstacyclicCode(ring, built.basis[::-1])
    assert np.array_equal(flipped.basis, built.basis[::-1])
    assert flipped.size == 9 and flipped.same_rowspace(built)
    # A basis in echelon form mod p needs no elimination to be accepted.
    monkeypatch.setattr(codes, "rref_mod_p", None)
    mixed = built.basis.copy()
    mixed[0] = (mixed[0] + mixed[1]) % ring.p
    for basis in (built.basis, mixed, built.basis + ring.p):
        assert ConstacyclicCode(ring, basis).dim_p == 2


def test_contains_batch_refuses_rows_of_the_wrong_width():
    code = build_code(QuotientRing(F3, 1, 2, 1), FieldPower(7))
    assert code.ncols == 9
    for words in (np.zeros((1, 5)), np.zeros(9), np.zeros((1, 1, 9))):
        with pytest.raises(RingMismatch):
            code.contains_batch(words)
    assert code.contains_batch(np.zeros((1, 9))).all()


def test_a_code_basis_owns_its_rows():
    # rref_mod_p hands back a compact copy of the nonzero rows, so a basis
    # does not keep the whole elimination matrix (N*d rows per generator)
    # alive.
    for ring in _small_rings():
        for spec in all_code_specs(ring, rng=random.Random(1)):
            assert build_code(ring, spec).basis.base is None, (ring, spec)


def test_the_sweeps_take_rng_by_keyword_only():
    # A second positional argument (an old unit-sample count) is refused,
    # never taken as the random generator.
    ring = QuotientRing(F2, 1, 2, 1, beta=0)
    for sweep in (codes.all_code_specs, theory.mds_classify):
        with pytest.raises(TypeError):
            sweep(ring, 2)
    with pytest.raises(TypeError):
        theory.consistency_scan(ring, 1 << 10, 2)


def test_a_remembered_ideal_still_checks_each_specs_rank(monkeypatch):
    # Type2 records with b = 0 differ only in j and share the generator u,
    # so one build_codes call builds their ideal once.  Each record is
    # still validated, and its rank is still compared with its own
    # classified size.
    ring = QuotientRing(F2, 1, 2, 1, beta=0)
    zero = ring.field_quotient().zero()
    first, second = Type2(j=2, k=0, b=zero), Type2(j=3, k=0, b=zero)
    assert [g.coeffs for g in generators(ring, first)] == \
        [g.coeffs for g in generators(ring, second)]
    runs = []
    real_bases, real_log_size = codes._standard_bases, codes._log_size

    def counting_bases(ring, todo):
        runs.extend(gens for _, gens in todo)
        return real_bases(ring, todo)

    monkeypatch.setattr(codes, "_standard_bases", counting_bases)
    monkeypatch.setattr(codes, "_log_size", lambda ring, spec:
                        real_log_size(ring, spec) + (spec == second))
    code, mismatch = codes.build_codes(ring, [first, second])
    assert len(runs) == 1
    assert isinstance(code, ConstacyclicCode)
    assert code.dim_p == real_log_size(ring, first)
    assert isinstance(mismatch, VerificationMismatch)
    assert mismatch.rank == code.dim_p
    with pytest.raises(ConstraintViolation):
        codes.build_codes(ring, [first, Type2(j=1, k=0, b=zero)])
    assert len(runs) == 1


def _grid_rings():
    """Field, beta != 0 and beta = 0 rings over GF(p) and GF(p^2), with
    n = 1, 2 and 3."""
    f4, f7, f9 = Field(2, 2), Field(7, 1), Field(3, 2)
    for args in [(F2, 1, 2, 1), (F3, 2, 1, 2), (f7, 3, 1, 3), (f4, 1, 1, 2),
                 (f4, 3, 1, 2), (f9, 2, 1, irreducible_binomial_constants(
                     f9, 2)[0])]:
        for beta in (None, 0, 1):
            yield QuotientRing(*args, beta=beta)


def test_build_code_is_the_reduced_ideal_of_the_literal_generators():
    # build_code writes the basis from the standard form with no
    # elimination; ideal_code reduces every multiple of the generators.
    checked = 0
    for ring in _grid_rings():
        for spec in all_code_specs(ring, rng=random.Random(5)):
            got = build_code(ring, spec).basis
            want = codes.ideal_code(ring, generators(ring, spec)).basis
            label = (ring, spec_to_text(spec))
            assert (got.dtype, got.shape) == (want.dtype, want.shape), label
            assert got.tobytes() == want.tobytes(), label
            checked += 1
    assert checked > 400


@pytest.mark.parametrize("plant", [(1, 0), (-1, 0), (0, 1), (0, -1),
                                   (1, -1), (-1, 1)])
def test_a_planted_standard_exponent_fails_the_build(monkeypatch, plant):
    # The build reads (e0, e1) and proves what it wrote, so an exponent off
    # by one is caught, also when the classified size it implies is right.
    real = codes._standard_exponents

    def planted(ring, spec):
        e0, e1 = real(ring, spec)
        return e0 + plant[0], e1 + plant[1]

    monkeypatch.setattr(codes, "_standard_exponents", planted)
    for ring in _small_rings() + [QuotientRing(Field(2, 2), 3, 1, 2, beta=0)]:
        for spec in all_code_specs(ring, rng=random.Random(2)):
            with pytest.raises(VerificationMismatch):
                build_code(ring, spec)


def _sweep_rings():
    """Fresh copies of the rings of the benchmark's two sweeps."""
    f2, f3, f5 = Field(2, 1), Field(3, 1), Field(5, 1)
    return [QuotientRing(f2, 1, 3, 1, beta=0),
            QuotientRing(f3, 1, 2, 1, beta=1), QuotientRing(f5, 2, 1, 2),
            QuotientRing(f3, 2, 2, 2), QuotientRing(f2, 1, 4, 1, beta=0)]


def test_a_batched_build_is_the_build_one_at_a_time():
    # consistency_scan builds a ring's codes in batches, one per standard
    # form and number of generators; every basis is the one build_code
    # writes for its record alone, on a ring of its own.
    one_ring = list(_grid_rings()) + _sweep_rings()
    batch_ring = list(_grid_rings()) + _sweep_rings()
    alone = [[build_code(ring, spec).basis
              for spec in all_code_specs(ring, rng=random.Random(4))]
             for ring in one_ring]
    checked = 0
    for ring, bases in zip(batch_ring, alone):
        records = all_code_specs(ring, rng=random.Random(4))
        built = codes.build_codes(ring, records)
        for spec, code, want in zip(records, built, bases, strict=True):
            got = code.basis
            label = (ring, spec_to_text(spec))
            assert (got.dtype, got.shape) == (want.dtype, want.shape), label
            assert got.tobytes() == want.tobytes(), label
            checked += 1
    assert checked > 2500


def test_a_fault_planted_in_a_batch_fails_exactly_its_entry(monkeypatch):
    # One record's standard exponents, off by one, put it in a batch with
    # records of that form.  Its proof fails and its entry alone; every
    # other record of the batch is built and scanned.
    clean = theory.consistency_scan(QuotientRing(F2, 1, 3, 1, beta=0),
                                    rng=random.Random(3))
    ring = QuotientRing(F2, 1, 3, 1, beta=0)
    specs = all_code_specs(ring, rng=random.Random(3))
    gens = {spec: tuple(g.coeffs for g in generators(ring, spec))
            for spec in specs}

    def form(spec, bump=0):
        e0, e1 = codes._standard_exponents(ring, spec)
        return e0, e1 + bump, len(gens[spec])

    forms = {form(spec) for spec in specs}
    bad = next(spec for spec in specs
               if list(gens.values()).count(gens[spec]) == 1
               and form(spec, 1) in forms)
    real, batches = codes._standard_exponents, []

    def planted(ring, spec):
        e0, e1 = real(ring, spec)
        return e0, e1 + (spec == bad)

    real_bases, real_batch, builds = \
        codes._standard_bases, codes._standard_batch, []

    def recording_bases(ring, todo):
        builds.append([spec for spec, _ in todo])
        return real_bases(ring, todo)

    def recording_batch(ring, e0, e1, specs, *pairs):
        batches.append(specs)
        return real_batch(ring, e0, e1, specs, *pairs)

    monkeypatch.setattr(codes, "_standard_exponents", planted)
    monkeypatch.setattr(codes, "_standard_bases", recording_bases)
    monkeypatch.setattr(codes, "_standard_batch", recording_batch)
    report = theory.consistency_scan(ring, rng=random.Random(3))
    assert any(bad in batch and len(batch) > 1 for batch in batches)
    # One batch for the ring, and the failed record is not built again
    # alone: nothing is built twice.
    assert len(builds[0]) == len(set(gens.values())) and builds[1:] == []
    text = spec_to_text(bad)
    assert [e.spec_text for e in report.mismatches] == [text]
    assert report.mismatches[0].dim_p is None
    assert report.skipped == clean.skipped == 0
    assert len(report.entries) == len(clean.entries)
    for got, want in zip(report.entries, clean.entries):
        if got.spec_text != text:
            assert got.to_dict() == want.to_dict()


def test_build_code_runs_no_elimination(monkeypatch):
    # Every record of the benchmark's sweep-wide ring, built and proved
    # without rref_mod_p.
    def refused(*args):
        raise AssertionError("rref_mod_p ran")

    monkeypatch.setattr(codes, "rref_mod_p", refused)
    ring = QuotientRing(F2, 1, 4, 1, beta=0)
    specs = all_code_specs(ring, rng=random.Random(1))
    assert len(specs) == 1989
    for spec in specs:
        assert build_code(ring, spec).dim_p == log_size(ring, spec)


def test_a_basis_of_the_wrong_shape_is_refused():
    ring = QuotientRing(F3, 1, 2, 1)                    # 9 columns
    for basis in (np.eye(3), np.eye(9)[0], np.zeros((1, 1, 9)), np.eye(10)):
        with pytest.raises(RingMismatch):
            ConstacyclicCode(ring, basis)
    assert ConstacyclicCode(ring, np.eye(9)[:2]).size == 9


def _coords_at_size():
    code = build_code(QuotientRing(F2, 1, 2, 1), FieldPower(2))
    return code.coords_at(code.size)


def _rowspaces_of_two_rings():
    field = build_code(QuotientRing(F2, 1, 2, 1), FieldPower(2))
    return field.same_rowspace(
        build_code(QuotientRing(F2, 1, 2, 1, beta=0), Type1(2)))


@pytest.mark.parametrize("call, error", [
    pytest.param(_coords_at_size, InvalidValue, id="coords_at-size"),
    pytest.param(_rowspaces_of_two_rings, RingMismatch,
                 id="same_rowspace-rings"),
    pytest.param(lambda: spec_from_text(
        "type1:k", QuotientRing(F2, 1, 2, 1, beta=0)),
        ConstraintViolation, id="spec-key-without-value"),
    pytest.param(lambda: F2.parse_element("1,0"), DegreeMismatch,
                 id="parse_element-two-digits"),
    pytest.param(lambda: hamming_distance((0, 1), (0,)), LengthTooShort,
                 id="hamming_distance-lengths"),
    pytest.param(lambda: pair_distance((0, 1), (0,)), LengthTooShort,
                 id="pair_distance-lengths"),
    pytest.param(lambda: block_decomposition((0,), (1,)), LengthTooShort,
                 id="block_decomposition-length-1"),
    pytest.param(lambda: QuotientRing(F2, 1, 2, 1).poly([0] * 5),
                 RingMismatch, id="poly-N+1-coefficients"),
    pytest.param(lambda: QuotientRing(F2, 1, 2, 1).one() + 1, TypeError,
                 id="qpoly-plus-int"),
    # x^k mod x^k is the empty product of _pmul, never x: reducible.
    pytest.param(lambda: Field(2, 2, (0, 0, 1)), ReducibleModulus,
                 id="modulus-x^2"),
    pytest.param(lambda: Field(2, 3, (0, 0, 0, 1)), ReducibleModulus,
                 id="modulus-x^3"),
])
def test_each_refusal_raises_its_class(call, error):
    with pytest.raises(error):
        call()
