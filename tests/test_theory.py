import gc
import random
import types
import weakref

import pytest

from paircodes.codes import (
    DEFAULT_BUDGET,
    ChainPrincipal,
    FieldPower,
    Type1,
    Type2,
    Type3,
    build_code,
    build_codes,
    generators,
    log_size,
    random_unit,
    spec_from_text,
    spec_to_text,
)
from paircodes.errors import (
    ConstraintViolation,
    ExponentOutOfRange,
    NotPrime,
    VerificationMismatch,
)
from paircodes.galois import Field
from paircodes import codes, pairmetric, theory
from paircodes.pairmetric import (
    hamming_weight,
    min_distance_brute,
    scan_minima,
)
from paircodes.quotient import QuotientRing, binomial_power
from paircodes.theory import (
    all_code_specs,
    binomial_power_weight,
    consistency_scan,
    exponent_interval,
    mds_classify,
    mds_verdict,
    min_hamming_distance,
    min_pair_distance,
    min_pair_distance_field,
)


def test_binomial_power_weight_is_digit_product():
    assert binomial_power_weight(3, 2, 4) == 4      # digits (1,1)
    assert binomial_power_weight(3, 2, 7) == 6      # digits (1,2)
    assert binomial_power_weight(2, 3, 7) == 8      # digits (1,1,1)
    assert binomial_power_weight(5, 1, 3) == 4
    assert binomial_power_weight(3, 2, 0) == 1
    with pytest.raises(ExponentOutOfRange):
        binomial_power_weight(3, 2, 9)


def test_binomial_power_weight_matches_expansion():
    for p, s, n, a0 in [(2, 3, 1, 1), (3, 2, 1, 2), (5, 1, 2, 2), (3, 2, 2, 2)]:
        ring = QuotientRing(Field(p, 1), n, s, a0)
        for i in range(p ** s):
            assert binomial_power_weight(p, s, i) == \
                hamming_weight(binomial_power(ring, i)), (p, s, n, i)


def test_exponent_intervals_tile_the_range():
    for p, s in [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)]:
        seen = []
        for i in range(1, p ** s):
            k, theta, lo, hi = exponent_interval(p, s, i)
            assert lo <= i <= hi
            assert 0 <= k <= s - 1
            assert 0 <= theta <= p - 2
            assert lo == p ** s - p ** (s - k) + theta * p ** (s - k - 1) + 1
            assert hi == lo + p ** (s - k - 1) - 1
            seen.append((k, theta))
        # each (k, theta) interval is contiguous and the blocks are ordered
        assert seen == sorted(seen)
    with pytest.raises(ExponentOutOfRange):
        exponent_interval(3, 2, 0)
    with pytest.raises(ExponentOutOfRange):
        exponent_interval(3, 2, 9)


def test_min_hamming_distance_values():
    # p=3, s=1: 1, 2, 3, 0
    assert [min_hamming_distance(3, 1, i) for i in range(4)] == [1, 2, 3, 0]
    # p=3, s=2: theta+2 on the k=0 blocks, tripled on k=1
    assert [min_hamming_distance(3, 2, i) for i in range(10)] == \
        [1, 2, 2, 2, 3, 3, 3, 6, 9, 0]
    # p=2, s=3
    assert [min_hamming_distance(2, 3, i) for i in range(9)] == \
        [1, 2, 2, 2, 2, 4, 4, 8, 0]


def test_min_pair_distance_field_n1_rows():
    # p=3, s=2, n=1 (length 9)
    got = [min_pair_distance_field(1, 3, 2, i)[0] for i in range(10)]
    assert got == [2, 3, 4, 4, 6, 6, 6, 9, 9, 0]
    # p=2, s=3, n=1 (length 8)
    got = [min_pair_distance_field(1, 2, 3, i)[0] for i in range(9)]
    assert got == [2, 3, 4, 4, 4, 6, 8, 8, 0]
    # p=5, s=1, n=1 (length 5): i+2 up to the last exponent, then p^s
    got = [min_pair_distance_field(1, 5, 1, i)[0] for i in range(6)]
    assert got == [2, 3, 4, 5, 5, 0]


def test_min_pair_distance_field_n2_rows():
    # n >= 2: 2(theta+2)p^k throughout
    got = [min_pair_distance_field(2, 3, 1, i)[0] for i in range(4)]
    assert got == [2, 4, 6, 0]
    got = [min_pair_distance_field(2, 3, 2, i)[0] for i in range(10)]
    assert got == [2, 4, 4, 4, 6, 6, 6, 12, 18, 0]
    got = [min_pair_distance_field(3, 2, 2, i)[0] for i in range(5)]
    assert got == [2, 4, 4, 8, 0]


def test_min_pair_distance_field_guards():
    with pytest.raises(ConstraintViolation):
        min_pair_distance_field(3, 3, 1, 1)         # gcd(n, p) != 1
    with pytest.raises(ConstraintViolation):
        min_pair_distance_field(0, 3, 1, 1)
    with pytest.raises(ExponentOutOfRange):
        min_pair_distance_field(1, 3, 1, 4)


def test_closed_forms_refuse_a_p_not_prime_and_an_s_below_1():
    forms = [lambda p, s: min_pair_distance_field(1, p, s, 0),
             lambda p, s: binomial_power_weight(p, s, 0),
             lambda p, s: exponent_interval(p, s, 1),
             lambda p, s: min_hamming_distance(p, s, 0)]
    for form in forms:
        for p in (0, 1, 4, 9, -3):
            with pytest.raises(NotPrime):
                form(p, 2)
        for s in (0, -1):
            with pytest.raises(ConstraintViolation):
                form(3, s)
    with pytest.raises(NotPrime):
        min_pair_distance_field(1, 4, 1, 1)
    with pytest.raises(NotPrime):
        binomial_power_weight(1, 5, 0)
    with pytest.raises(ConstraintViolation):
        min_pair_distance_field(1, 3, -1, 0)
    with pytest.raises(ConstraintViolation):
        exponent_interval(3, -1, 0)


def test_formula_branches_reported():
    assert min_pair_distance_field(1, 3, 2, 1) == (3, "n=1 interval-start")
    assert min_pair_distance_field(1, 3, 2, 8) == (9, "n=1 last-exponent")
    assert min_pair_distance_field(2, 3, 2, 5) == (6, "n>=2")


def test_pair_vs_hamming_formula_relations():
    for p, s, n in [(2, 3, 1), (3, 2, 1), (5, 1, 1), (3, 2, 2), (2, 2, 3)]:
        N = n * p ** s
        prev = None
        for i in range(p ** s):
            d_h = min_hamming_distance(p, s, i)
            d_sp, _ = min_pair_distance_field(n, p, s, i)
            if d_h < N:
                assert d_h < d_sp <= 2 * d_h
            else:
                assert d_sp == N                    # full-weight words gain nothing
            if prev is not None:
                assert d_sp >= prev                 # nondecreasing before the end
            prev = d_sp


def test_min_pair_distance_beta_nonzero():
    ring = QuotientRing(Field(3, 1), 1, 2, 1, beta=1)
    for i in range(10):
        assert min_pair_distance(ring, ChainPrincipal(i)) == 2
    for r in range(1, 10):
        assert min_pair_distance(ring, ChainPrincipal(9 + r)) == \
            min_pair_distance_field(1, 3, 2, r)[0]


def test_min_pair_distance_beta_zero():
    ring = QuotientRing(Field(3, 1), 1, 2, 1, beta=0)
    fq = ring.field_quotient()
    one = fq.one()
    # the two refuted claims: both collapse to small actual distances
    assert min_pair_distance(ring, Type2(j=7, k=1, b=one)) == 4
    ring2 = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    assert min_pair_distance(
        ring2, Type2(j=5, k=0, b=ring2.field_quotient().one())) == 4
    # b = 0 falls back to the plain field value at k
    assert min_pair_distance(ring, Type2(j=7, k=1, b=fq.zero())) == \
        min_pair_distance_field(1, 3, 2, 1)[0]
    # Type1 is the field value at k
    for k in range(10):
        assert min_pair_distance(ring, Type1(k)) == \
            min_pair_distance_field(1, 3, 2, k)[0]
    # Type3 with unit b reads the field value at 2k + t - j
    assert min_pair_distance(ring, Type3(j=5, k=2, t=4, b=one)) == \
        min_pair_distance_field(1, 3, 2, 2 * 2 + 4 - 5)[0]


def test_mds_verdicts_field():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    v = mds_verdict(ring, FieldPower(1))
    assert v.d_sp == 4 and v.singleton_defect == 0 and v.is_mds and not v.trivial
    v = mds_verdict(ring, FieldPower(0))
    assert v.is_mds and v.trivial
    v = mds_verdict(ring, FieldPower(3))
    assert not v.is_mds and v.trivial and v.singleton_defect > 0
    ring9 = QuotientRing(Field(3, 1), 1, 2, 1)
    mds_set = {v.spec.i for v in mds_classify(ring9) if v.is_mds and not v.trivial}
    assert mds_set == {1, 2, 4, 7}


def test_trivial_means_the_zero_code_or_the_full_space():
    # read off the built code's rank, not the classified size
    f3 = Field(3, 1)
    for ring in (QuotientRing(f3, 2, 1, 2), QuotientRing(f3, 1, 2, 1, beta=1),
                 QuotientRing(Field(2, 1), 1, 2, 1, beta=0)):
        for spec in all_code_specs(ring, rng=random.Random(3)):
            code = build_code(ring, spec)
            assert mds_verdict(ring, spec).trivial == \
                (code.dim_p in (0, code.ncols)), (ring, spec)


def test_mds_classify_chain_beta_nonzero_only_trivial():
    for p, beta in [(2, 1), (3, 1), (3, 2)]:
        field = Field(p, 1)
        ring = QuotientRing(field, 1, 2, 1, beta=beta)
        verdicts = mds_classify(ring)
        mds = [v for v in verdicts if v.is_mds]
        assert len(mds) == 1
        assert isinstance(mds[0].spec, ChainPrincipal) and mds[0].spec.i == 0
        assert mds[0].trivial


def _ring_of(p, m, n, s, alpha0, beta=None):
    field = Field(p, m)
    return QuotientRing(field, n, s, field.parse_element(alpha0),
                        None if beta is None else field.parse_element(beta))


@pytest.mark.parametrize("ring", [
    (3, 1, 2, 2, "2"),                # field, n >= 2
    (2, 2, 3, 1, "0,1"),              # field GF(4), n = 3
    (5, 1, 1, 2, "3"),
    (3, 1, 1, 2, "1", "1"),           # chain, beta != 0
    (2, 2, 3, 1, "0,1", "1"),
    (2, 1, 1, 3, "1", "0"),           # beta = 0
    (3, 1, 1, 2, "2", "0"),
    (5, 1, 1, 1, "2", "0"),
    (2, 2, 3, 1, "0,1", "0"),         # beta = 0, GF(4), n = 3
    (3, 1, 2, 1, "2", "0"),           # beta = 0, n = 2
], ids=str)
def test_mds_classify_is_mds_verdict_of_each_record(ring):
    # mds_classify shares one verdict among the records of one standard
    # form (e0, e1); each must still be the verdict of its own record.
    ring = _ring_of(*ring)
    for seed in (0, 1):
        got = mds_classify(ring, rng=random.Random(seed))
        want = [mds_verdict(ring, spec)
                for spec in all_code_specs(ring, rng=random.Random(seed))]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, (ring, w.spec)


def test_all_code_specs_cover_beta_zero_families():
    ring = QuotientRing(Field(2, 1), 1, 2, 1, beta=0)
    rng = random.Random(5)
    specs = all_code_specs(ring, rng=rng)
    kinds = {type(s).__name__ for s in specs}
    assert kinds == {"Type1", "Type2", "Type3"}
    # Type2 range: k in [0,3], j in [ceil((4+k)/2), 3], and (j, k) = (4, 3)
    t2 = [(s.j, s.k) for s in specs if isinstance(s, Type2)]
    assert set(t2) == {(2, 0), (3, 0), (3, 1), (3, 2), (4, 3)}
    t3 = [(s.j, s.k, s.t) for s in specs if isinstance(s, Type3)]
    assert (1, 0, 2) in t3 and (3, 2, 1) in t3
    for j, k, t in t3:
        assert k + (t + 1) // 2 <= j <= k + t and 1 <= t <= 4 - k - 1


def test_consistency_scan_field_ring():
    ring = QuotientRing(Field(2, 1), 1, 2, 1)
    report = consistency_scan(ring)
    assert report.ok and report.skipped == 0
    assert len(report.entries) == 5
    d = report.to_dict()
    assert d["ok"] and d["checked"] == 5


def test_consistency_scan_chain_rings():
    report = consistency_scan(QuotientRing(Field(2, 1), 1, 2, 1, beta=1))
    assert report.ok and report.skipped == 0
    rng = random.Random(2)
    report = consistency_scan(QuotientRing(Field(2, 1), 1, 2, 1, beta=0),
                              rng=rng)
    assert report.ok and report.skipped == 0


def test_consistency_scan_builds_only_codes_within_budget(monkeypatch):
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    budget = 1 << 6
    specs = all_code_specs(ring, rng=random.Random(5))
    over = sum(build_code(ring, spec).size > budget for spec in specs)
    built = []

    def counting_build_codes(ring, specs):
        built.extend(specs)
        return build_codes(ring, specs)

    monkeypatch.setattr(theory, "build_codes", counting_build_codes)
    report = consistency_scan(ring, budget=budget, rng=random.Random(5))
    assert report.ok and report.skipped == over > 0
    assert len(built) == len(report.entries)


def test_mismatch_witness_comes_from_the_one_scan(monkeypatch):
    # Entries that share a basis share its one scan, and each entry's
    # witness is the one min_distance_brute finds for its own record.
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    budget = 1 << 8
    scans = []

    def counting_scan(code, budget):
        scans.append(code.basis.tobytes())
        return scan_minima(code, budget)

    # Every closed form is off by one, so every nonzero code mismatches.
    monkeypatch.setattr(theory, "min_pair_distance_field",
                        lambda n, p, s, i: (min_pair_distance_field(
                            n, p, s, i)[0] + 1, "planted"))
    monkeypatch.setattr(theory, "scan_minima", counting_scan)
    monkeypatch.setattr(pairmetric, "scan_minima", counting_scan)
    report = consistency_scan(ring, budget=budget, rng=random.Random(3))
    monkeypatch.undo()
    checked = [e for e in report.entries if e.dim_p]
    built = [build_code(ring, spec_from_text(e.spec_text, ring))
             for e in checked]
    bases = {code.basis.tobytes() for code in built}
    assert checked and sorted(scans) == sorted(bases)
    assert len(scans) < len(checked)
    for entry, code in zip(checked, built):
        assert not entry.ok
        rep = min_distance_brute(code, budget)
        assert entry.witness == repr(rep.witness)


def test_mds_classify_with_oracle_budget():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    assert [v.d_sp for v in mds_classify(ring)] == [2, 4, 6, 0]
    assert consistency_scan(ring, budget=1 << 10).ok


def test_min_pair_distance_dispatches_by_family():
    fring = QuotientRing(Field(3, 1), 2, 1, 2)
    assert min_pair_distance(fring, FieldPower(2)) == 6
    cring = QuotientRing(Field(3, 1), 2, 1, 2, beta=1)
    assert min_pair_distance(cring, ChainPrincipal(4)) == \
        min_pair_distance_field(2, 3, 1, 1)[0]


def test_rank_mismatch_is_one_failing_entry(monkeypatch):
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    budget = 1 << 8
    clean = consistency_scan(ring, budget=budget, rng=random.Random(3))
    assert clean.ok
    bad = clean.entries[len(clean.entries) // 2]
    real_build_codes = theory.build_codes

    def failing_build_codes(ring, specs):
        return [VerificationMismatch("planted rank mismatch", rank=99)
                if spec_to_text(spec) == bad.spec_text else code
                for spec, code in zip(specs, real_build_codes(ring, specs))]

    monkeypatch.setattr(theory, "build_codes", failing_build_codes)
    report = consistency_scan(ring, budget=budget, rng=random.Random(3))
    assert not report.ok and report.mismatches == [
        e for e in report.entries if e.spec_text == bad.spec_text]
    entry = report.mismatches[0]
    assert entry.to_dict() == {
        **bad.to_dict(), "dim_p": 99, "dim_ok": False, "oracle_pair": None,
        "oracle_hamming": None, "ok": False, "witness": None}
    assert report.skipped == clean.skipped
    assert len(report.entries) == len(clean.entries)
    for got, want in zip(report.entries, clean.entries):
        if got is not entry:
            assert got.to_dict() == want.to_dict()


def test_planted_hamming_closed_form_fails_exactly_its_entries(monkeypatch):
    # Chain-ring entries carry the Hamming closed form of their torsion
    # exponent; one planted wrong value fails the entries that read it, and
    # each names as witness the first word of least Hamming weight.
    budget = 1 << 12
    for ring in (QuotientRing(Field(2, 1), 1, 3, 1, beta=0),
                 QuotientRing(Field(3, 1), 1, 2, 1, beta=1)):
        def scan():
            return consistency_scan(ring, budget=budget, rng=random.Random(3))

        clean = scan()
        assert clean.ok
        monkeypatch.setattr(
            theory, "min_hamming_distance",
            lambda p, s, i: min_hamming_distance(p, s, i) + (i == 2))
        report = scan()
        monkeypatch.undo()
        planted = []
        for got, want in zip(report.entries, clean.entries):
            if got.formula_hamming == want.formula_hamming:
                assert got.to_dict() == want.to_dict()
                continue
            code = build_code(ring, spec_from_text(got.spec_text, ring))
            lightest = code.word_at(scan_minima(code, budget)["hamming_at"])
            assert hamming_weight(lightest) == got.oracle_hamming
            assert got.to_dict() == {
                **want.to_dict(), "ok": False,
                "formula_hamming": want.formula_hamming + 1,
                "witness": repr(lightest)}
            planted.append(got.spec_text)
        assert planted and [e.spec_text for e in report.mismatches] == planted
        assert ring.beta or "type1:k=2" in planted
        assert len(report.entries) == len(clean.entries)


def test_planted_wrong_standard_exponent_fails_the_scan(monkeypatch):
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    real = codes._standard_exponents

    def planted(ring, spec):
        e0, e1 = real(ring, spec)
        if isinstance(spec, Type2) and not spec.b.is_zero():
            e1 += 1
        return e0, e1

    monkeypatch.setattr(codes, "_standard_exponents", planted)
    monkeypatch.setattr(theory, "_standard_exponents", planted)
    report = consistency_scan(ring, budget=1 << 8, rng=random.Random(3))
    assert not report.ok
    assert {e.spec_text for e in report.mismatches} == {
        e.spec_text for e in report.entries
        if e.spec_text.startswith("type2:") and not e.spec_text.endswith(
            ",b=0")}


def test_consistency_scan_builds_each_ideal_and_scans_each_code_once(
        monkeypatch):
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    # The distinct generator tuples of the specs the scan checks, and the
    # distinct nonzero bases they span, counted on a second ring.
    twin = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    tuples, bases = set(), set()
    for spec in all_code_specs(twin, rng=random.Random(7)):
        if twin.p ** log_size(twin, spec) > DEFAULT_BUDGET:
            continue
        gens = generators(twin, spec)
        tuples.add(tuple(g.coeffs for g in gens))
        basis = codes.ideal_code(twin, gens).basis
        if basis.shape[0]:
            bases.add(basis.tobytes())
    ideal_runs, kernel_runs = [], []
    real_bases, real_scan = codes._standard_bases, pairmetric._scan

    def counting_bases(ring, todo):
        ideal_runs.extend(gens for _, gens in todo)
        return real_bases(ring, todo)

    def counting_scan(code, budget):
        kernel_runs.append(budget)
        return real_scan(code, budget)

    monkeypatch.setattr(codes, "_standard_bases", counting_bases)
    monkeypatch.setattr(pairmetric, "_scan", counting_scan)
    report = consistency_scan(ring, rng=random.Random(7))
    assert report.ok and report.skipped == 0
    assert len(ideal_runs) == len(tuples) < len(report.entries)
    assert len(kernel_runs) == len(bases) < len(tuples)


def test_a_dropped_ring_is_freed():
    # The ring's memos hold plain data, never a code or a polynomial that
    # refers back to the ring, so dropping the ring frees it by reference
    # counting alone, with no cycle for the collector to find.  So are its
    # companion field quotient and a field ring, which is its own companion
    # and holds no reference to itself.
    gc.disable()
    try:
        ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
        field_ring = QuotientRing(Field(2, 1), 1, 3, 1)
        report = consistency_scan(ring, budget=1 << 10,
                                  rng=random.Random(1))
        field_report = consistency_scan(field_ring, budget=1 << 10,
                                        rng=random.Random(1))
        code = build_code(ring, Type1(2))
        result = scan_minima(code)
        refs = [weakref.ref(ring), weakref.ref(ring.field_quotient()),
                weakref.ref(field_ring)]
        kept = {"codes._pivot_inverse", "quotient.binomial_power"}
        assert report.ok and kept <= {key[0] for key in ring._memo}
        assert field_report.ok and field_ring.field_quotient() is field_ring
        assert kept <= {key[0] for key in field_ring._memo}
        del ring, field_ring, report, field_report, code, result
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_no_ring_memo_refers_back_to_a_ring():
    # The rule on QuotientRing.remember: a value holds plain data, never
    # anything that refers back to a ring.  Checked on everything a
    # sweep-wide scan leaves behind, on the chain ring and on its field
    # quotient.
    ring = QuotientRing(Field(2, 1), 1, 4, 1, beta=0)
    assert consistency_scan(ring, budget=1 << 10,
                            rng=random.Random("31:0")).ok
    rings = [ring, ring.field_quotient()]
    found = []
    for owner in rings:
        for key, value in owner._memo.items():
            seen, todo = set(), [value]
            while todo:
                obj = todo.pop()
                if id(obj) in seen or isinstance(
                        obj, (type, types.ModuleType)):
                    continue
                seen.add(id(obj))
                if isinstance(obj, QuotientRing):
                    found.append(key[0])
                    break
                todo += gc.get_referents(obj)
    assert {key[0] for owner in rings for key in owner._memo} == {
        "codes.unit_kind", "codes.unit_inverse", "codes.generators",
        "codes._poly_text_short", "quotient.binomial_power",
        "_digits._Digits", "codes._pivot_inverse"}
    assert found == []


def test_every_ring_memo_goes_through_remember(monkeypatch):
    # Each kind of work a ring remembers is named by the first item of its
    # key; a rerun on the same ring with the same seed makes nothing anew.
    kinds, made = set(), []
    real_remember = QuotientRing.remember

    def recording(self, key, make):
        kinds.add(key[0])

        def counted():
            made.append(key)
            return make()
        return real_remember(self, key, counted)

    monkeypatch.setattr(QuotientRing, "remember", recording)
    ring = QuotientRing(Field(2, 1), 1, 2, 1, beta=0)

    def sweep():
        report = consistency_scan(ring, budget=1 << 10,
                                  rng=random.Random(5))
        texts = [spec_to_text(spec)
                 for spec in all_code_specs(ring, rng=random.Random(5))]
        return report.to_dict(), texts

    first = sweep()
    assert first[0]["ok"] and made
    assert kinds == {"codes.unit_kind", "codes.unit_inverse",
                     "codes.generators", "codes._poly_text_short",
                     "quotient.binomial_power", "_digits._Digits",
                     "codes._pivot_inverse"}
    made.clear()
    assert sweep() == first
    assert made == []


def test_each_record_is_worked_on_once_per_scan(monkeypatch):
    # A sweep-wide scan validates each in-budget record and computes its
    # generators once, and builds its bases in one kernel call; a second
    # scan on the same ring does the same and reads the same.
    calls = {"generators": 0, "validate_spec": 0, "_standard_bases": 0}
    for name in calls:
        real = getattr(codes, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(codes, name, counted)
        if hasattr(theory, name):
            monkeypatch.setattr(theory, name, counted)
    ring = QuotientRing(Field(2, 1), 1, 4, 1, beta=0)

    def scan():
        return consistency_scan(ring, budget=1 << 10,
                                rng=random.Random("31:0")).to_dict()

    first = scan()
    assert first["ok"] and first["checked"] == 310
    assert calls["generators"] == 310 and calls["validate_spec"] <= 310
    assert calls["_standard_bases"] == 1
    calls["_standard_bases"] = 0
    assert scan() == first
    assert calls["_standard_bases"] == 1
