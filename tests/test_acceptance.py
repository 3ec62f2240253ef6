"""Acceptance suite: one test per shipping criterion, and a grid that
reaches every cell of the closed form.

Each test is self-contained and states its expected values inline; the
enumeration oracle (`min_distance_brute` / `scan_minima`) is the only
source of "actual" distances, never the closed forms under test.
"""

import dataclasses
import itertools
import math
import random
from functools import lru_cache

import numpy as np
import pytest

from paircodes import theory
from paircodes.codes import (
    ChainPrincipal,
    ConstacyclicCode,
    FieldPower,
    Type1,
    Type2,
    Type3,
    _digits_of,
    _standard_exponents,
    all_code_specs,
    build_code,
    generators,
    ideal_code,
    log_size,
    random_unit,
    rref_mod_p,
    spec_from_text,
    spec_to_text,
    unit_inverse,
    unit_kind,
)
from paircodes.galois import Field, irreducible_binomial_constants
from paircodes.pairmetric import (
    block_decomposition,
    hamming_weight,
    min_distance_brute,
    pair_distance,
    scan_minima,
)
from paircodes.quotient import QuotientRing, binomial_power, qmul
from paircodes.theory import (
    binomial_power_weight,
    consistency_scan,
    exponent_interval,
    mds_classify,
    mds_verdict,
    min_pair_distance_field,
)

BUDGET = 1 << 21


@lru_cache(maxsize=None)
def field_grid() -> tuple:
    """Every (p, m, s, n) cell admitting an irreducible x^n - alpha0,
    with the first such alpha0 (deterministic search order)."""
    cells = []
    for p in (2, 3, 5):
        for m in (1, 2):
            field = Field(p, m)
            for s in (1, 2):
                for n in (1, 2, 3):
                    if math.gcd(n, p) != 1:
                        continue
                    consts = irreducible_binomial_constants(field, n)
                    if not consts:
                        continue
                    cells.append((p, m, s, n, consts[0]))
    return tuple(cells)


def grid_rings():
    for p, m, s, n, alpha0 in field_grid():
        yield QuotientRing(Field(p, m), n, s, alpha0)


def test_criterion_1_field_formula_matches_exhaustive_oracle():
    checked = 0
    for ring in grid_rings():
        ps = ring.p ** ring.s
        for i in range(ps + 1):
            size = ring.p ** (ring.m * (ring.N - ring.n * i))
            if size > BUDGET:
                continue
            formula, _ = min_pair_distance_field(ring.n, ring.p, ring.s, i)
            code = build_code(ring, FieldPower(i))
            rep = min_distance_brute(code, BUDGET)
            assert rep.method == "exhaustive", (ring, i)
            assert rep.d_sp == formula, \
                f"{ring!r} i={i}: formula {formula} != exhaustive {rep.d_sp}"
            checked += 1
    assert checked >= 60, f"grid unexpectedly thin: {checked} codes"


# The closed form is piecewise.  A cell is one piece: the rule of
# min_pair_distance_field; the k class and whether theta = 0 and i starts
# its interval, from exponent_interval; p = 2 or odd; n = 1 or n >= 2.
# The criterion-1 grid has s <= 2, so it never reaches 0 < k < s - 1.
# These rings (p, m, s, n) do, for both kinds of p and of n: s = 3 for
# p = 3, 5, 7 (and n = 2 for p = 3), GF(2) with s = 4 and 5, and GF(4)
# with n = 3, s = 3.
CELL_RINGS = [(3, 1, 3, 1), (3, 1, 3, 2), (5, 1, 3, 1), (7, 1, 3, 1),
              (2, 1, 4, 1), (2, 1, 5, 1), (2, 2, 3, 3)]
# Chain rings for p = 2 and n >= 2 need m >= 2, since x^3 - alpha0 is
# reducible over GF(2).  Both chain kinds of GF(4), n = 3, s = 1 (N = 6)
# reach the rows of the (e0, e1) table that p = 2, n >= 2 lacks otherwise.
CHAIN_RINGS = [(2, 2, 1, 3)]
# <a^3> over GF(3), n=2, s=2 and <a^21> over GF(3), n=2, s=3 have 3^12
# words each; they reach the n>=2 theta=0 tails at k = 0 and 0 < k < s - 1.
CELL_BUDGET = 3 ** 12
RULES = ("full-space", "zero-code", "n>=2", "n=1 interval-start",
         "n=1 theta=0 tail", "n=1 mid-theta", "n=1 last-exponent",
         "n=1 top-block")


def closed_form_cell(ring, e1) -> tuple:
    """The cell of the closed form that gives the distances of a code with
    torsion exponent e1 over the ring."""
    p, s, n = ring.p, ring.s, ring.n
    where = None
    if 0 < e1 < p ** s:
        k, theta, lo, _ = exponent_interval(p, s, e1)
        where = ("k=0" if k == 0 else "k=s-1" if k == s - 1
                 else "0<k<s-1", theta == 0, e1 == lo)
    return (min_pair_distance_field(n, p, s, e1)[1], where,
            "p=2" if p == 2 else "p odd", "n=1" if n == 1 else "n>=2")


@lru_cache(maxsize=None)
def cell_grid() -> tuple:
    """(ring, [(spec text, cell)] of its codes within CELL_BUDGET) over the
    criterion-1 grid and CELL_RINGS, with both chain kinds wherever m = 1
    and N <= 6 and for CHAIN_RINGS.  The ring objects are built once, so
    every scan of the grid after the first finds its codes and oracle
    results remembered."""
    params = list(field_grid()) + [
        (p, m, s, n, irreducible_binomial_constants(Field(p, m), n)[0])
        for p, m, s, n in CELL_RINGS]
    grid = []
    for p, m, s, n, alpha0 in params:
        field = Field(p, m)
        chains = (m == 1 and n * p ** s <= 6) or (p, m, s, n) in CHAIN_RINGS
        betas = (None, 0, 1) if chains else (None,)
        for beta in betas:
            ring = QuotientRing(field, n, s, alpha0, beta)
            cells = [(spec_to_text(spec), closed_form_cell(
                          ring, _standard_exponents(ring, spec)[1]))
                     for spec in all_code_specs(ring)
                     if ring.p ** log_size(ring, spec) <= CELL_BUDGET]
            grid.append((ring, cells))
    return tuple(grid)


def test_every_reachable_cell_has_an_exhaustive_check_in_both_metrics():
    reached = set()
    for ring, cells in cell_grid():
        report = consistency_scan(ring, CELL_BUDGET)
        # every code within the budget is checked, exhaustively
        assert [e.spec_text for e in report.entries] == \
            [text for text, _ in cells]
        for entry, (_, cell) in zip(report.entries, cells):
            assert ring.p ** entry.dim_p <= CELL_BUDGET
            assert entry.ok, (ring, entry.to_dict())
            reached.add(cell)
    assert {cell[0] for cell in reached} == set(RULES)
    # The pieces the criterion-1 grid misses, in every branch that can
    # reach them: odd p for all four, and p = 2 where theta = 0.
    middle = {cell for cell in reached
              if cell[1] is not None and cell[1][0] == "0<k<s-1"}
    for rule in ("n=1 interval-start", "n=1 theta=0 tail", "n>=2"):
        for parity in ("p=2", "p odd"):
            assert any(c[0] == rule and c[2] == parity for c in middle), \
                (rule, parity)
    assert any(c[0] == "n=1 mid-theta" for c in middle)
    assert len(reached) >= 42, f"grid unexpectedly thin: {len(reached)}"


def family_row(spec) -> str:
    """The row of the (e0, e1) table (`_standard_exponents`) that gives the
    size and distances of the code `spec` describes."""
    b = getattr(spec, "b", None)
    kind = "" if b is None else " b=0" if b.is_zero() else " b unit"
    return type(spec).__name__ + kind


FAMILY_ROWS = ("FieldPower", "ChainPrincipal", "Type1", "Type2 b=0",
               "Type2 b unit", "Type3 b=0", "Type3 b unit")


def test_every_family_row_has_an_exhaustive_check_in_both_metrics():
    # D8's "Families": each row of the (e0, e1) table, for p = 2 and odd p
    # and for n = 1 and n >= 2, has a code within the budget whose pair and
    # Hamming formulas the oracle confirms.
    reached = set()
    for ring, cells in cell_grid():
        report = consistency_scan(ring, CELL_BUDGET)
        for entry, (_, cell) in zip(report.entries, cells, strict=True):
            assert ring.p ** entry.dim_p <= CELL_BUDGET
            assert entry.ok, (ring, entry.to_dict())
            spec = spec_from_text(entry.spec_text, ring)
            reached.add((family_row(spec), cell[2], cell[3]))
    assert reached == {(row, parity, length) for row in FAMILY_ROWS
                       for parity in ("p=2", "p odd")
                       for length in ("n=1", "n>=2")}


@pytest.mark.parametrize("rule", RULES)
def test_a_fault_planted_in_one_rule_fails_exactly_its_entries(
        rule, monkeypatch):
    real = theory.min_pair_distance_field

    def planted(n, p, s, i):
        d, got = real(n, p, s, i)
        return (d + 1 if got == rule else d), got

    monkeypatch.setattr(theory, "min_pair_distance_field", planted)
    failed = 0
    for ring, cells in cell_grid():
        report = consistency_scan(ring, CELL_BUDGET)
        assert [e.spec_text for e in report.entries if not e.ok] == \
            [text for text, cell in cells if cell[0] == rule], ring
        for entry in report.mismatches:
            assert entry.oracle_pair == entry.formula_pair - 1
            assert entry.oracle_hamming == entry.formula_hamming
        failed += len(report.mismatches)
    assert failed > 0


def _ideal_lattice(ring) -> dict:
    """Every ideal of `ring`, keyed by the bytes of its reduced basis: the
    principal ideals, closed under sums (their stacked bases, reduced)."""
    size = ring.base.size if ring.is_chain else ring.field.q
    ideals = {}
    for coeffs in itertools.product(range(size), repeat=ring.N):
        basis = ideal_code(ring, [ring.poly(coeffs)]).basis
        ideals[basis.tobytes()] = basis
    grown = True
    while grown:
        grown = False
        for a, b in itertools.combinations(list(ideals.values()), 2):
            basis = rref_mod_p(np.concatenate([a, b]), ring.p)
            grown |= ideals.setdefault(basis.tobytes(), basis) is basis
    return ideals


def _records_over_every_unit(ring) -> list:
    """`all_code_specs` with the b of each Type2/Type3 row run over zero
    and every unit of the field quotient."""
    fq = ring.field_quotient()
    bs = [fq.poly(cs) for cs in itertools.product(range(fq.field.q),
                                                  repeat=fq.N)]
    bs = [b for b in bs if unit_kind(fq, b) != "neither"]
    records = {}
    for spec in all_code_specs(ring):
        for b in (bs if hasattr(spec, "b") else [None]):
            record = spec if b is None else dataclasses.replace(spec, b=b)
            records[spec_to_text(record)] = record
    return list(records.values())


@pytest.mark.parametrize("p, m, s, beta, count", [
    (2, 1, 1, 0, 7), (2, 1, 2, 0, 23), (3, 1, 1, 0, 16), (2, 2, 1, 0, 9),
    (2, 1, 2, 1, 9), (3, 1, 1, 1, 7), (3, 1, 1, 2, 7), (2, 1, 3, None, 9)])
def test_every_ideal_is_a_record_and_the_mds_sets_agree(p, m, s, beta,
                                                        count):
    # The completeness the paper's classification rests on (Dinh,
    # J. Algebra 324 (2010)): on rings of at most 4,096 elements, the
    # records' codes are exactly the ideals, built here from the literal
    # generators by elimination alone, and the oracle's MDS ideals are
    # exactly the closed form's.
    ring = QuotientRing(Field(p, m), 1, s, 1, beta)
    ideals = _ideal_lattice(ring)
    assert len(ideals) == count
    coded, formula_mds = {}, set()
    for spec in _records_over_every_unit(ring):
        key = ideal_code(ring, generators(ring, spec)).basis.tobytes()
        coded.setdefault(key, spec_to_text(spec))
        verdict = mds_verdict(ring, spec)
        if verdict.is_mds and not verdict.trivial:
            formula_mds.add(key)
    assert set(coded) <= set(ideals)
    # The dimensions of the ideals that no record gives.
    assert set(ideals) <= set(coded), \
        sorted(len(ideals[key]) for key in set(ideals) - set(coded))
    full = ring.N * ring.base.gfp_dim
    oracle_mds = set()
    for key, basis in ideals.items():
        if 0 < len(basis) < full:
            d = scan_minima(ConstacyclicCode(ring, basis))["min_pair"]
            if (ring.N - d + 2) * ring.base.gfp_dim == len(basis):
                oracle_mds.add(key)
    assert oracle_mds == formula_mds


def test_criterion_2_chain_example_length9_pair_distance_4_not_9():
    ring = QuotientRing(Field(3, 1), 1, 2, 1, beta=0)
    spec = Type2(j=7, k=1, b=ring.field_quotient().one())
    code = build_code(ring, spec)
    assert code.size == 6561
    rep = min_distance_brute(code, BUDGET)
    assert rep.method == "exhaustive"
    assert rep.d_sp == 4
    assert rep.d_sp != 9
    # the corrected value coincides with the plain cubed-radical field code
    field_code = build_code(QuotientRing(Field(3, 1), 1, 2, 1), FieldPower(3))
    assert min_distance_brute(field_code, BUDGET).d_sp == 4


def test_criterion_3_chain_family_length8_pair_distance_4_not_mds():
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    spec = Type2(j=5, k=0, b=ring.field_quotient().one())
    code = build_code(ring, spec)
    assert code.size == 256
    rep = min_distance_brute(code, BUDGET)
    assert rep.method == "exhaustive"
    assert rep.d_sp == 4
    assert rep.d_sp != 6          # claimed 3 * 2^(s-2) with s=3
    # not MDS: positive defect in log_p units against the pair-Singleton bound
    defect = (ring.N - rep.d_sp + 2) * 2 * ring.m - log_size(ring, spec)
    assert defect > 0


def _mds_map(ring):
    return {v.spec.i: v for v in mds_classify(ring)
            if v.is_mds and not v.trivial}


def test_criterion_4_mds_tables_at_desk_scale():
    # (p=3, s=1, n=2): exactly i=1 (d=4) and i=2 (d=6), plus trivial i=0
    for m in (1, 2):
        field = Field(3, m)
        alpha0 = irreducible_binomial_constants(field, 2)[0]
        ring = QuotientRing(field, 2, 1, alpha0)
        verdicts = {v.spec.i: v for v in mds_classify(ring)}
        mds = {i: v.d_sp for i, v in verdicts.items()
               if v.is_mds and not v.trivial}
        assert mds == {1: 4, 2: 6}
        assert verdicts[0].is_mds and verdicts[0].trivial
        for i in (1, 2):
            code = build_code(ring, FieldPower(i))
            if code.size <= BUDGET:
                assert min_distance_brute(code, BUDGET).d_sp == mds[i]

    # (p=3, s=2, n=1): the MDS set must include i=1,2,4,7 with d=3,4,6,9
    expected = {1: 3, 2: 4, 4: 6, 7: 9}
    for m in (1, 2):
        ring = QuotientRing(Field(3, m), 1, 2, 1)
        mds = {i: v.d_sp for i, v in _mds_map(ring).items()}
        for i, d in expected.items():
            assert mds.get(i) == d, (m, i, mds)
        assert set(mds) == {1, 2, 4, 7}
        for i, d in expected.items():
            code = build_code(ring, FieldPower(i))
            if code.size <= BUDGET:         # i >= 4 always; i in {1,2} for m=1
                rep = min_distance_brute(code, BUDGET)
                assert rep.method == "exhaustive" and rep.d_sp == d
        if m == 1:
            assert all(3 ** (9 - i) <= BUDGET for i in expected)


def test_criterion_5_nonzero_beta_rings_have_no_nontrivial_mds():
    cells = 0
    for p in (2, 3):
        field = Field(p, 1)
        for s in (1, 2):
            for n in (1, 2):
                if math.gcd(n, p) != 1:
                    continue
                consts = irreducible_binomial_constants(field, n)
                if not consts:
                    continue
                for beta in range(1, p):
                    ring = QuotientRing(field, n, s, consts[0], beta=beta)
                    for v in mds_classify(ring):
                        if v.spec.i == 0:
                            assert v.is_mds and v.singleton_defect == 0
                        else:
                            assert not v.is_mds, (p, s, n, beta, v)
                            assert v.singleton_defect > 0
                    cells += 1
    assert cells >= 6


def test_criterion_6_two_mds_classes_from_literal_generators():
    p = 3
    ring = QuotientRing(Field(p, 1), 2, 1, 2, beta=0)
    fq = ring.field_quotient()
    rng = random.Random(11)
    bs = [fq.zero()] + [random_unit(fq, rng) for _ in range(3)]
    alog = 2 * ring.m
    for b in bs:
        is_unit = not b.is_zero()
        # class one: radical plus u-times-b, expected pair distance 4
        g1 = ring.lift(binomial_power(fq, 1), b)
        code1 = ideal_code(ring, [g1])
        rep1 = min_distance_brute(code1, BUDGET)
        assert rep1.method == "exhaustive" and rep1.d_sp == 4
        assert (ring.N - rep1.d_sp + 2) * alog == code1.dim_p   # MDS
        canon1 = (Type3(j=1, k=0, t=2, b=unit_inverse(fq, b)) if is_unit
                  else Type1(1))
        assert code1.same_rowspace(build_code(ring, canon1))
        # class two: radical^(p-1) plus u radical^(p-2) b, distance 2p
        g2 = ring.lift(binomial_power(fq, p - 1),
                       qmul(binomial_power(fq, p - 2), b))
        code2 = ideal_code(ring, [g2])
        rep2 = min_distance_brute(code2, BUDGET)
        assert rep2.method == "exhaustive" and rep2.d_sp == 2 * p
        assert (ring.N - rep2.d_sp + 2) * alog == code2.dim_p   # MDS
        canon2 = (Type2(j=p - 1, k=p - 2, b=unit_inverse(fq, b)) if is_unit
                  else Type1(p - 1))
        assert code2.same_rowspace(build_code(ring, canon2))


def test_criterion_7_binomial_weight_formula_matches_expansion():
    for ring in grid_rings():
        ps = ring.p ** ring.s
        for i in range(ps):
            expanded = hamming_weight(binomial_power(ring, i))
            assert binomial_power_weight(ring.p, ring.s, i) == expanded, \
                (ring, i)


def test_criterion_8_structural_invariants_hold_for_every_code():
    nrng = np.random.default_rng(2024)
    for ring in grid_rings():
        ps = ring.p ** ring.s
        dig = _digits_of(ring)
        prev = None
        for i in range(ps + 1):
            spec = FieldPower(i)
            code = build_code(ring, spec)
            assert code.dim_p == log_size(ring, spec)
            if code.dim_p:
                # float64 products are exact here: entries are below p <= 5
                # and a sum has at most N*d = 150 terms, far below 2^53
                digits = nrng.integers(0, ring.p,
                                       size=(1000, code.dim_p))
                words = (digits.astype(np.float64) @ code.basis) % ring.p
            else:
                words = np.zeros((1000, code.ncols))
            words = words.astype(np.int64).reshape(1000, ring.N, -1)
            shifted = dig.shifts(words, 2)[:, 1].reshape(1000, -1)  # x words
            assert bool(code.contains_batch(shifted).all()), (ring, i)
            if i < ps:     # the zero code reports 0 by convention
                d = min_pair_distance_field(ring.n, ring.p, ring.s, i)[0]
                assert prev is None or d >= prev, (ring, i)
                prev = d


def test_criterion_9_pair_metric_identities_on_random_words():
    nrng = np.random.default_rng(99)
    configs = [(2, 1, 8), (3, 1, 9), (3, 2, 6), (5, 1, 10), (2, 2, 12),
               (7, 1, 7)]
    pairs = 10_000
    for p, m, N in configs:
        q = p ** m
        A = nrng.integers(0, q, size=(pairs, N))
        B = nrng.integers(0, q, size=(pairs, N))
        diff = A != B
        d_h = diff.sum(axis=1)
        starts = diff & ~np.roll(diff, 1, axis=1)
        blocks = starts.sum(axis=1)
        pair_diff = diff | np.roll(diff, -1, axis=1)
        d_sp = pair_diff.sum(axis=1)
        mid = (0 < d_h) & (d_h < N)
        assert np.array_equal(d_sp[mid], (d_h + blocks)[mid])
        assert bool((d_h <= d_sp).all())
        assert bool((d_sp <= 2 * d_h).all())
        assert bool((d_sp[d_h == N] == N).all())
        # scalar implementation agrees with the vectorized oracle
        for r in range(100):
            a, b = tuple(int(x) for x in A[r]), tuple(int(x) for x in B[r])
            assert pair_distance(a, b) == d_sp[r]
            if mid[r]:
                got = block_decomposition(a, b)
                assert got == (int(d_h[r]), int(blocks[r]), int(d_sp[r]))
