import json
import random
import warnings

import numpy as np
import pytest

from paircodes.codes import (
    ChainPrincipal,
    ConstacyclicCode,
    FieldPower,
    Type1,
    all_code_specs,
    build_code,
    word_coords,
)
from paircodes import pairmetric
from paircodes.errors import (
    DegenerateInput,
    InvalidValue,
    LengthTooShort,
    VerificationMismatch,
)
from paircodes.galois import Field
from paircodes.pairmetric import (
    block_decomposition,
    hamming_distance,
    hamming_weight,
    min_distance_brute,
    pair_distance,
    pair_vector,
    pair_weight,
    scan_minima,
)
from paircodes.quotient import QuotientRing
from paircodes.theory import consistency_scan, min_pair_distance


def test_pair_vector_wraps_around():
    assert pair_vector((1, 0, 2, 0)) == ((1, 0), (0, 2), (2, 0), (0, 1))
    assert pair_vector("ab") == (("a", "b"), ("b", "a"))
    with pytest.raises(LengthTooShort):
        pair_vector((1,))


def test_weights_hand_examples():
    assert hamming_weight((1, 0, 2, 0)) == 2
    assert pair_weight((1, 0, 2, 0)) == 4           # every pair touches a nonzero
    assert pair_weight((1, 1, 0, 0)) == 3           # pairs (1,1),(1,0),(0,0),(0,1)
    assert pair_weight((0, 0, 0, 0)) == 0
    assert pair_weight((5, 0, 0, 0)) == 2           # isolated symbol: weight 2
    assert pair_weight((1, 1, 1, 1)) == 4           # full word: weight N


def test_distances_hand_examples():
    x, y = (1, 1, 0, 0, 1), (0, 0, 0, 0, 0)
    assert hamming_distance(x, y) == 3
    assert pair_distance(x, y) == 4
    d_h, blocks, d_sp = block_decomposition(x, y)
    assert (d_h, blocks, d_sp) == (3, 1, 4)         # {4,0,1} is one circular run
    x2 = (1, 0, 1, 0, 0, 0)
    d_h, blocks, d_sp = block_decomposition(x2, (0,) * 6)
    assert (d_h, blocks, d_sp) == (2, 2, 4)


def test_block_decomposition_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        block_decomposition((1, 2), (1, 2))
    with pytest.raises(DegenerateInput):
        block_decomposition((1, 1, 1), (2, 2, 2))
    with pytest.raises(LengthTooShort):
        block_decomposition((1, 2), (1, 2, 3))


def test_block_decomposition_checks_its_identity(monkeypatch):
    monkeypatch.setattr(pairmetric, "pair_distance", lambda x, y: 0)
    with pytest.raises(VerificationMismatch):
        block_decomposition((1, 1, 0, 0, 1), (0,) * 5)


def test_pair_distance_identity_random():
    rng = random.Random(0)
    for p, n in [(2, 6), (3, 8), (5, 5), (2, 13)]:
        for _ in range(500):
            x = tuple(rng.randrange(p) for _ in range(n))
            y = tuple(rng.randrange(p) for _ in range(n))
            d_h = hamming_distance(x, y)
            d_sp = pair_distance(x, y)
            assert d_h <= d_sp <= min(2 * d_h, n)
            if 0 < d_h < n:
                got_h, blocks, got_sp = block_decomposition(x, y)
                assert got_h == d_h
                assert got_sp == d_sp == d_h + blocks
            elif d_h == 0:
                assert d_sp == 0


def test_pair_weight_equals_distance_to_zero():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 12)
        x = tuple(rng.randrange(4) for _ in range(n))
        assert pair_weight(x) == pair_distance(x, (0,) * n)
        assert hamming_weight(x) == hamming_distance(x, (0,) * n)


def test_min_distance_tiny_repetition_code():
    ring = QuotientRing(Field(2, 1), 1, 1, 1)       # N = 2, <x-1>
    code = build_code(ring, FieldPower(1))
    rep = min_distance_brute(code)
    assert rep.d_sp == 2
    assert rep.d_H == 2
    assert rep.L is None                            # d_H = N: no decomposition
    assert rep.method == "exhaustive"
    assert rep.witness is not None and not rep.witness.is_zero()


def test_min_distance_zero_code():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    code = build_code(ring, FieldPower(3))
    rep = min_distance_brute(code)
    assert rep.d_sp == 0 and rep.method == "exhaustive" and rep.witness is None


def test_min_distance_budget_degrades_to_upper_bound():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    code = build_code(ring, FieldPower(1))          # 81 words
    exact = min_distance_brute(code, budget=81)
    assert exact.method == "exhaustive"
    bounded = min_distance_brute(code, budget=10)
    assert bounded.method == "upper-bound"
    assert bounded.d_sp >= exact.d_sp


def test_upper_bound_at_high_dimension_is_a_real_codeword():
    # dim 127 over GF(2): radices p^t for t >= 63 do not fit in int64.
    ring = QuotientRing(Field(2, 1), 1, 7, 1)
    code = build_code(ring, FieldPower(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = min_distance_brute(code, budget=1 << 12)
    assert rep.method == "upper-bound"
    assert code.contains(rep.witness)
    assert pair_weight(rep.witness) == rep.d_sp


@pytest.mark.parametrize("form, p", [("_Symbols", 3), ("_Planes", 2)])
def test_min_distance_brute_checks_the_scan_against_its_witness(
        form, p, monkeypatch):
    # A kernel that under-weighs every pair support by one must not yield
    # an exhaustive distance: its witness, weighed once, disagrees.
    cls = getattr(pairmetric, form)
    real = cls.weights

    def under(self, words):
        pair, hamming = real(self, words)
        return pair - 1, hamming

    monkeypatch.setattr(cls, "weights", under)
    code = build_code(QuotientRing(Field(p, 1), 1, 2, 1), FieldPower(1))
    with pytest.raises(VerificationMismatch):
        min_distance_brute(code)


@pytest.mark.parametrize("budget", [0, -1, -4096])
def test_budget_below_one_is_refused(budget):
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    code = build_code(ring, FieldPower(1))
    with pytest.raises(InvalidValue):
        scan_minima(code, budget)
    with pytest.raises(InvalidValue):
        min_distance_brute(code, budget=budget)
    with pytest.raises(InvalidValue):
        min_distance_brute(build_code(ring, FieldPower(3)), budget=budget)
    with pytest.raises(InvalidValue):
        consistency_scan(ring, budget=budget)


@pytest.mark.parametrize("budget", [True, 4096.0, "4096", None])
def test_budget_must_be_an_integer(budget):
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    code = build_code(ring, FieldPower(1))
    with pytest.raises(InvalidValue):
        scan_minima(code, budget)
    with pytest.raises(InvalidValue):
        min_distance_brute(code, budget=budget)
    with pytest.raises(InvalidValue):
        consistency_scan(ring, budget=budget)


def test_scan_matches_pure_python_enumeration():
    for ring, spec in [
        (QuotientRing(Field(3, 1), 2, 1, 2), FieldPower(1)),
        (QuotientRing(Field(2, 1), 1, 2, 1), FieldPower(2)),
        (QuotientRing(Field(2, 1), 1, 2, 1, beta=0), Type1(2)),
        (QuotientRing(Field(3, 2), 1, 1, 5), FieldPower(1)),
    ]:
        code = build_code(ring, spec)
        words = [code.word_at(c) for c in range(1, code.size)]
        want_pair = min(pair_weight(w) for w in words)
        want_ham = min(hamming_weight(w) for w in words)
        res = scan_minima(code)
        assert res["exhaustive"]
        assert res["min_pair"] == want_pair
        assert res["min_hamming"] == want_ham
        rep = min_distance_brute(code)
        assert pair_weight(rep.witness) == want_pair
        assert hamming_weight(code.word_at(res["hamming_at"])) == want_ham


def test_witness_is_first_in_enumeration_order():
    codes = [build_code(QuotientRing(Field(3, 1), 2, 1, 2), FieldPower(2)),
             # 5^6 words: past the 5^5-word low table, projective reduction
             # visits one counter in four.
             build_code(QuotientRing(Field(5, 1), 1, 2, 1), FieldPower(19))]
    for code in codes:
        res = scan_minima(code)
        rep = min_distance_brute(code)
        assert rep.witness == code.word_at(res["pair_at"])
        for key, weight in (("pair_at", pair_weight),
                            ("hamming_at", hamming_weight)):
            witness = code.word_at(res[key])
            best = weight(witness)
            for w in map(code.word_at, range(1, code.size)):
                if w == witness:
                    break
                assert weight(w) > best


def test_report_serialization():
    ring = QuotientRing(Field(3, 1), 2, 1, 2)
    rep = min_distance_brute(build_code(ring, FieldPower(1)))
    d = rep.to_dict()
    assert d["d_sp"] == 4 and d["method"] == "exhaustive"
    assert isinstance(d["witness"], str)


@pytest.mark.parametrize("p", [131, 251, 257])
def test_scan_large_primes(p):
    # <(x-1)^(p-2)> over GF(p), N = p: p^2 words, d_H = p-1, d_sp = p.
    # The sums of two symbols reach 2(p-1), past 255 from p = 129 on.
    code = build_code(QuotientRing(Field(p, 1), 1, 1, 1), FieldPower(p - 2))
    res = scan_minima(code)
    assert res["exhaustive"] and res["scanned"] == p * p - 1
    assert res["min_hamming"] == p - 1
    assert res["min_pair"] == p


@pytest.mark.parametrize("p, s, i", [(3, 6, 728), (3, 6, 727), (5, 4, 624)])
def test_scan_counts_weights_past_255(p, s, i):
    # N = p^s is 729 or 625: a weight of one byte would wrap (729 reads 217),
    # so the counts must be held in uint16.  Every word is weighed here by
    # pure Python, and the closed form gives the same minimum.
    ring = QuotientRing(Field(p, 1), 1, s, 1)
    code = build_code(ring, FieldPower(i))
    assert ring.N > 255
    words = [code.word_at(c) for c in range(1, code.size)]
    pairs = [pair_weight(w) for w in words]
    hams = [hamming_weight(w) for w in words]
    res = scan_minima(code)
    assert res == {"min_pair": min(pairs),
                   "pair_at": pairs.index(min(pairs)) + 1,
                   "min_hamming": min(hams),
                   "hamming_at": hams.index(min(hams)) + 1,
                   "exhaustive": True, "scanned": code.size - 1}
    assert res["min_pair"] == min_pair_distance(ring, FieldPower(i))
    if i == ring.N - 1:
        assert res["min_pair"] == res["min_hamming"] == ring.N


@pytest.mark.parametrize("ring, spec", [
    (QuotientRing(Field(3, 1), 1, 3, 1), FieldPower(18)),
    (QuotientRing(Field(2, 1), 1, 4, 1), FieldPower(1)),
    (QuotientRing(Field(2, 2), 3, 5, 2), FieldPower(29)),
])
def test_the_oracle_returns_plain_python_numbers(ring, spec):
    # The weights are uint8/uint16 arrays; what leaves the oracle is int,
    # bool or None, so no numpy scalar reaches the JSON envelope.  p = 2
    # is weighed as bit planes (N = 96: two lanes a plane) and as symbols.
    code, budget = build_code(ring, spec), 1 << 12
    scans = [scan_minima(code, budget),
             pairmetric._scan(pairmetric._Symbols(code), budget)]
    for res in scans:
        assert {type(v) for v in res.values()} <= {int, bool, type(None)}
    report = min_distance_brute(code, budget).to_dict()
    assert {type(report[k]) for k in ("d_sp", "d_H", "L")} <= \
        {int, type(None)}
    json.dumps([scans, report])


def _reference_words(code):
    """GF(p) coordinates of codewords 1, 2, ... by a pure-Python walk.

    Stepping counter c to c+1 wraps digits p-1 -> 0 and raises one digit;
    each such digit change adds its basis row mod p (-(p-1) = 1 mod p).
    """
    p = code.ring.p
    rows = code.basis.tolist()
    digits = [0] * len(rows)
    vec = [0] * len(rows[0])
    for _ in range(1, code.size):
        t = 0
        while True:
            vec = [(v + r) % p for v, r in zip(vec, rows[t])]
            if digits[t] < p - 1:
                digits[t] += 1
                break
            digits[t] = 0
            t += 1
        yield vec


def _leading_digit(counter, p):
    while counter >= p:
        counter //= p
    return counter


def _coordinate_rows(block, ring):
    """The columns of a block as GF(p) coordinate rows.  At p = 2 a column
    holds d digit planes of uint64 lanes, bit i of plane e being digit e
    of position i."""
    if ring.p != 2:
        return block.T.tolist()
    N, d = ring.N, ring.base.gfp_dim
    planes = np.ascontiguousarray(block.T, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(planes.reshape(block.shape[1], d, -1), axis=-1,
                         bitorder="little")[:, :, :N]
    return bits.transpose(0, 2, 1).reshape(-1, N * d).tolist()


# p^h is the largest power of p within the kernel's 2^13-word block; every
# code spans its low table p times, and p^(h+2) words for p = 2 with one
# lane, so that a segment p^j..2p^j-1 takes several blocks.  At p = 2 the
# cases hold one and two 64-bit lanes per plane and one and two planes.
@pytest.mark.parametrize("ring, spec", [
    (QuotientRing(Field(2, 1), 1, 4, 1), FieldPower(1)),
    (QuotientRing(Field(3, 1), 1, 3, 1), FieldPower(18)),
    (QuotientRing(Field(5, 1), 1, 2, 1), FieldPower(19)),
    (QuotientRing(Field(7, 1), 1, 2, 1), FieldPower(44)),
    (QuotientRing(Field(2, 1), 1, 3, 1, beta=1), ChainPrincipal(2)),
    (QuotientRing(Field(3, 1), 1, 2, 1, beta=1), ChainPrincipal(9)),
    (QuotientRing(Field(5, 1), 1, 1, 1, beta=1), ChainPrincipal(4)),
    (QuotientRing(Field(7, 1), 1, 1, 1, beta=1), ChainPrincipal(9)),
    (QuotientRing(Field(2, 1), 1, 7, 1), FieldPower(114)),
    (QuotientRing(Field(2, 2), 1, 3, 1), FieldPower(1)),
])
def test_scan_matches_reference_walk(ring, spec, monkeypatch):
    built = build_code(ring, spec)
    p, dim, sdim = ring.p, built.dim_p, ring.base.gfp_dim
    low = max(p ** h for h in range(dim) if p ** h <= 1 << 13)
    assert low * p <= built.size
    # Unit upper-triangular mixing of the row-reduced basis spreads the
    # lightest words over the whole counter range.
    mix = np.triu(np.random.default_rng(p).integers(0, p, (dim, dim)), 1)
    basis = ((mix + np.eye(dim, dtype=np.int64)) @ built.basis) % p
    code = ConstacyclicCode(ring, basis)
    assert code.same_rowspace(built) and built.same_rowspace(code)
    words = map(code.word_at, range(code.size))
    assert next(words).is_zero()
    vecs = list(_reference_words(code))
    for w, vec in zip(words, vecs[:p * p]):
        assert word_coords(w).tolist() == vec
    # The blocks hold exactly the whole low table, then the words with
    # leading digit 1, reduced mod p.
    blocks, seen = pairmetric._blocks, []

    def recording_blocks(*args):
        for first, block in blocks(*args):
            seen.extend(enumerate(_coordinate_rows(block, ring),
                                  start=first))
            yield first, block

    monkeypatch.setattr(pairmetric, "_blocks", recording_blocks)
    scan_minima(code, code.size)
    monkeypatch.undo()
    assert [c for c, _ in seen] == [c for c in range(1, code.size)
                                    if c < low or _leading_digit(c, p) == 1]
    assert all(vec == vecs[c - 1] for c, vec in seen)
    pair, ham = [], []
    for vec in vecs:
        symbols = [any(vec[i * sdim:(i + 1) * sdim]) for i in range(ring.N)]
        pair.append(pair_weight(symbols))
        ham.append(hamming_weight(symbols))
    for budget in [1, 2, low - 1, low, low + 1, low + low // 2 + 1,
                   2 * low + 1, code.size - 1, code.size]:
        exhaustive = code.size <= budget
        last = code.size - 1 if exhaustive else budget
        want = {"exhaustive": exhaustive, "scanned": last}
        for key_min, key_at, wts in (("min_pair", "pair_at", pair[:last]),
                                     ("min_hamming", "hamming_at", ham[:last])):
            want[key_min] = min(wts)
            want[key_at] = wts.index(want[key_min]) + 1
        assert scan_minima(code, budget) == want, budget


@pytest.mark.parametrize("p", [2, 3])
def test_the_oracle_reads_the_basis_mod_p(p):
    # A basis is any rows over GF(p); the kernel adds digits below p, so it
    # reduces the rows first.  Entries 2p above the digits make the same
    # code, with the same minima.  Each code gets its own ring, so neither
    # scan is the other's remembered one.
    code = build_code(QuotientRing(Field(p, 1), 1, 2, 1), FieldPower(2))
    shifted = ConstacyclicCode(QuotientRing(Field(p, 1), 1, 2, 1),
                               code.basis + 2 * p)
    want = scan_minima(code)
    assert want["min_pair"] == 4
    assert scan_minima(shifted) == want
    assert min_distance_brute(shifted).d_sp == 4


def _both_forms(code, budget):
    """`_scan` of the code's words as bit planes, then as symbols."""
    return (pairmetric._scan(pairmetric._Planes(code), budget),
            pairmetric._scan(pairmetric._Symbols(code), budget))


def test_bit_planes_scan_like_one_symbol_per_coordinate():
    # Every nonzero code of chain GF(2), s = 4, beta = 0 (two planes of one
    # lane), at budgets below, inside and past its low tables.
    ring = QuotientRing(Field(2, 1), 1, 4, 1, beta=0)
    bases = {}
    for spec in all_code_specs(ring):
        code = build_code(ring, spec)
        if code.dim_p:
            bases.setdefault(code.basis.tobytes(), code)
    assert len(bases) > 100
    for code in bases.values():
        for budget in (1, 7, 1 << 10):
            planes, symbols = _both_forms(code, budget)
            assert planes == symbols, (code, budget)
    # Two planes of two lanes, N = 96 wrapping inside its second lane; four
    # planes (chain GF(4)); and a code of 2^21 words, one plane of one lane.
    wide = build_code(QuotientRing(Field(2, 2), 3, 5, 2), FieldPower(29))
    deep = build_code(QuotientRing(Field(2, 2), 1, 3, 1, beta=1),
                      ChainPrincipal(9))
    large = build_code(QuotientRing(Field(2, 1), 1, 5, 1), FieldPower(11))
    for code, budget in [(wide, 1 << 13), (wide, 100_000), (wide, 1 << 18),
                         (deep, 1 << 14), (large, 1 << 21)]:
        planes, symbols = _both_forms(code, budget)
        assert planes == symbols, (code, budget)
        assert scan_minima(code, budget) == planes


def test_scan_minima_returns_a_fresh_dict_each_call():
    # The ring remembers each scan; what a caller does with its result
    # does not reach the next caller.
    ring = QuotientRing(Field(2, 1), 1, 3, 1, beta=0)
    code = build_code(ring, Type1(2))
    first = scan_minima(code, 1 << 10)
    want = dict(first)
    first["min_pair"] = -1
    first.clear()
    again = scan_minima(build_code(ring, Type1(2)), 1 << 10)
    assert again == want and again is not first
    assert scan_minima(code, 1 << 3) != want     # the budget is in the key
