"""Symbol-pair reads, weights, distances, and the exhaustive oracle.

The pair read of a word (x_0, ..., x_{N-1}) is the length-N sequence of
overlapping pairs ((x_0,x_1), (x_1,x_2), ..., (x_{N-1},x_0)).  Pair weight
counts positions whose pair is not (0,0); pair distance between two words
counts positions where their pair reads differ.  For 0 < d_H(x,y) < N the
pair distance decomposes as d_H + L where L is the number of maximal
circular runs of differing positions -- ``block_decomposition`` computes
both sides.

``scan_minima`` is the independent check on every closed-form distance in
:mod:`paircodes.theory`.  Codeword number c (its counter) takes the base-p
digits of c, least significant first, as coefficients of the basis rows.
The scan covers counters 1..p^dim - 1 when they fit the budget
("exhaustive"), else 1..budget, an upper bound; ``scanned`` is the last.

The kernel only adds: a low table holds every combination of the first h
basis rows (p^h <= ``_BLOCK`` words), and a block of p^h consecutive
counters is that table plus one word.  Words take one of two forms,
chosen by p alone.  At odd p a word is one unsigned integer per GF(p)
coordinate, brought back into [0, p) after each addition by one
conditional subtract (unsigned words - p wraps above words when
words < p): about |C| * N * d / (p-1) additions.  Its support is one byte
per position and its pair support that byte OR the next one's, both
counted in the narrowest unsigned integer that holds N: about 2N byte ORs
and adds per word.  At p = 2 a word is d digit planes of ceil(N/64)
uint64 lanes, adding is XOR, and the support and pair support are a few
OR and shift operations on the lanes, weighed by counting bits: about
|C| * d * ceil(N/64) word operations.
Scaling a word by a unit keeps its support, and a counter with leading
base-p digit a != 1 names a times a smaller counter with leading digit 1.
So the low table is weighed whole, as one block, and past it only the
counters with leading digit 1 are visited (one in p-1): the minima, and
the first counter attaining each, are those of the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import DEFAULT_BUDGET, ConstacyclicCode, check_budget
from .errors import DegenerateInput, LengthTooShort, VerificationMismatch
from .quotient import QPoly


def _as_symbols(word) -> Sequence:
    if isinstance(word, QPoly):
        return word.coeffs
    return tuple(word)


def pair_vector(word) -> tuple[tuple, ...]:
    """The circular sequence of overlapping symbol pairs."""
    xs = _as_symbols(word)
    n = len(xs)
    if n < 2:
        raise LengthTooShort("pair reads need length >= 2")
    return tuple((xs[i], xs[(i + 1) % n]) for i in range(n))


def hamming_weight(word) -> int:
    xs = _as_symbols(word)
    return sum(1 for x in xs if x != 0)


def pair_weight(word) -> int:
    return sum(1 for a, b in pair_vector(word) if a != 0 or b != 0)


def hamming_distance(x, y) -> int:
    xs, ys = _as_symbols(x), _as_symbols(y)
    if len(xs) != len(ys):
        raise LengthTooShort("words must have equal length")
    return sum(1 for a, b in zip(xs, ys) if a != b)


def pair_distance(x, y) -> int:
    """Number of positions where the pair reads of x and y differ."""
    xs, ys = _as_symbols(x), _as_symbols(y)
    if len(xs) != len(ys):
        raise LengthTooShort("words must have equal length")
    return sum(1 for a, b in zip(pair_vector(xs), pair_vector(ys)) if a != b)


def block_decomposition(x, y) -> tuple[int, int, int]:
    """(d_H, L, d_sp) for two words differing in some but not all positions.

    L counts the maximal circular runs of differing positions; the returned
    d_sp is computed directly from the pair reads and always equals d_H + L.
    """
    xs, ys = _as_symbols(x), _as_symbols(y)
    if len(xs) != len(ys):
        raise LengthTooShort("words must have equal length")
    n = len(xs)
    if n < 2:
        raise LengthTooShort("pair reads need length >= 2")
    diff = [a != b for a, b in zip(xs, ys)]
    d_h = sum(diff)
    if d_h == 0 or d_h == n:
        raise DegenerateInput(
            "block decomposition needs 0 < d_H < N")
    blocks = sum(1 for i in range(n) if diff[i] and not diff[i - 1])
    d_sp = pair_distance(xs, ys)
    if d_sp != d_h + blocks:
        raise VerificationMismatch(
            f"pair distance {d_sp} != {d_h} + {blocks} blocks")
    return d_h, blocks, d_sp


@dataclass
class DistanceReport:
    """Outcome of a minimum-distance computation.

    ``method`` is "exhaustive" when every nonzero codeword was inspected
    and "upper-bound" when only a budget-limited prefix was.  ``witness``
    is the first codeword (in enumeration order) attaining the reported
    minimum; d_H and L describe that witness (L only when 0 < d_H < N).
    """
    d_sp: int
    d_H: int | None = None
    L: int | None = None
    method: str = "exhaustive"
    witness: QPoly | None = None

    def to_dict(self) -> dict:
        return {
            "d_sp": self.d_sp,
            "d_H": self.d_H,
            "L": self.L,
            "method": self.method,
            "witness": None if self.witness is None else repr(self.witness),
        }


# Most words in the low table, hence in a block; it always spans one digit.
_BLOCK = 1 << 13


class _Symbols:
    """The words of odd p (any p fits): one unsigned integer per GF(p)
    coordinate, on the narrowest integers that hold 2(p-1).  A sum of two
    digits is brought back into [0, p) by one conditional subtract
    (unsigned x - p wraps above x when x < p), so the rows are the basis
    reduced mod p.  The support is one byte per position, and the weights
    are counted in `acc`, the narrowest unsigned integer that holds N."""

    def __init__(self, code: ConstacyclicCode):
        self.code, self.p = code, code.ring.p
        self.N, self.d = code.ring.N, code.ring.base.gfp_dim
        self.dtype = np.min_scalar_type(2 * (self.p - 1))
        self.acc = np.min_scalar_type(self.N)
        self.rows = (code.basis % self.p).astype(self.dtype)

    def add(self, words, word, out=None):
        out = np.add(words, word, out=out)
        return np.minimum(out, out - self.p, out=out)

    def word(self, counter: int) -> np.ndarray:
        return self.code.coords_at(counter).astype(self.dtype)

    def weights(self, words):
        """Pair and Hamming weights of the columns of `words`."""
        mask = (words != 0 if self.d == 1 else
                words.reshape(self.N, self.d, -1).any(axis=1)).view(np.uint8)
        pair = mask.copy()
        pair[:-1] |= mask[1:]
        pair[-1] |= mask[0]
        return (np.add.reduce(pair, axis=0, dtype=self.acc),
                np.add.reduce(mask, axis=0, dtype=self.acc))


class _Planes:
    """The words of p = 2: d digit planes of ceil(N/64) uint64 lanes, bit i
    of plane e being digit e of position i, and adding is XOR.  The support
    is the OR of the planes; the pair support is the support OR the
    support rotated down one position (bit 0 of each lane moves to bit 63
    of the lane before, position 0 to position N-1)."""

    def __init__(self, code: ConstacyclicCode):
        self.code, self.p = code, 2
        N, d = code.ring.N, code.ring.base.gfp_dim
        self.lanes, self.wrap = -(-N // 64), (N - 1) % 64
        self.acc = np.min_scalar_type(N)
        bits = np.zeros((code.dim_p, d, 64 * self.lanes), dtype=np.uint8)
        bits[:, :, :N] = code.basis.reshape(-1, N, d).transpose(0, 2, 1) & 1
        self.rows = np.packbits(bits, axis=-1, bitorder="little") \
            .view("<u8").reshape(code.dim_p, d * self.lanes)

    def add(self, words, word, out=None):
        return np.bitwise_xor(words, word, out)

    def word(self, counter: int) -> np.ndarray:
        """XOR of the rows named by the bits of `counter`."""
        bits = [t for t, b in enumerate(reversed(bin(counter))) if b == "1"]
        return np.bitwise_xor.reduce(self.rows[bits], axis=0)

    def weights(self, words):
        """Pair and Hamming weights of the columns of `words`."""
        planes = words.reshape(-1, self.lanes, words.shape[1])
        support = planes[0]
        for plane in planes[1:]:
            support = support | plane
        pair = support >> 1
        if self.lanes > 1:
            pair[:-1] |= support[1:] << 63
        pair[-1] |= (support[0] & 1) << self.wrap
        pair |= support
        return self._count(pair), self._count(support)

    def _count(self, lanes):
        """Set bits per column, uint8 per lane, summed over the lanes in the
        narrowest unsigned integer that holds N.  numpy reduces over a short
        leading axis slowly, so one lane is read as it is."""
        bits = np.bitwise_count(lanes)
        return bits[0] if self.lanes == 1 else \
            np.add.reduce(bits, axis=0, dtype=self.acc)


def _low_table(form, h: int) -> np.ndarray:
    """Column c is codeword c for c < p^h, built by additions."""
    p = form.p
    low = np.zeros((form.rows.shape[1], p ** h), dtype=form.rows.dtype)
    for t, row in enumerate(form.rows[:h]):
        size = p ** t
        for a in range(1, p):
            form.add(low[:, (a - 1) * size:a * size], row[:, None],
                     low[:, a * size:(a + 1) * size])
    return low


def _blocks(form, low: np.ndarray, last: int):
    """(first counter, words): the low table's counters from 1 up to last
    in one block, then the counters p^j..2p^j-1 up to last, p^j >= span."""
    p, span = form.p, low.shape[1]
    if last:
        yield 1, low[:, 1:min(span, last + 1)]
    lead = span
    while lead <= last:
        stop = min(2 * lead, last + 1)
        for first in range(lead, stop, span):
            yield first, form.add(low[:, :min(span, stop - first)],
                                  form.word(first)[:, None])
        lead *= p


def scan_minima(code: ConstacyclicCode, budget: int = DEFAULT_BUDGET) -> dict:
    """Minimum pair and Hamming weights over a prefix of the counters.

    Returns the minima, the first counter attaining each, whether the
    prefix is every nonzero codeword, and its last counter.  The zero code
    yields minima of None.  The result depends only on the basis and the
    budget; nothing is kept between calls.
    """
    check_budget(budget)
    return _scan((_Planes if code.ring.p == 2 else _Symbols)(code), budget)


def _scan(form, budget: int) -> dict:
    """`scan_minima` of the basis whose words `form` holds."""
    code, p = form.code, form.p
    dim, total = code.dim_p, code.size
    exhaustive = total <= budget
    last = total - 1 if exhaustive else budget
    out = {"min_pair": None, "pair_at": None,
           "min_hamming": None, "hamming_at": None,
           "exhaustive": exhaustive, "scanned": last}
    h = 1
    while h < dim and p ** h <= last and p ** (h + 1) <= _BLOCK:
        h += 1
    for first, words in _blocks(form, _low_table(form, h), last):
        for key_min, key_at, wts in zip(("min_pair", "min_hamming"),
                                        ("pair_at", "hamming_at"),
                                        form.weights(words)):
            i = int(np.argmin(wts))
            if out[key_min] is None or wts[i] < out[key_min]:
                out[key_min] = int(wts[i])
                out[key_at] = first + i
    return out


def min_distance_brute(code: ConstacyclicCode,
                       budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Minimum pair distance by enumeration.

    Linear codes make minimum distance equal minimum nonzero weight, so the
    scan walks codewords, not codeword pairs.  Exceeding the budget degrades
    the answer to an upper bound (never a wrong exact claim).  The zero
    code reports distance 0.  The witness is weighed once, here, and a
    weight that differs from the scan's minimum raises VerificationMismatch.
    """
    check_budget(budget)
    if code.dim_p == 0:
        return DistanceReport(d_sp=0, d_H=0, L=None,
                              method="exhaustive", witness=None)
    res = scan_minima(code, budget)
    w = code.word_at(res["pair_at"])
    d_h, L = hamming_weight(w), None
    if d_h < code.ring.N:           # a nonzero codeword has d_h > 0
        _, L, d_p = block_decomposition(w, code.ring.zero())
    else:
        d_p = pair_weight(w)
    if d_p != res["min_pair"]:
        raise VerificationMismatch(
            f"the scan's minimum pair weight {res['min_pair']} != {d_p}, "
            "the pair weight of its witness")
    return DistanceReport(
        d_sp=d_p,
        d_H=d_h,
        L=L,
        method="exhaustive" if res["exhaustive"] else "upper-bound",
        witness=w,
    )
