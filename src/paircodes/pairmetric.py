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
counters is that table plus one word, brought back into [0, p) by one
conditional subtract (unsigned words - p wraps above words when words < p).
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


def _low_table(code: ConstacyclicCode, h: int, dtype) -> np.ndarray:
    """Column c is codeword c for c < p^h, built by additions."""
    p = code.ring.p
    low = np.zeros((code.ncols, p ** h), dtype=dtype)
    for t, row in enumerate(code.basis[:h].astype(dtype)):
        size = p ** t
        for a in range(1, p):
            block = low[:, a * size:(a + 1) * size]
            np.add(low[:, (a - 1) * size:a * size], row[:, None], out=block)
            np.minimum(block, block - p, out=block)
    return low


def _blocks(code: ConstacyclicCode, low: np.ndarray, last: int):
    """(first counter, words): the low table's counters from 1 up to last
    in one block, then the counters p^j..2p^j-1 up to last, p^j >= span."""
    p, span = code.ring.p, low.shape[1]
    if last:
        yield 1, low[:, 1:min(span, last + 1)]
    lead = span
    while lead <= last:
        stop = min(2 * lead, last + 1)
        for first in range(lead, stop, span):
            words = (low[:, :min(span, stop - first)]
                     + code.coords_at(first).astype(low.dtype)[:, None])
            yield first, np.minimum(words, words - p, out=words)
        lead *= p


def scan_minima(code: ConstacyclicCode, budget: int = DEFAULT_BUDGET) -> dict:
    """Minimum pair and Hamming weights over a prefix of the counters.

    Returns the minima, the first counter attaining each, whether the
    prefix is every nonzero codeword, and its last counter.  The zero code
    yields minima of None.

    The result depends only on the basis and the budget, so the ring
    remembers it per (basis, budget); every call gets a fresh dict.
    """
    check_budget(budget)
    key = ("pairmetric.scan_minima", code.basis.tobytes(), budget)
    return dict(code.ring.remember(key, lambda: _scan(code, budget)))


def _scan(code: ConstacyclicCode, budget: int) -> dict:
    """`scan_minima` of a basis the ring has not scanned at this budget."""
    ring = code.ring
    p, dim = ring.p, code.dim_p
    total = code.size
    exhaustive = total <= budget
    last = total - 1 if exhaustive else budget
    out = {"min_pair": None, "pair_at": None,
           "min_hamming": None, "hamming_at": None,
           "exhaustive": exhaustive, "scanned": last}
    h = 1
    while h < dim and p ** h <= last and p ** (h + 1) <= _BLOCK:
        h += 1
    low = _low_table(code, h, np.min_scalar_type(2 * (p - 1)))
    for first, words in _blocks(code, low, last):
        mask = words.reshape(ring.N, ring.base.gfp_dim, -1).any(axis=1)
        pair_mask = mask | np.roll(mask, -1, axis=0)
        for key_min, key_at, wts in (
                ("min_pair", "pair_at", pair_mask.sum(axis=0)),
                ("min_hamming", "hamming_at", mask.sum(axis=0))):
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
    code reports distance 0.
    """
    check_budget(budget)
    if code.dim_p == 0:
        return DistanceReport(d_sp=0, d_H=0, L=None,
                              method="exhaustive", witness=None)
    res = scan_minima(code, budget)
    w = code.word_at(res["pair_at"])
    d_h = hamming_weight(w)
    d_p = pair_weight(w)
    L = None
    if 0 < d_h < code.ring.N:
        zero = code.ring.zero()
        _, L, _ = block_decomposition(w, zero)
    return DistanceReport(
        d_sp=d_p,
        d_H=d_h,
        L=L,
        method="exhaustive" if res["exhaustive"] else "upper-bound",
        witness=w,
    )
