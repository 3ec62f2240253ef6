"""Symbol-pair reads, weights, distances, and the exhaustive oracle.

The pair read of a word (x_0, ..., x_{N-1}) is the length-N sequence of
overlapping pairs ((x_0,x_1), (x_1,x_2), ..., (x_{N-1},x_0)).  Pair weight
counts positions whose pair is not (0,0); pair distance between two words
counts positions where their pair reads differ.  For 0 < d_H(x,y) < N the
pair distance decomposes as d_H + L where L is the number of maximal
circular runs of differing positions -- ``block_decomposition`` computes
both sides.

``min_distance_brute`` is the independent check on every closed-form
distance in :mod:`paircodes.theory`: it walks all p^dim codewords (chunked
through numpy) when that fits the budget, and degrades to a sampled upper
bound otherwise.
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
    xs = _as_symbols(word)
    n = len(xs)
    if n < 2:
        raise LengthTooShort("pair reads need length >= 2")
    return sum(1 for i in range(n)
               if xs[i] != 0 or xs[(i + 1) % n] != 0)


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
    n = len(xs)
    if n < 2:
        raise LengthTooShort("pair reads need length >= 2")
    return sum(1 for i in range(n)
               if xs[i] != ys[i] or xs[(i + 1) % n] != ys[(i + 1) % n])


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

    ``method`` is "exhaustive" when every nonzero codeword was inspected,
    "upper-bound" when only a budget-limited prefix was, and "closed-form"
    when no enumeration happened.  ``witness`` is the first codeword (in
    enumeration order) attaining the reported minimum; d_H and L describe
    that witness (L only when 0 < d_H < N).
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


def _digit_width(stop: int, dim: int, p: int) -> int:
    """How many low base-p digits (at most `dim`) can be nonzero below stop.

    Every radix p^t below that width is below stop, so none overflows int64.
    """
    width = 0
    while width < dim and p ** width < stop:
        width += 1
    return width


def _digit_block(start: int, stop: int, width: int, p: int) -> np.ndarray:
    counters = np.arange(start, stop, dtype=np.int64)
    radix = p ** np.arange(width, dtype=np.int64)
    return (counters[:, None] // radix[None, :]) % p


def scan_minima(code: ConstacyclicCode, budget: int = DEFAULT_BUDGET,
                chunk: int = 1 << 14) -> dict:
    """One pass over (up to `budget`) nonzero codewords, tracking both minima.

    Returns a dict with the minimum pair and Hamming weights, the counter
    index of the first word attaining each, and whether the pass was
    exhaustive.  The zero code yields minima of None.
    """
    check_budget(budget)
    ring = code.ring
    p, N = ring.p, ring.N
    sdim = ring.base.gfp_dim
    total = code.size
    exhaustive = total <= budget
    last = total - 1 if exhaustive else budget
    out = {"min_pair": None, "pair_at": None,
           "min_hamming": None, "hamming_at": None,
           "exhaustive": exhaustive, "scanned": last}
    if code.dim_p == 0:
        out["exhaustive"] = True
        out["scanned"] = 0
        return out
    width = _digit_width(last + 1, code.dim_p, p)
    basis_f = code.basis[:width].astype(np.float64)
    start = 1
    while start <= last:
        stop = min(start + chunk, last + 1)
        digits = _digit_block(start, stop, width, p).astype(np.float64)
        words = digits @ basis_f
        words %= p
        mask = words.reshape(stop - start, N, sdim).any(axis=2)
        wt_h = mask.sum(axis=1)
        pair_mask = mask | np.roll(mask, -1, axis=1)
        wt_p = pair_mask.sum(axis=1)
        for key_min, key_at, wts in (("min_pair", "pair_at", wt_p),
                                     ("min_hamming", "hamming_at", wt_h)):
            lo = int(wts.min())
            if out[key_min] is None or lo < out[key_min]:
                out[key_min] = lo
                out[key_at] = start + int(np.argmax(wts == lo))
        start = stop
    return out


def _word_at(code: ConstacyclicCode, counter: int) -> QPoly:
    p = code.ring.p
    width = _digit_width(counter + 1, code.dim_p, p)
    digits = _digit_block(counter, counter + 1, width, p)
    vec = (digits @ code.basis[:width])[0] % p
    return code.coords_to_word(vec)


def min_distance_brute(code: ConstacyclicCode, metric: str = "pair",
                       budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Minimum pair (or Hamming) distance by enumeration.

    Linear codes make minimum distance equal minimum nonzero weight, so the
    scan walks codewords, not codeword pairs.  Exceeding the budget degrades
    the answer to an upper bound (never a wrong exact claim).  The zero
    code reports distance 0.
    """
    if metric not in ("pair", "hamming"):
        raise ValueError(f"unknown metric {metric!r}")
    check_budget(budget)
    if code.dim_p == 0:
        return DistanceReport(d_sp=0, d_H=0, L=None,
                              method="exhaustive", witness=None)
    res = scan_minima(code, budget)
    at = res["pair_at"] if metric == "pair" else res["hamming_at"]
    w = _word_at(code, at)
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
