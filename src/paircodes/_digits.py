"""The digit layer that `codes.build_code` and its reference
`codes.ideal_code` both compute with.

A coefficient's GF(p) coordinates are the base-p digits of its encoding,
d of them: its coordinates over the field (d = m), and the a-part's then
the u-part's over GF(p^m) + u GF(p^m) (d = 2m).
"""

from __future__ import annotations

import numpy as np

from .quotient import QPoly, QuotientRing


class _Digits:
    """GF(p) digit arithmetic in one quotient, with no Python work per
    coefficient.  An element is the (N, d) array of the GF(p) digits of
    its coefficients (`digits`).  A multiplier f is the (K, d) array
    of the digits of its first K coefficients; its u-digits are zero when
    f lies in the field quotient.  Multiplying a coefficient by a field
    element c is the m x m matrix D(c) = sum_i c_i D(y^i) on each group of
    m digits, and multiplying by x^t moves the positions and multiplies
    the t that wrap by lam.  It holds plain data, never the ring, so a
    ring can remember it (`_digits_of`).
    """

    def __init__(self, ring: QuotientRing):
        field, p, m, d = ring.field, ring.p, ring.m, ring.base.gfp_dim
        self.p, self.N, self.m, self.d = p, ring.N, m, d
        self.place = p ** np.arange(d, dtype=np.int64)
        self.steps = np.arange(ring.N + 1)
        # Column t*d + e holds digit e of position t.
        self.cols = self.steps[:ring.N, None] * d + np.arange(m)
        ys = self.place[:m].tolist()
        table = self.digits([field.mul(a, b) for b in ys for a in ys]
                            + [ring.base.mul(ring.lam, e)
                               for e in self.place.tolist()])
        # Row i is D(y^i), flattened: row r of D(y^i) holds the digits of
        # y^r * y^i.  Then the d x d matrix of multiplication by lam.
        self.ys_mats = table[:m * m, :m].reshape(m, m * m)
        self.lam = table[m * m:]

    def digits(self, values) -> np.ndarray:
        """GF(p) coordinates of encoded coefficients, on a new last axis of
        length d: their base-p digits, least significant first.  A field
        element's digits are its coordinates, and a + q*b over the
        two-component ring gives the digits of a, then those of b."""
        return np.asarray(values, dtype=np.int64)[..., None] \
            // self.place % self.p

    def values(self, digits) -> np.ndarray:
        """Encoded coefficients of a coordinate row, d digits per
        coefficient: the inverse of `digits`."""
        return np.asarray(digits, dtype=np.int64).reshape(-1, self.d) \
            @ self.place

    def of(self, *fs: QPoly) -> np.ndarray:
        return self.digits([f.coeffs for f in fs])

    def mats(self, F: np.ndarray) -> np.ndarray:
        """D(c) for each c with field digits F (..., m)."""
        m = self.m
        return (F @ self.ys_mats).reshape(F.shape[:-1] + (m, m))

    def shifts(self, X: np.ndarray, count: int) -> np.ndarray:
        """x^t X for t < count <= N + 1, as (..., count, N, d): positions
        N - t .. 2N - t - 1 of [lam X, X]."""
        N, steps = self.N, self.steps
        both = np.concatenate([X @ self.lam % self.p, X], axis=-2)
        return np.take(both, N - steps[:count, None] + steps[:N], axis=-2)

    def times(self, X: np.ndarray, F: np.ndarray) -> np.ndarray:
        """sum_i f_oi X_i for each output o of each of B entries: X stacks
        k elements per entry (B, k, N, d) and F their multipliers
        (B, o, k, K, d).  One batched matrix product sums D(f_oit)[in, out]
        times digit `in` of each group of x^t X_i over (i, t, in).  With
        f = f_a + u f_u, the products by f_u are more outputs of that
        product, then multiplied by u."""
        m, N, d = self.m, self.N, self.d
        B, o, k, K = F.shape[:4]
        F = np.concatenate([F[..., :m], F[..., m:]], axis=1) \
            if F[..., m:].any() else F[..., :m]
        S = X[:, :, None] if K == 1 else self.shifts(X, K)
        S = S.reshape(B, k, K, N, d // m, m).transpose(0, 1, 2, 5, 3, 4)
        D = self.mats(F).transpose(0, 1, 5, 2, 3, 4).reshape(B, -1, k * K * m)
        Y = (D @ S.reshape(B, k * K * m, -1)).reshape(B, -1, m, N, d // m)
        Y = Y.transpose(0, 1, 3, 4, 2).reshape(B, -1, N, d)
        if len(Y[0]) > o:
            Y = Y[:, :o] + self.times_u(Y[:, o:])
        return Y % self.p

    def times_u(self, X: np.ndarray) -> np.ndarray:
        Y = np.zeros_like(X)
        Y[..., self.m:] = X[..., :self.m]
        return Y

    def basis_multiples(self, S: np.ndarray) -> np.ndarray:
        """The rows y^e S[..., t] for each t and e < m, in that order, over
        the leading axes of S (..., count, N, d)."""
        *lead, count, N, d = S.shape
        m = self.m
        if m > 1:
            S = np.einsum("...tnjk,ekl->...tenjl",
                          S.reshape(*lead, count, N, d // m, m),
                          self.mats(np.eye(m, dtype=np.int64)))
        return S.reshape(*lead, count * m, N * d)

    def scale(self, X: np.ndarray, cs) -> np.ndarray:
        """X[i] times the field element cs[i], for each i."""
        D = self.mats(self.digits(cs)[:, :self.m])
        return (X.reshape(len(X), -1, self.m) @ D).reshape(X.shape) % self.p

    def toeplitz(self, series: np.ndarray) -> np.ndarray:
        """The upper block-Toeplitz matrix with D(series[j]) on its j-th
        block diagonal, one block row per entry of `series` (count, m)."""
        count, m = series.shape
        at = self.steps[:count]
        T = np.take(self.mats(np.concatenate([np.zeros_like(series), series])),
                    count + at - at[:, None], axis=0)
        return T.transpose(0, 2, 1, 3).reshape(count * m, count * m)


def _digits_of(ring: QuotientRing) -> _Digits:
    return ring.remember(("_digits._Digits",), lambda: _Digits(ring))
