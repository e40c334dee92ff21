"""Orthonormal Hermitian product bases and coordinate maps.

For a space with factor dims ``(d_1, ..., d_L)`` the basis is the tensor
product of per-factor generalized Gell-Mann bases, identity-first: element 0
of each factor is ``I/sqrt(d)``, so a product element is "identity on factor
k" iff its per-factor index is 0 there.  Coordinates of Hermitian matrices
in this basis are real, and the coordinate map is an isometry for the
Frobenius inner product.

Every basis element has at most one nonzero entry per row, so ``B_a F`` is a
row gather of F; ``sandwich_gram`` builds the pin Gram that way.

On several factors, element ``(a, b)`` is ``A_a (x) C_b`` over a split of the
factor list into two halves, so ``matrices`` and ``coords_many`` are two dense
GEMMs against the half stacks (``D_A^4 + D_B^4 <= D^4/8`` complex entries,
``D^2 (D_A^2 + D_B^2)`` flops per map).  A single factor of dimension d <= 8
keeps its own dense stack; a larger one, such as a high-rank gauge, gathers
the p<q pairs and transforms the diagonal, ``O(d^2)`` per matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

def _diag_transform(d: int) -> np.ndarray:
    """Orthogonal (d, d): row j is the diagonal of the j-th diagonal element
    of the factor basis (I/sqrt(d), then the traceless ones)."""
    k, j = np.arange(d)[:, None], np.arange(d)[None, :]
    w = np.where(j < k, 1.0, np.where(j == k, -k, 0.0)) / np.sqrt(np.maximum(k * (k + 1), 1))
    w[0] = 1.0 / np.sqrt(d)
    return w


def _factor_rows(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row map of the Gell-Mann basis of C^{d x d}: ``B_a[r, cols[a, r]] =
    vals[a, r]`` (0 on empty rows).  Order: I/sqrt(d); for each p<q (lex)
    the symmetric then antisymmetric element; the d-1 traceless diagonal ones.
    """
    p, q = np.triu_indices(d, 1)
    sym = 1 + 2 * np.arange(len(p))
    s = 1.0 / np.sqrt(2.0)
    cols = np.zeros((d * d, d), dtype=np.int64)
    vals = np.zeros((d * d, d), dtype=complex)
    for a in (sym, sym + 1):
        cols[a, p], cols[a, q] = q, p
    vals[sym, p], vals[sym, q] = s, s
    vals[sym + 1, p], vals[sym + 1, q] = -1j * s, 1j * s
    w, diag = _diag_transform(d), np.r_[0, d * (d - 1) + 1 : d * d]
    cols[diag] = np.where(w != 0, np.arange(d), 0)
    vals[diag] = w
    return cols, vals


def _split(dims: tuple[int, ...]) -> int:
    """Split point 1 <= k < L of the factor list with the least D_A^4 + D_B^4."""
    side = math.prod(dims)
    return min(
        range(1, len(dims)),
        key=lambda k: math.prod(dims[:k]) ** 4 + (side // math.prod(dims[:k])) ** 4,
    )


def congruence_many(z: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Z @ M_a @ Z^dag for a stack (k, n, n) of matrices, as two flat GEMMs."""
    k, n, _ = ms.shape
    y = (z @ ms.transpose(1, 0, 2).reshape(n, k * n)).reshape(n, k, n)
    y = y.transpose(1, 0, 2).reshape(k * n, n) @ z.conj().T
    return y.reshape(k, n, n)


class ProductBasis:
    """Product basis over factor dims, with padded row-map representation.

    ``cols[a, r]`` / ``vals[a, r]`` encode basis element a as
    ``B_a[r, cols[a, r]] = vals[a, r]`` (vals 0 where the row is empty).
    """

    def __init__(self, dims: tuple[int, ...]):
        self.dims = tuple(int(d) for d in dims)
        self.side = int(np.prod(self.dims, dtype=np.int64)) if self.dims else 1
        self.n_factors = len(self.dims)
        # start from the trivial one-element basis on a 1-dim space
        cols = np.zeros((1, 1), dtype=np.int64)
        vals = np.ones((1, 1), dtype=complex)
        for d in self.dims:
            fcols, fvals = _factor_rows(d)
            # combine: new index (a_old, a_f), new row (r_old, r_f)
            n = cols.shape[0] * d * d
            cols = (cols[:, None, :, None] * d + fcols[None, :, None, :]).reshape(n, -1)
            vals = (vals[:, None, :, None] * fvals[None, :, None, :]).reshape(n, -1)
        self.cols, self.vals, self.n = cols, vals, cols.shape[0]
        assert self.n == self.side * self.side
        # (n, L) per-factor basis index, in the lex order of the combination
        sizes = [d * d for d in self.dims]
        self.patterns = np.indices(sizes, dtype=np.int16).reshape(self.n_factors, self.n).T
        self.is_identity = self.patterns == 0  # (n, L)
        if self.n_factors < 2 and self.side > 8:
            # Gell-Mann structure: pair j = (p, q) has coordinates 1 + 2j and
            # 2 + 2j, the real and imaginary part of sqrt(2) M[q, p] for Hermitian M
            d, s = self.side, 1.0 / np.sqrt(2.0)
            p, q = np.triu_indices(d, 1)
            a = 1 + 2 * np.arange(len(p))
            up, lo = 2 * (p * d + q), 2 * (q * d + p)  # real slots of (p, q), (q, p)
            self._src, self._sign = np.zeros(2 * self.n, dtype=np.int64), np.zeros(2 * self.n)
            for slot, src, sign in ((up, a, s), (up + 1, a + 1, -s), (lo, a, s), (lo + 1, a + 1, s)):
                self._src[slot], self._sign[slot] = src, sign
            # flat positions of the upper and lower pair entries, then the diagonal
            self._pick = np.concatenate([p * d + q, q * d + p, np.arange(d) * (d + 1)])
            self._diag, self._dd = np.r_[0, d * (d - 1) + 1 : d * d], 2 * np.arange(d) * (d + 1)
            self._w, self._b = _diag_transform(d), None
            return
        # dense half stacks, flattened: (n_A, D_A^2) complex and, as real
        # (re, im) pairs, (n_B, 2 D_B^2); a small single factor is its own
        # B half and has no A half
        if self.n_factors < 2:
            self._a, hb = None, self
        else:
            k = _split(self.dims)
            ha, hb = product_basis(self.dims[:k]), product_basis(self.dims[k:])
            self._a = ha.elements(np.arange(ha.n)).reshape(ha.n, -1)
            self._a_conj = self._a.conj()
        self._nb, self._db = hb.n, hb.side
        self._na, self._da = self.n // hb.n, self.side // hb.side
        self._b = hb.elements(np.arange(hb.n)).reshape(hb.n, -1).view(np.float64)

    # -- coordinate maps ---------------------------------------------------

    def coords(self, m: np.ndarray) -> np.ndarray:
        """Real coordinates of a (nearly) Hermitian matrix."""
        return self.coords_many(np.asarray(m)[None])[0]

    def coords_many(self, ms: np.ndarray) -> np.ndarray:
        """Coordinates of a stack (k, side, side) -> (k, n): Re Tr(B_a^dag M)."""
        ms = np.asarray(ms, dtype=complex)
        k = ms.shape[0]
        if self._b is None:
            # (lower + conj(upper)) / sqrt(2) of pair j is coordinate 1 + 2j
            # plus i times coordinate 2 + 2j
            m = (self.n - self.side) // 2
            t = np.take(ms.reshape(k, -1), self._pick, axis=1)
            off = ((t[:, m : 2 * m] + t[:, :m].conj()) * (1.0 / np.sqrt(2.0))).view(np.float64)
            dv = t[:, 2 * m :].real @ self._w.T
            return np.concatenate([dv[:, :1], off, dv[:, 1:]], axis=1)
        da, db = self._da, self._db
        if self._a is None:
            t = ms.reshape(k, -1)
        else:
            # contract the A half: (k, D_B^2, D_A^2) @ conj(A)^T -> (k, n_A, D_B^2)
            t = ms.reshape(k, da, db, da, db).transpose(0, 2, 4, 1, 3)
            t = (t.reshape(k * db * db, da * da) @ self._a_conj.T).reshape(k, db * db, -1)
            t = np.ascontiguousarray(t.transpose(0, 2, 1))
        # the real part of the B contraction is one real GEMM on (re, im) pairs
        return (t.reshape(-1, db * db).view(np.float64) @ self._b.T).reshape(k, self.n)

    def matrix(self, c: np.ndarray) -> np.ndarray:
        return self.matrices(np.asarray(c)[None])[0]

    def matrices(self, cs: np.ndarray) -> np.ndarray:
        """(m, n) coordinate rows -> (m, side, side) matrices."""
        cs = np.asarray(cs, dtype=float)
        k = cs.shape[0]
        if self._b is None:
            out = np.take(cs, self._src, axis=1) * self._sign
            out[:, self._dd] = np.take(cs, self._diag, axis=1) @ self._w
            return out.view(complex).reshape(k, self.side, self.side)
        da, db = self._da, self._db
        # real coefficients against (re, im) pairs of the B stack: (k n_A, D_B^2)
        t = (cs.reshape(-1, self._nb) @ self._b).view(complex)
        if self._a is None:
            return t.reshape(k, self.side, self.side)
        # contract the A half: (k, D_B^2, n_A) @ A -> (k, D_B^2, D_A^2)
        t = t.reshape(k, self._na, db * db).transpose(0, 2, 1) @ self._a
        t = t.reshape(k, db, db, da, da).transpose(0, 3, 1, 4, 2)
        return t.reshape(k, self.side, self.side)

    def elements(self, idx: np.ndarray) -> np.ndarray:
        """Dense stack of basis elements for the given indices."""
        idx = np.asarray(idx)
        out = np.zeros((len(idx), self.side, self.side), dtype=complex)
        out[np.arange(len(idx))[:, None], np.arange(self.side), self.cols[idx]] = self.vals[idx]
        return out

    # -- solver helpers ----------------------------------------------------

    def sandwich_coords_many(self, z: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Coordinates of Z @ matrix(c) @ Z^dag for each row c of cs."""
        return self.coords_many(congruence_many(z, self.matrices(cs)))

    def sandwich_gram(self, f: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gram matrix G[a,b] = <F^dag B_a F, F^dag B_b F> over the index subset.

        For any factor F with F F^dag = M (a Cholesky factor or M^{1/2}),
        G[a,b] = Tr(B_a M B_b M): the matrix of X -> M X M restricted to the
        span of the selected elements.
        """
        fh = f.conj().T
        k, chunk = len(idx), 512  # elements per batch bound the complex temporaries
        D = self.side
        yr = np.empty((k, D * D))
        yi = np.empty((k, D * D))
        for lo in range(0, k, chunk):
            hi = min(k, lo + chunk)
            sel = idx[lo:hi]
            # S_a = B_a @ F: row r of S_a is vals[a, r] * F[cols[a, r], :]
            s = self.vals[sel][:, :, None] * f[self.cols[sel], :]
            y = np.matmul(fh[None, :, :], s)
            yf = y.reshape(hi - lo, D * D)
            yr[lo:hi] = yf.real
            yi[lo:hi] = yf.imag
        return yr @ yr.T + yi @ yi.T


@lru_cache(maxsize=None)
def product_basis(dims: tuple[int, ...]) -> ProductBasis:
    return ProductBasis(dims)
