"""Laurent polynomials over C and determinants of matrices of them.

A polynomial is the result type of a determinant.  It is stored densely as
(lowest exponent, coefficient tuple) and normalized on construction:
coefficients whose magnitude is below TRIM_TOL relative to the largest one
are dropped, so degree bookkeeping stays exact.  The package does no
arithmetic on polynomials.  A matrix of them is one coefficient tensor.
Its determinant, of S coefficients at most, is sampled at N = C*B roots of
unity, S <= N < S + C, in C cosets of B points (a twist, a fold mod B and
one length-B FFT per coset), and interpolated by one FFT of any length, not
padded to a power of two; its coefficient errors relative to the largest
coefficient are a small multiple of machine epsilon times the condition of
the sample matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative threshold below which a coefficient counts as zero
TRIM_TOL = 1e-12
# matrix elements per coset of det samples, B * n * n <= it unless n * n > it:
# bounds the scratch arrays of LaurentMatrix.det beyond its tensor, whatever the spread
DET_BLOCK_ELEMENTS = 1 << 12


def trim_mask(c):
    """Where |c| > TRIM_TOL * max|c| along the last axis: the one rule for a nonzero
    coefficient, |c| rounded by np.hypot as abs(complex) (max_abs_coeff) rounds it."""
    mags = np.hypot(c.real, c.imag)
    return mags > TRIM_TOL * mags.max(axis=-1, keepdims=True, initial=0.0)


@dataclass(init=False, slots=True)
class LaurentPoly:
    """An element of C[t, t^-1] in normalized dense form: the type of a determinant.

    ``coeffs[k]`` is the coefficient of ``t**(low + k)``; the first and
    last stored coefficients are nonzero.  The zero polynomial is the
    empty tuple with ``low == 0``.
    """

    low: int
    coeffs: tuple

    def __init__(self, low, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        keep = trim_mask(coeffs)
        support = np.flatnonzero(keep)
        if support.size:
            i, j = support[0], support[-1] + 1
            self.low, self.coeffs = low + int(i), tuple(np.where(keep, coeffs, 0j)[i:j].tolist())
        else:
            self.low, self.coeffs = 0, ()

    @property
    def is_zero(self):
        return not self.coeffs

    def max_abs_coeff(self):
        return max(map(abs, self.coeffs), default=0.0)

    def __call__(self, z):
        """Evaluate at a nonzero complex number (Horner on the shifted part)."""
        z = complex(z)
        if self.is_zero:
            return 0j
        if z == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z**self.low


class LaurentMatrix:
    """A rows-by-cols matrix over C[t, t^-1], stored as one coefficient tensor.

    ``coef[i, j, k]`` is the coefficient of ``t**(low[i] + k)`` in entry
    (i, j): each row has one lowest exponent, and the entries are zero
    padded to a common width.  Entries are not kept normalized; a
    LaurentPoly is built, and trimmed, only when an entry is indexed.
    """

    __slots__ = ("low", "coef")

    def __init__(self, low, coef):
        """The matrix of a (rows,) lowest-exponent vector and a (rows, cols, width) tensor."""
        self.low, self.coef = np.asarray(low, dtype=np.int64), coef

    rows = property(lambda self: self.coef.shape[0])
    cols = property(lambda self: self.coef.shape[1])

    def __getitem__(self, idx):
        i, j = idx
        return LaurentPoly(int(self.low[i]), self.coef[i, j])

    def det(self):
        """Determinant by evaluation at roots of unity and FFT interpolation.

        Entries are trimmed by ``trim_mask``, bitwise as LaurentPoly trims
        them.  Each row of det spans at most its entries' exponent range, so
        det has at most S coefficients, S the sum of the row spreads plus
        one.  It is sampled at the N-th roots w**k, N = C * B, and its
        coefficients are one ``np.fft.fft`` of the samples, of any length.

        The roots are taken in C = ceil(S / max(1, DET_BLOCK_ELEMENTS // n**2))
        cosets {w**(s + q C) : q < B}, B = ceil(S / C), so S <= N < S + C.
        For coset s the tensor is twisted by w**(s*m) (m the exponent),
        folded mod B (w**(q C k B) = 1 as N = C * B), and one length-B
        ``np.fft.ifft`` along the exponents gives B sample matrices for one
        batched ``np.linalg.det``.  The rows' lowest exponents leave the
        determinant as one power of w per sample, read from the table of
        roots.  B * n**2 <= DET_BLOCK_ELEMENTS: beyond one copy of the
        trimmed tensor and the N samples, scratch memory does not grow with N.

        Accuracy: interpolation at the N-th roots is exact for any N >= S,
        so the sample count does not enter the error.  LAPACK factors each
        sample matrix backward stably and both transforms are stable at any
        length, so coefficient errors relative to max|c| of det are a small
        multiple of machine epsilon times the condition of the sample
        matrices.  The tests measure them against a 200-bit oracle on random
        matrices up to 12 x 12.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly(0, (1,))
        if n == 1:
            return self[0, 0]
        keep = trim_mask(self.coef)
        live = keep.any(axis=2)
        if not live.any(axis=1).all():
            return LaurentPoly(0, ())
        width = keep.shape[2]
        # lowest and highest nonzero exponent of every row, above self.low
        first = np.where(live, keep.argmax(axis=2), width).min(axis=1)
        last = np.where(live, width - 1 - keep[:, :, ::-1].argmax(axis=2), -1).max(axis=1)
        lo = int((self.low + first).sum())
        S = int((last - first).sum()) + 1
        C = -(-S // max(1, DET_BLOCK_ELEMENTS // (n * n)))
        B = -(-S // C)
        N = C * B
        omega = np.exp(2j * np.pi * np.arange(N) / N)

        g, h = int(first.min()), int(last.max()) + 1
        K = -(-(h - g) // B)
        # fold[k, b] holds the n x n coefficients of t**(g + k*B + b)
        fold = np.zeros((K * B, n, n), dtype=complex)
        np.copyto(fold[: h - g], self.coef[:, :, g:h].transpose(2, 0, 1),
                  where=keep[:, :, g:h].transpose(2, 0, 1))
        fold = fold.reshape(K, B, n * n)
        exps = np.arange(K * B).reshape(K, B)
        samples = np.empty(N, dtype=complex)
        for s in range(C):
            mats = np.einsum("kb,kbx->bx", omega[s * exps % N], fold).reshape(B, n, n)
            samples[s::C] = np.linalg.det(np.fft.ifft(mats, axis=0, norm="forward"))
        # det M(w) w**-lo = det(sample matrix) w**-(sum over rows of first - g)
        samples *= omega[-np.arange(N) * int((first - g).sum()) % N]
        return LaurentPoly(lo, np.fft.fft(samples) / N)
