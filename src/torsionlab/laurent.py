"""Laurent polynomials over C and determinants of matrices of them.

Polynomials are stored densely as (lowest exponent, coefficient list) and
kept normalized: after every arithmetic operation coefficients whose
magnitude is below TRIM_TOL relative to the largest one are dropped, so
degree bookkeeping stays exact.  A matrix of them is one coefficient
tensor.  Its determinant is sampled at the N-th roots of unity, one coset
of B-th roots at a time (a twist, a fold mod B and one length-B FFT per
coset), and interpolated by an FFT; its coefficient errors relative to the
largest coefficient are a small multiple of machine epsilon times the
condition of the sample matrices.
"""

from __future__ import annotations

import numpy as np

# relative threshold below which a coefficient counts as zero
TRIM_TOL = 1e-12
# matrix elements per coset of determinant sample points; bounds the scratch
# arrays of LaurentMatrix.det beyond its trimmed tensor, whatever the spread
DET_BLOCK_ELEMENTS = 1 << 12


class LaurentPoly:
    """An element of C[t, t^-1] in normalized dense form.

    ``coeffs[k]`` is the coefficient of ``t**(low + k)``; the first and
    last stored coefficients are nonzero.  The zero polynomial is the
    empty tuple with ``low == 0``.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low, coeffs):
        coeffs = [complex(c) for c in coeffs]
        mags = [abs(c) for c in coeffs]
        top = max(mags, default=0.0)
        if top > 0.0:
            coeffs = [c if abs(c) > TRIM_TOL * top else 0j for c in coeffs]
        # trim zeros at both ends
        i = 0
        while i < len(coeffs) and coeffs[i] == 0:
            i += 1
        j = len(coeffs)
        while j > i and coeffs[j - 1] == 0:
            j -= 1
        if i == j:
            object.__setattr__(self, "low", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "low", low + i)
            object.__setattr__(self, "coeffs", tuple(coeffs[i:j]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly(0, ())

    @staticmethod
    def one():
        return LaurentPoly(0, (1,))

    @staticmethod
    def const(c):
        return LaurentPoly(0, (c,))

    @staticmethod
    def t(power=1, coeff=1):
        """The monomial coeff * t**power."""
        return LaurentPoly(power, (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def high(self):
        """Highest exponent; only meaningful for nonzero polynomials."""
        return self.low + len(self.coeffs) - 1

    def coeff(self, exponent):
        k = exponent - self.low
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0j

    def max_abs_coeff(self):
        return max((abs(c) for c in self.coeffs), default=0.0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [0j] * (high - low + 1)
        for k, c in enumerate(self.coeffs):
            out[self.low - low + k] += c
        for k, c in enumerate(other.coeffs):
            out[other.low - low + k] += c
        return LaurentPoly(low, out)

    def __neg__(self):
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(self.low + other.low, out)

    def scale(self, c):
        return LaurentPoly(self.low, tuple(c * x for x in self.coeffs))

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

    # -- comparison & display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def close_to(self, other, rtol=1e-9):
        """Coefficientwise comparison relative to the larger coefficient norm."""
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1e-300)
        diff = self - other
        return diff.max_abs_coeff() <= rtol * scale

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"({c:g})*t^{self.low + k}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


class LaurentMatrix:
    """A rows-by-cols matrix over C[t, t^-1], stored as one coefficient tensor.

    ``coef[i, j, k]`` is the coefficient of ``t**(low[i] + k)`` in entry
    (i, j): each row has one lowest exponent, and the entries are zero
    padded to a common width.  Entries are not kept normalized; a
    LaurentPoly is built, and trimmed, only when an entry is indexed.
    """

    __slots__ = ("low", "coef")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        grid = [[e for e in entries[i * cols : (i + 1) * cols] if not e.is_zero]
                for i in range(rows)]
        low = [min((e.low for e in row), default=0) for row in grid]
        width = max((e.high - lw + 1 for lw, row in zip(low, grid) for e in row), default=1)
        self.low = np.array(low, dtype=np.int64)
        self.coef = np.zeros((rows, cols, width), dtype=complex)
        for k, e in enumerate(entries):
            if not e.is_zero:
                shift = e.low - low[k // cols]
                self.coef[k // cols, k % cols, shift : shift + len(e.coeffs)] = e.coeffs

    @classmethod
    def from_tensor(cls, low, coef):
        """The matrix of a (rows,) lowest-exponent vector and a (rows, cols, width) tensor."""
        m = cls.__new__(cls)
        m.low, m.coef = np.asarray(low, dtype=np.int64), coef
        return m

    @staticmethod
    def from_rows(rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = [e for row in rows_of_entries for e in row]
        return LaurentMatrix(rows, cols, flat)

    rows = property(lambda self: self.coef.shape[0])
    cols = property(lambda self: self.coef.shape[1])

    @property
    def entries(self):
        return [self[i, j] for i in range(self.rows) for j in range(self.cols)]

    def __getitem__(self, idx):
        i, j = idx
        return LaurentPoly(int(self.low[i]), self.coef[i, j].tolist())

    def eval_at(self, z):
        """Entrywise numeric evaluation, as a complex numpy array."""
        out = [[self[i, j](z) for j in range(self.cols)] for i in range(self.rows)]
        return np.array(out, dtype=complex).reshape(self.rows, self.cols)

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = LaurentPoly.zero()
                for k in range(self.cols):
                    acc = acc + self[i, k] * other[k, j]
                out.append(acc)
        return LaurentMatrix(self.rows, other.cols, out)

    def max_abs_coeff(self):
        return float(np.abs(self.coef).max(initial=0.0))

    def det(self):
        """Determinant by evaluation at roots of unity and FFT interpolation.

        Entries are trimmed by the LaurentPoly rule (|c| <= TRIM_TOL * max|c|
        of the entry counts as zero).  Each row of det spans at most its
        entries' exponent range, so det is sampled at the N-th roots w**k,
        N the least power of two above the sum of the row spreads, and its
        coefficients are one ``np.fft.fft`` of the samples.

        The roots are taken in N/B cosets {w**(s + q N/B) : q < B}.  For
        coset s the tensor is twisted by w**(s*m) (m the exponent), folded
        mod B, and one length-B ``np.fft.ifft`` along the exponents gives B
        sample matrices for one batched ``np.linalg.det``.  The rows' lowest
        exponents leave the determinant as one power of w per sample, read
        from the table of roots.  B is the largest power of two with
        B * rows * cols <= DET_BLOCK_ELEMENTS: beyond one copy of the trimmed
        tensor and the N samples, scratch memory does not grow with N.

        Accuracy: LAPACK factors each sample matrix backward stably and both
        transforms are stable, so coefficient errors relative to max|c| of
        det are a small multiple of machine epsilon times the condition of
        the sample matrices.  The tests measure them against a 200-bit
        oracle on random matrices up to 8 x 8.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly.one()
        if n == 1:
            return self[0, 0]
        keep = np.abs(self.coef)
        keep = keep > TRIM_TOL * keep.max(axis=2, keepdims=True)
        live = keep.any(axis=2)
        if not live.any(axis=1).all():
            return LaurentPoly.zero()
        width = keep.shape[2]
        # lowest and highest nonzero exponent of every row, above self.low
        first = np.where(live, keep.argmax(axis=2), width).min(axis=1)
        last = np.where(live, width - 1 - keep[:, :, ::-1].argmax(axis=2), -1).max(axis=1)
        lo = int((self.low + first).sum())
        N = 1 << int((last - first).sum()).bit_length()
        omega = np.exp(2j * np.pi * np.arange(N) / N)

        g, h = int(first.min()), int(last.max()) + 1
        B = min(N, 1 << max(0, (DET_BLOCK_ELEMENTS // (n * n)).bit_length() - 1))
        K = -(-(h - g) // B)
        # fold[k, b] holds the n x n coefficients of t**(g + k*B + b)
        fold = np.zeros((K * B, n, n), dtype=complex)
        np.copyto(fold[: h - g], self.coef[:, :, g:h].transpose(2, 0, 1),
                  where=keep[:, :, g:h].transpose(2, 0, 1))
        fold = fold.reshape(K, B, n * n)
        exps = np.arange(K * B).reshape(K, B)
        C = N // B
        samples = np.empty(N, dtype=complex)
        for s in range(C):
            mats = np.einsum("kb,kbx->bx", omega[s * exps % N], fold).reshape(B, n, n)
            samples[s::C] = np.linalg.det(np.fft.ifft(mats, axis=0, norm="forward"))
        # det M(w) w**-lo = det(sample matrix) w**-(sum over rows of first - g)
        samples *= omega[-np.arange(N) * int((first - g).sum()) % N]
        return LaurentPoly(lo, np.fft.fft(samples) / N)
