"""Laurent polynomials over C and determinants of matrices of them.

Polynomials are stored densely as (lowest exponent, coefficient list) and
kept normalized: after every arithmetic operation coefficients whose
magnitude is below TRIM_TOL relative to the largest one are dropped, so
degree bookkeeping stays exact.  Determinants of Laurent matrices are
computed by evaluation at roots of unity and FFT interpolation; the
evaluation runs on numpy arrays, one block of sample points at a time, and
reproduces the scalar per-point evaluation (``eval_at`` followed by
``np.linalg.det``) bit for bit.
"""

from __future__ import annotations

import numpy as np

# relative threshold below which a coefficient counts as zero
TRIM_TOL = 1e-12
# matrix elements evaluated per block of determinant sample points; bounds
# the scratch arrays of LaurentMatrix.det whatever the degree spread
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
    """A rows-by-cols matrix with LaurentPoly entries, row major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = [e for row in rows_of_entries for e in row]
        return LaurentMatrix(rows, cols, flat)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]

    def eval_at(self, z):
        """Entrywise numeric evaluation, as a complex numpy array."""
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j](z)
        return out

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
        return max((e.max_abs_coeff() for e in self.entries), default=0.0)

    def det(self):
        """Determinant by evaluation at roots of unity and FFT interpolation.

        The exponent spread of det is bounded row by row; the determinant is
        sampled at N >= spread+1 points on the unit circle (N a power of
        two) and the coefficients recovered by a discrete Fourier inversion.

        The entries are packed once into a coefficient tensor (each entry's
        own lowest exponent at index 0, zeros above its top), and the
        samples are taken in blocks of at most DET_BLOCK_ELEMENTS matrix
        elements: Horner runs at all points of a block at once, and one
        batched ``np.linalg.det`` factors the block's matrices.  Every
        sample equals, bit for bit, ``np.linalg.det(self.eval_at(w))``:
        the complex products are written out in split real/imaginary form,
        in the same order as Python's ``complex.__mul__`` evaluates them,
        because numpy's vectorized complex multiply may round differently,
        and the powers ``w**low`` come from Python's own complex power.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return LaurentPoly.one()
        if n == 1:
            return self.entries[0]
        lo = hi = 0
        for i in range(n):
            row = [self[i, j] for j in range(n) if not self[i, j].is_zero]
            if not row:
                return LaurentPoly.zero()
            lo += min(e.low for e in row)
            hi += max(e.high for e in row)
        spread = hi - lo
        N = 1
        while N < spread + 1:
            N *= 2
        omega = np.exp(2j * np.pi * np.arange(N) / N)

        # coefficient tensor, highest power first: coef[k] holds the
        # coefficients of t**(low + width-1-k) of every entry.  The zero
        # padding leaves Horner's accumulator at exactly +0 until an entry's
        # own top coefficient is reached.
        E = n * n
        width = max(len(e.coeffs) for e in self.entries)
        coef = np.zeros((E, width), dtype=complex)
        for idx, e in enumerate(self.entries):
            coef[idx, : len(e.coeffs)] = e.coeffs
        coef = coef[:, ::-1].T
        cr, ci = np.ascontiguousarray(coef.real), np.ascontiguousarray(coef.imag)
        lows, low_row = np.unique([e.low for e in self.entries], return_inverse=True)
        lows = [int(low) for low in lows]

        block = max(1, DET_BLOCK_ELEMENTS // E)
        samples = np.empty(N, dtype=complex)
        for start in range(0, N, block):
            w = omega[start : start + block]
            zr, zi = w.real[:, None], w.imag[:, None]
            ar, ai, nr, ni, tmp = np.zeros((5, len(w), E))
            for k in range(width):
                # (nr, ni) = (ar, ai) * (zr, zi) + (cr, ci), in that order
                np.multiply(ar, zr, out=nr)
                np.multiply(ai, zi, out=tmp)
                np.subtract(nr, tmp, out=nr)
                np.add(nr, cr[k], out=nr)
                np.multiply(ar, zi, out=ni)
                np.multiply(ai, zr, out=tmp)
                np.add(ni, tmp, out=ni)
                np.add(ni, ci[k], out=ni)
                ar, ai, nr, ni = nr, ni, ar, ai
            # times w**low, with the power taken in Python complex arithmetic
            powers = np.array([[complex(x) ** low for low in lows] for x in w])[:, low_row]
            pr, pi = powers.real, powers.imag
            mats = np.empty((len(w), n, n), dtype=complex)
            mats.real = (ar * pr - ai * pi).reshape(-1, n, n)
            mats.imag = (ar * pi + ai * pr).reshape(-1, n, n)
            dets = np.linalg.det(mats)
            for k in range(len(w)):
                samples[start + k] = dets[k] * omega[start + k] ** (-lo)
        coeffs = np.fft.fft(samples) / N
        return LaurentPoly(lo, coeffs)
