"""Laurent polynomials, the arithmetic oracle, and matrix determinants."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from torsionlab import laurent
from torsionlab.laurent import LaurentMatrix, LaurentPoly

from conftest import up_to_unit_monomial
from oracles import (
    ONE, ZERO, add, close_to, eval_at, high, matmul, matrix, mul, neg, normalized, sub,
)


def lp(low, *coeffs):
    return LaurentPoly(low, coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        t_plus = lp(0, 1, 1)   # 1 + t
        t_minus = lp(0, -1, 1)  # -1 + t
        assert mul(t_plus, t_minus) == lp(0, -1, 0, 1)

    def test_additive_identity(self):
        p = lp(-2, 3, 0, 1j)
        assert add(p, ZERO) == p

    def test_exponent_shift(self):
        # (t^-1 + 2) * t = 1 + 2t
        p = lp(-1, 1, 2)
        assert mul(p, lp(1, 1)) == lp(0, 1, 2)

    def test_normalization_is_canonical(self):
        a = LaurentPoly(-1, [0, 1, 2, 0, 0])
        b = LaurentPoly(0, [1, 2])
        assert a == b
        assert a.low == 0 and a.coeffs == (1, 2)

    def test_zero_is_empty(self):
        z = LaurentPoly(5, [0, 0])
        assert z.is_zero and z.low == 0 and z.coeffs == ()

    def test_tiny_coefficients_dropped(self):
        p = LaurentPoly(0, [1.0, 1e-15])
        assert p == ONE

    def test_cancellation(self):
        p = lp(0, 1, 1)
        assert sub(p, p).is_zero


class TestTrimAgainstPythonLoop:
    def test_bitwise_equal(self, rng):
        # magnitudes across the threshold, exact and signed zeros, and the
        # float just above and below TRIM_TOL beside a coefficient of 1
        edge = laurent.TRIM_TOL
        special = [0.0, -0.0, complex(-0.0, -0.0), edge, np.nextafter(edge, 1),
                   np.nextafter(edge, 0), TestDenseTrim.STRADDLING, 1.0]
        for trial in range(400):
            n = int(rng.integers(0, 12))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c *= 10.0 ** rng.uniform(-14, 0, n)
            picks = rng.random(n) < 0.3
            c[picks] = rng.choice(special, picks.sum())
            low = int(rng.integers(-5, 6))
            p = LaurentPoly(low, c)
            want_low, want = normalized(low, c)
            assert (p.low, repr(p.coeffs)) == (want_low, repr(want))
            assert all(type(x) is complex for x in p.coeffs)


class TestUpToUnitMonomial:
    def test_shifted_and_scaled_match(self):
        q = lp(-2, 1, -2, 3)
        assert up_to_unit_monomial(lp(3, 1j, -2j, 3j), q)
        assert up_to_unit_monomial(lp(-2, -1, 2, -3), q)

    def test_mismatch(self):
        q = lp(-2, 1, -2, 3)
        assert not up_to_unit_monomial(lp(3, 1j, -2j, 4j), q)
        assert not up_to_unit_monomial(lp(3, 2, -4, 6), q)
        assert not up_to_unit_monomial(lp(3, 1, -2), q)


class TestEvaluation:
    def test_derived_example(self):
        # p = t^2 - t + 1 at z = -1; oracle: term-by-term sum
        p = lp(0, 1, -1, 1)
        z = -1.0
        oracle = sum(c * z ** (p.low + k) for k, c in enumerate(p.coeffs))
        assert p(z) == pytest.approx(3.0)
        assert p(z) == pytest.approx(oracle)

    def test_zero_poly(self):
        assert ZERO(2.3 + 1j) == 0

    def test_negative_exponent(self):
        assert lp(-1, 1)(2.0) == pytest.approx(0.5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lp(-1, 1)(0.0)

    def test_random_against_termwise_sum(self, rng):
        for _ in range(50):
            low = int(rng.integers(-4, 2))
            coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            p = LaurentPoly(low, coeffs)
            z = np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random())
            oracle = sum(c * z ** (low + k) for k, c in enumerate(coeffs))
            assert p(z) == pytest.approx(oracle, rel=1e-12)


def cofactor_det(M):
    """Independent determinant oracle by cofactor expansion along row 0."""
    n = M.rows
    if n == 0:
        return ONE
    if n == 1:
        return M[0, 0]
    total = ZERO
    for j in range(n):
        minor_rows = []
        for i in range(1, n):
            minor_rows.append([M[i, k] for k in range(n) if k != j])
        minor = matrix(minor_rows)
        term = mul(M[0, j], cofactor_det(minor))
        total = add(total, term if j % 2 == 0 else neg(term))
    return total


def random_matrix(rng, n, low=-2, high=2):
    entries = []
    for _ in range(n * n):
        coeffs = rng.standard_normal(high - low + 1) + 1j * rng.standard_normal(high - low + 1)
        entries.append(LaurentPoly(low, coeffs))
    return matrix([entries[i * n : (i + 1) * n] for i in range(n)])


class TestDeterminant:
    def test_1x1(self):
        M = matrix([[lp(0, -1, 1)]])
        assert M.det() == lp(0, -1, 1)

    def test_diag_t_tinv(self):
        M = matrix([[lp(1, 1), ZERO], [ZERO, lp(-1, 1)]])
        assert close_to(M.det(), ONE, rtol=1e-12)

    def test_non_square_rejected(self):
        M = matrix([[ONE, ONE]])
        with pytest.raises(ValueError):
            M.det()

    def test_zero_row(self):
        M = matrix([[ZERO, ZERO], [ONE, ONE]])
        assert M.det().is_zero

    def test_random_3x3_against_cofactor_oracle(self, rng):
        for _ in range(10):
            M = random_matrix(rng, 3)
            assert close_to(M.det(), cofactor_det(M), rtol=1e-9)

    def test_det_multiplicative(self, rng):
        for _ in range(5):
            A = random_matrix(rng, 3, low=-1, high=1)
            B = random_matrix(rng, 3, low=-1, high=1)
            lhs = matmul(A, B).det()
            rhs = mul(A.det(), B.det())
            assert close_to(lhs, rhs, rtol=1e-8)

    def test_triangular_det_is_diagonal_product(self, rng):
        n = 4
        entries = []
        diag = []
        for i in range(n):
            for j in range(n):
                if j < i:
                    entries.append(ZERO)
                else:
                    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    p = LaurentPoly(-1, coeffs)
                    entries.append(p)
                    if i == j:
                        diag.append(p)
        M = matrix([entries[i * n : (i + 1) * n] for i in range(n)])
        prod = ONE
        for d in diag:
            prod = mul(prod, d)
        assert close_to(M.det(), prod, rtol=1e-10)

    def test_eval_commutes_with_det(self, rng):
        for _ in range(5):
            M = random_matrix(rng, 3)
            z = np.exp(2j * np.pi * rng.random())
            assert M.det()(z) == pytest.approx(np.linalg.det(eval_at(M, z)), rel=1e-9)


# fraction bits of the fixed-point oracle below
ORACLE_BITS = 200


@functools.cache
def _oracle_roots(N):
    """exp(2 pi i k / N), k < N, as fixed-point integers (real and imaginary parts)."""
    with mpmath.workprec(ORACLE_BITS + 20):
        angles = [mpmath.mpf(2 * k) / N for k in range(N)]
        return [
            np.array([int(mpmath.nint(mpmath.ldexp(f(x), ORACLE_BITS))) for x in angles],
                     dtype=object)
            for f in (mpmath.cospi, mpmath.sinpi)
        ]


def _oracle_dft(xr, xi, wr, wi, sign):
    """Radix-2 DFT along the last axis: entry k is sum_m x_m exp(sign 2 pi i k m / N)."""
    N = xr.shape[-1]
    if N == 1:
        return xr, xi
    er, ei = _oracle_dft(xr[..., ::2], xi[..., ::2], wr, wi, sign)
    odd_r, odd_i = _oracle_dft(xr[..., 1::2], xi[..., 1::2], wr, wi, sign)
    step = len(wr) // N
    tr, ti = wr[: len(wr) // 2 : step], sign * wi[: len(wi) // 2 : step]
    pr = (odd_r * tr - odd_i * ti) >> ORACLE_BITS
    pi = (odd_r * ti + odd_i * tr) >> ORACLE_BITS
    return np.concatenate([er + pr, er - pr], -1), np.concatenate([ei + pi, ei - pi], -1)


def oracle_det(M):
    """det(M) to about 2**-ORACLE_BITS: (lo, N, coefficients of t**lo ... as mpc).

    Evaluation at the N-th roots of unity and interpolation, as in
    LaurentMatrix.det, but on fixed-point numbers held as Python integers in
    numpy object arrays: the float64 coefficients are exact there, the roots
    of unity come from mpmath, the transforms are radix-2 DFTs (N is the
    least power of two above the sum of the row spreads), and the N
    sample determinants are Gaussian eliminations with partial pivoting, run
    at all points at once.
    """
    n, one = M.rows, 1 << ORACLE_BITS
    rows = [[M[i, j] for j in range(n) if not M[i, j].is_zero] for i in range(n)]
    lows = [min(e.low for e in row) for row in rows]
    spread = sum(max(high(e) for e in row) for row in rows) - sum(lows)
    N = 1 << spread.bit_length()
    cr, ci = np.zeros((2, n, n, N), dtype=object)
    for i in range(n):
        for j in range(n):
            e = M[i, j]
            for k, c in enumerate(e.coeffs):
                # exact: a power-of-two scaling of a float64 that is not tiny
                cr[i, j, e.low - lows[i] + k] = int(math.ldexp(c.real, ORACLE_BITS))
                ci[i, j, e.low - lows[i] + k] = int(math.ldexp(c.imag, ORACLE_BITS))
    wr, wi = _oracle_roots(N)
    # ar[k, i, j] + i ai[k, i, j]: row-shifted entry (i, j) at w**k
    ar, ai = (np.moveaxis(x, -1, 0).copy() for x in _oracle_dft(cr, ci, wr, wi, 1))
    dr, di = np.full(N, one, dtype=object), np.zeros(N, dtype=object)
    pts = np.arange(N)
    for k in range(n):
        piv = k + np.argmax(ar[:, k:, k] ** 2 + ai[:, k:, k] ** 2, axis=1)
        for a in (ar, ai):
            a[pts, k], a[pts, piv] = a[pts, piv].copy(), a[pts, k].copy()
        sign = np.where(piv == k, 1, -1).astype(object)
        pr, pi = ar[:, k, k], ai[:, k, k]
        dr, di = (sign * ((dr * pr - di * pi) >> ORACLE_BITS),
                  sign * ((dr * pi + di * pr) >> ORACLE_BITS))
        den = pr * pr + pi * pi
        den[den == 0] = 1  # the column is zero: det is zero here already
        # multipliers f = a[i, k] / a[k, k] for all rows below k
        lr, li = ar[:, k + 1 :, k], ai[:, k + 1 :, k]
        fr = ((lr * pr[:, None] + li * pi[:, None]) << ORACLE_BITS) // den[:, None]
        fi = ((li * pr[:, None] - lr * pi[:, None]) << ORACLE_BITS) // den[:, None]
        ur, ui = ar[:, None, k, k:], ai[:, None, k, k:]
        ar[:, k + 1 :, k:] -= (fr[..., None] * ur - fi[..., None] * ui) >> ORACLE_BITS
        ai[:, k + 1 :, k:] -= (fr[..., None] * ui + fi[..., None] * ur) >> ORACLE_BITS
    # the samples det(M(w)) w**-lo are the determinants of the shifted rows
    sr, si = _oracle_dft(dr, di, wr, wi, -1)
    with mpmath.workprec(ORACLE_BITS):
        scale = mpmath.ldexp(N, ORACLE_BITS)
        coeffs = [mpmath.mpc(mpmath.mpf(r) / scale, mpmath.mpf(i) / scale) for r, i in zip(sr, si)]
    return sum(lows), N, coeffs


def oracle_error(got, lo, exact):
    """Largest coefficient error of got, relative to the oracle's max |c|."""
    coeff = dict(enumerate(got.coeffs, got.low))
    err = max(abs(mpmath.mpc(coeff.get(lo + k, 0j)) - c) for k, c in enumerate(exact))
    outside = [c for k, c in enumerate(got.coeffs) if not 0 <= got.low + k - lo < len(exact)]
    return float(max([err] + [abs(c) for c in outside]) / max(abs(c) for c in exact))


def det_extent(M):
    """lo and the coefficient count S of det, from the trimmed LaurentPoly entries."""
    rows = [[M[i, j] for j in range(M.cols) if not M[i, j].is_zero] for i in range(M.rows)]
    lo = sum(min(e.low for e in row) for row in rows)
    hi = sum(max(high(e) for e in row) for row in rows)
    return lo, hi - lo + 1


def det_cosets(M):
    """The coset count C of det's samples: the fewest cosets of at most
    max(1, DET_BLOCK_ELEMENTS // n**2) points that hold S points."""
    return -(-det_extent(M)[1] // max(1, laurent.DET_BLOCK_ELEMENTS // M.rows**2))


# worst oracle_error of the Horner sampler this module used before the coset
# FFT, on the 21 matrices of TestBatchedDeterminant: 5.3324e-14, rounded up
HORNER_WORST_ERROR = 5.333e-14


class TestBatchedDeterminant:
    def test_matches_high_precision_oracle(self, rng):
        multi_block = 0
        worst = 0.0
        for trial in range(21):
            n = 2 + trial % 7
            wide = n >= 6 and trial >= 7
            entries = []
            for i in range(n):
                for j in range(n):
                    # every row keeps one nonzero entry, so det is not trivially 0
                    if j != i and rng.random() < 0.25:
                        entries.append(ZERO)
                        continue
                    width = int(rng.integers(1, 41 if wide else 6))
                    c = rng.standard_normal(width) + 1j * rng.standard_normal(width)
                    if rng.random() < 0.3:
                        c = np.round(2 * c)  # Gaussian integers, with exact zeros
                    low = int(rng.integers(-40, 41) if wide else rng.integers(-5, 6))
                    entries.append(LaurentPoly(low, c))
            M = matrix([entries[i * n : (i + 1) * n] for i in range(n)])
            lo, _, exact = oracle_det(M)
            worst = max(worst, oracle_error(M.det(), lo, exact))
            multi_block += det_cosets(M) > 1
        assert worst <= HORNER_WORST_ERROR
        assert multi_block >= 3

    @pytest.mark.parametrize("n, spread, cosets, block", [
        (3, 100, 1, 101),  # S = 101, a prime: one coset of 101 points
        (4, 256, 2, 129),  # S = 257 = 2**8 + 1: two cosets of 129
        (12, 96, 4, 25),   # S = 97, at most 28 points a coset: four cosets of 25
    ])
    def test_sampled_at_coefficient_count(self, monkeypatch, rng, n, spread, cosets, block):
        # random rows whose spreads sum to S - 1, each with nonzero end coefficients
        widths = np.full(n, spread // n) + (np.arange(n) < spread % n) + 1
        coef = np.zeros((n, n, widths.max()), dtype=complex)
        for i, w in enumerate(widths):
            coef[i, :, :w] = rng.standard_normal((n, w)) + 1j * rng.standard_normal((n, w))
        M = LaurentMatrix(rng.integers(-5, 6, n), coef)
        lo, S = det_extent(M)
        assert S == spread + 1 and det_cosets(M) == cosets
        batches, lengths = [], []
        det, fft = np.linalg.det, np.fft.fft
        monkeypatch.setattr(np.linalg, "det", lambda a: batches.append(len(a)) or det(a))
        monkeypatch.setattr(np.fft, "fft", lambda x: lengths.append(len(x)) or fft(x))
        d = M.det()
        N = sum(batches)
        assert batches == [block] * cosets and lengths == [N]
        assert S <= N < S + cosets
        exact_lo, _, exact = oracle_det(M)
        assert exact_lo == lo
        assert oracle_error(d, lo, exact) <= HORNER_WORST_ERROR

    def test_scratch_memory_bounded_by_block_size(self, rng):
        # rows spread 128 apart, so det has S = 2049 coefficients
        n, width = 16, 129
        coef = rng.standard_normal((n, n, width)) + 1j * rng.standard_normal((n, n, width))
        M = LaurentMatrix(np.zeros(n, dtype=int), coef)
        S = det_extent(M)[1]
        assert S == 2049
        tracemalloc.start()
        try:
            d = M.det()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not d.is_zero
        # one trimmed copy of the tensor, O(S) for the samples, the roots and
        # the LaurentPoly result, and a few blocks of per-coset scratch; every
        # sample matrix at once would take S n^2 complex numbers, over 4x more
        bound = coef.nbytes + 200 * S + 16 * 16 * laurent.DET_BLOCK_ELEMENTS
        assert peak < bound < S * n * n * 16 / 4


class TestDenseTrim:
    """The dense determinant path applies the LaurentPoly trimming rule per entry."""

    # beside a coefficient of 1 this sits at TRIM_TOL: abs() rounds its
    # magnitude to exactly 1e-12, where np.abs can round to one ulp above
    STRADDLING = 8.534781134132176e-13 - 5.211286884490384e-13j

    @staticmethod
    def check_trim(monkeypatch, coeffs, length):
        """det of a 2 x 2 matrix with entry (0, 0) = coeffs trims that entry
        to ``length`` coefficients, as LaurentPoly does."""
        # rows start at t^-1, and entry (0, 0) is padded by one zero on each side
        coef = np.zeros((2, 2, 7), dtype=complex)
        coef[0, 0, 1:6] = coeffs
        coef[0, 1, 3] = 1.0  # t^1, inside entry (0, 0)'s range
        coef[1, 1, 1] = 1.0  # the constant 1
        M = LaurentMatrix(np.array([-1, -1]), coef)
        assert M[0, 0] == LaurentPoly(0, coeffs)
        assert len(M[0, 0].coeffs) == length
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda x: calls.append(len(x)) or fft(x))
        d = M.det()
        lo, S = det_extent(M)
        assert calls == [S]
        assert S == length
        assert close_to(d, M[0, 0], rtol=1e-13)
        assert d.low == lo

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("where", [0, 2, 4])  # low end, interior, high end
    def test_edge_coefficients(self, monkeypatch, factor, where):
        coeffs = [1.0, -1.0, 1.0, 1.0, 1.0]
        coeffs[where] = factor * laurent.TRIM_TOL * 1.0
        self.check_trim(monkeypatch, coeffs, 5 if factor > 1 or where == 2 else 4)

    @pytest.mark.parametrize("where", [0, 4])
    def test_straddling_coefficient(self, monkeypatch, where):
        coeffs = [1.0, -1.0, 1.0, 1.0, 1.0]
        coeffs[where] = self.STRADDLING
        assert abs(self.STRADDLING) == laurent.TRIM_TOL
        self.check_trim(monkeypatch, coeffs, 4)

    def test_zero_row_gives_zero(self):
        coef = np.zeros((3, 3, 4), dtype=complex)
        coef[0] = 1.0
        coef[2, 1, 3] = 2.0
        assert LaurentMatrix(np.array([0, 5, -2]), coef).det().is_zero
        coef[1, 2, 0] = 1e-300  # a nonzero row, however small, is kept
        assert not LaurentMatrix(np.array([0, 5, -2]), coef).det().is_zero
