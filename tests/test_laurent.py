"""Laurent polynomial arithmetic and matrix determinants."""

import numpy as np
import pytest

from torsionlab import LaurentMatrix, LaurentPoly, laurent


def lp(low, *coeffs):
    return LaurentPoly(low, coeffs)


class TestArithmetic:
    def test_difference_of_squares(self):
        t_plus = lp(0, 1, 1)   # 1 + t
        t_minus = lp(0, -1, 1)  # -1 + t
        assert t_plus * t_minus == lp(0, -1, 0, 1)

    def test_additive_identity(self):
        p = lp(-2, 3, 0, 1j)
        assert p + LaurentPoly.zero() == p

    def test_exponent_shift(self):
        # (t^-1 + 2) * t = 1 + 2t
        p = lp(-1, 1, 2)
        assert p * LaurentPoly.t(1) == lp(0, 1, 2)

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
        assert p == LaurentPoly.one()

    def test_cancellation(self):
        p = lp(0, 1, 1)
        assert (p - p).is_zero


class TestEvaluation:
    def test_derived_example(self):
        # p = t^2 - t + 1 at z = -1; oracle: term-by-term sum
        p = lp(0, 1, -1, 1)
        z = -1.0
        oracle = sum(c * z ** (p.low + k) for k, c in enumerate(p.coeffs))
        assert p(z) == pytest.approx(3.0)
        assert p(z) == pytest.approx(oracle)

    def test_zero_poly(self):
        assert LaurentPoly.zero()(2.3 + 1j) == 0

    def test_negative_exponent(self):
        assert LaurentPoly.t(-1)(2.0) == pytest.approx(0.5)

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
        return LaurentPoly.one()
    if n == 1:
        return M[0, 0]
    total = LaurentPoly.zero()
    for j in range(n):
        minor_rows = []
        for i in range(1, n):
            minor_rows.append([M[i, k] for k in range(n) if k != j])
        minor = LaurentMatrix.from_rows(minor_rows)
        term = M[0, j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def random_matrix(rng, n, low=-2, high=2):
    entries = []
    for _ in range(n * n):
        coeffs = rng.standard_normal(high - low + 1) + 1j * rng.standard_normal(high - low + 1)
        entries.append(LaurentPoly(low, coeffs))
    return LaurentMatrix(n, n, entries)


class TestDeterminant:
    def test_1x1(self):
        M = LaurentMatrix(1, 1, [lp(0, -1, 1)])
        assert M.det() == lp(0, -1, 1)

    def test_diag_t_tinv(self):
        M = LaurentMatrix(2, 2, [LaurentPoly.t(1), LaurentPoly.zero(),
                                 LaurentPoly.zero(), LaurentPoly.t(-1)])
        assert M.det().close_to(LaurentPoly.one(), rtol=1e-12)

    def test_non_square_rejected(self):
        M = LaurentMatrix(1, 2, [LaurentPoly.one(), LaurentPoly.one()])
        with pytest.raises(ValueError):
            M.det()

    def test_zero_row(self):
        M = LaurentMatrix(2, 2, [LaurentPoly.zero(), LaurentPoly.zero(),
                                 LaurentPoly.one(), LaurentPoly.one()])
        assert M.det().is_zero

    def test_random_3x3_against_cofactor_oracle(self, rng):
        for _ in range(10):
            M = random_matrix(rng, 3)
            assert M.det().close_to(cofactor_det(M), rtol=1e-9)

    def test_det_multiplicative(self, rng):
        for _ in range(5):
            A = random_matrix(rng, 3, low=-1, high=1)
            B = random_matrix(rng, 3, low=-1, high=1)
            lhs = A.matmul(B).det()
            rhs = A.det() * B.det()
            assert lhs.close_to(rhs, rtol=1e-8)

    def test_triangular_det_is_diagonal_product(self, rng):
        n = 4
        entries = []
        diag = []
        for i in range(n):
            for j in range(n):
                if j < i:
                    entries.append(LaurentPoly.zero())
                else:
                    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    p = LaurentPoly(-1, coeffs)
                    entries.append(p)
                    if i == j:
                        diag.append(p)
        M = LaurentMatrix(n, n, entries)
        prod = LaurentPoly.one()
        for d in diag:
            prod = prod * d
        assert M.det().close_to(prod, rtol=1e-10)

    def test_eval_commutes_with_det(self, rng):
        for _ in range(5):
            M = random_matrix(rng, 3)
            z = np.exp(2j * np.pi * rng.random())
            assert M.det()(z) == pytest.approx(np.linalg.det(M.eval_at(z)), rel=1e-9)


def looped_det(M):
    """det sampled one point at a time: eval_at, np.linalg.det, then the FFT.

    This is the scalar loop LaurentMatrix.det batches; the batched version
    must reproduce it exactly.
    """
    n = M.rows
    lo = sum(min(M[i, j].low for j in range(n) if not M[i, j].is_zero) for i in range(n))
    hi = sum(max(M[i, j].high for j in range(n) if not M[i, j].is_zero) for i in range(n))
    N = 1
    while N < hi - lo + 1:
        N *= 2
    omega = np.exp(2j * np.pi * np.arange(N) / N)
    samples = np.empty(N, dtype=complex)
    for k, w in enumerate(omega):
        samples[k] = np.linalg.det(M.eval_at(w)) * w ** (-lo)
    return LaurentPoly(lo, np.fft.fft(samples) / N), N


class TestBatchedDeterminant:
    def test_equals_per_point_loop(self, rng):
        multi_block = 0
        for trial in range(21):
            n = 2 + trial % 7
            wide = n >= 6 and trial >= 7
            entries = []
            for i in range(n):
                for j in range(n):
                    # every row keeps one nonzero entry, so det is not trivially 0
                    if j != i and rng.random() < 0.25:
                        entries.append(LaurentPoly.zero())
                        continue
                    width = int(rng.integers(1, 41 if wide else 6))
                    c = rng.standard_normal(width) + 1j * rng.standard_normal(width)
                    if rng.random() < 0.3:
                        c = np.round(2 * c)  # Gaussian integers, with exact zeros
                    low = int(rng.integers(-40, 41) if wide else rng.integers(-5, 6))
                    entries.append(LaurentPoly(low, c))
            M = LaurentMatrix(n, n, entries)
            ref, N = looped_det(M)
            got = M.det()
            assert got.low == ref.low and got.coeffs == ref.coeffs
            multi_block += N > laurent.DET_BLOCK_ELEMENTS // (n * n)
        assert multi_block >= 3
