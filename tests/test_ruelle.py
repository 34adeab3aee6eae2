"""Length spectra and truncated Euler products."""

import cmath
import warnings

import numpy as np
import pytest

from torsionlab import (
    GeodesicEntry,
    LengthSpectrum,
    NotLoxodromicError,
    ParseError,
    SpectrumWarning,
    complex_length_from_trace,
    convergence_report,
    format_spectrum,
    parse_spectrum,
    truncated_ruelle,
)

from conftest import random_unitary


def bits(x):
    """Exact value of a real or complex number, sign of zero included."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def loop_log_factor(entry, z):
    """-log det(I - rho(gamma) e^{-z l}) of one entry, one eigensolve per call."""
    mus = np.linalg.eigvals(entry.holonomy) * np.exp(-z * entry.length)
    return -np.sum(np.log(1.0 - mus))


def loop_ruelle(entries, rank, z, cutoff=None):
    """Reference for truncated_ruelle: a per-entry loop in length order."""
    entries = sorted(entries, key=lambda e: e.length)
    if cutoff is None:
        cutoff = entries[-1].length
    log_value, tail = 0j, 0.0
    for e in entries:
        if e.length <= cutoff:
            log_value += loop_log_factor(e, z)
        else:
            q = np.exp(-z.real * e.length)
            tail += rank * q / (1.0 - q) if q < 1.0 else np.inf
    return complex(np.exp(log_value)), float(tail)


def loop_report(entries, z, cutoffs):
    """Reference for convergence_report: one loop from the start per cutoff."""
    entries = sorted(entries, key=lambda e: e.length)
    rows, prev = [], None
    for L in sorted(cutoffs):
        log_value, used = 0j, 0
        for e in entries:
            if e.length > L:
                break
            log_value += loop_log_factor(e, z)
            used += 1
        rows.append((L, log_value, used, abs(log_value - prev) if prev is not None else None))
        prev = log_value
    return rows


def spectrum_of(pairs, rank=1):
    entries = tuple(
        GeodesicEntry(length=l, holonomy=np.atleast_2d(np.asarray(h, dtype=complex)))
        for l, h in pairs
    )
    return LengthSpectrum(rank=rank, entries=entries)


class TestComplexLength:
    def test_real_hyperbolic_trace(self):
        l, theta = complex_length_from_trace(2 * np.cosh(0.5))
        assert l == pytest.approx(1.0, abs=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_loxodromic_with_rotation(self):
        tr = 2 * cmath.cosh((1.0 + 1j * np.pi / 2) / 2)
        l, theta = complex_length_from_trace(tr)
        assert l == pytest.approx(1.0, abs=1e-12)
        assert theta == pytest.approx(np.pi / 2, abs=1e-12)

    def test_negative_trace_same_length(self):
        # PSL(2, C) sign ambiguity: -tr shifts theta by 2 pi, folded back
        tr = 2 * cmath.cosh((0.7 + 0.3j) / 2)
        l1, t1 = complex_length_from_trace(tr)
        l2, t2 = complex_length_from_trace(-tr)
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert abs((t1 - t2 + np.pi) % (2 * np.pi) - np.pi) < 1e-10

    @pytest.mark.parametrize("tr", [2.0, -2.0, 0.0, 1.5])
    def test_elliptic_or_parabolic_rejected(self, tr):
        with pytest.raises(NotLoxodromicError):
            complex_length_from_trace(tr)

    def test_theta_in_fold_interval(self, rng):
        for _ in range(50):
            w = complex(rng.uniform(0.05, 3.0), rng.uniform(-9, 9))
            l, theta = complex_length_from_trace(2 * cmath.cosh(w / 2))
            assert l > 0
            assert -np.pi < theta <= np.pi


class TestEntriesAndSpectrum:
    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GeodesicEntry(length=0.0, holonomy=np.eye(1))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GeodesicEntry(length=1.0, holonomy=np.array([[2.0]]))

    def test_entries_sorted_ascending(self):
        spec = spectrum_of([(3.0, [[1.0]]), (1.0, [[-1.0]]), (2.0, [[1j]])])
        assert [e.length for e in spec.entries] == [1.0, 2.0, 3.0]

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            LengthSpectrum(rank=2, entries=(GeodesicEntry(1.0, np.eye(1)),))

    def test_array_layout_and_stable_order(self, rng):
        hs = [random_unitary(rng, 3) for _ in range(4)]
        lengths = [2.0, 1.0, 2.0, 0.5]
        spec = LengthSpectrum(3, tuple(GeodesicEntry(l, h) for l, h in zip(lengths, hs)))
        assert spec.lengths.shape == (4,) and spec.holonomies.shape == (4, 3, 3)
        assert spec.eigenvalues.shape == (4, 3)
        np.testing.assert_array_equal(spec.lengths, [0.5, 1.0, 2.0, 2.0])
        # equal lengths keep their given order
        for got, want in zip(spec.holonomies, [hs[3], hs[1], hs[0], hs[2]]):
            np.testing.assert_array_equal(got, want)
        for e, eig in zip(spec.entries, spec.eigenvalues):
            np.testing.assert_array_equal(eig, np.linalg.eigvals(e.holonomy))

    def test_one_eigensolve_per_entry(self, monkeypatch):
        solved = []
        eigvals = np.linalg.eigvals

        def counting(a):
            solved.append(int(np.prod(np.shape(a)[:-2])))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        lines = ["rank 2;"] + [f"geo {1 + 0.1 * k} ; 1,0 0,0 0,0 0,1 ;" for k in range(30)]
        spec = parse_spectrum("\n".join(lines))
        convergence_report(spec, 3.0, [1.5, 2.5, 9.0])
        truncated_ruelle(spec, 3.0)
        truncated_ruelle(spec, 3.0, cutoff=2.0)
        assert solved == [30]


class TestTruncatedRuelle:
    def test_single_factor_closed_form(self):
        # rank 1, trivial holonomy: (1 - e^{-z l})^{-1}
        spec = spectrum_of([(1.0, [[1.0]])])
        value, tail = truncated_ruelle(spec, 3.0)
        assert value == pytest.approx(1.0 / (1.0 - np.exp(-3.0)), rel=1e-14)
        assert tail == 0.0

    def test_single_factor_with_phase(self):
        xi = np.exp(0.4j)
        spec = spectrum_of([(2.0, [[xi]])])
        value, _ = truncated_ruelle(spec, 2.5)
        assert value == pytest.approx(1.0 / (1.0 - xi * np.exp(-5.0)), rel=1e-14)

    def test_rank2_diagonal_factors(self):
        # det(I - diag(a, b) q)^{-1} = (1 - a q)^{-1} (1 - b q)^{-1}
        a, b = 1j, np.exp(2j * np.pi / 7)
        entries = (GeodesicEntry(1.3, np.diag([a, b])),)
        spec = LengthSpectrum(rank=2, entries=entries)
        value, _ = truncated_ruelle(spec, 3.1)
        q = np.exp(-3.1 * 1.3)
        assert value == pytest.approx(1.0 / ((1 - a * q) * (1 - b * q)), rel=1e-13)

    def test_multiplicative_over_entries(self, rng):
        # log of the product is the sum of per-factor logs
        entries = []
        singles = []
        for _ in range(1000):
            l = float(rng.uniform(0.5, 12.0))
            h = random_unitary(rng, 2)
            entries.append(GeodesicEntry(l, h))
            singles.append(LengthSpectrum(rank=2, entries=(GeodesicEntry(l, h),)))
        spec = LengthSpectrum(rank=2, entries=tuple(entries))
        z = 2.4 + 0.3j
        total, _ = truncated_ruelle(spec, z)
        product = np.prod([truncated_ruelle(s, z)[0] for s in singles])
        assert abs(total - product) <= 1e-10 * abs(total)

    def test_conjugation_invariance(self, rng):
        # the factors only see eigenvalues, so U h U^* changes nothing
        entries, conj_entries = [], []
        for _ in range(1000):
            l = float(rng.uniform(0.5, 10.0))
            h = random_unitary(rng, 2)
            u = random_unitary(rng, 2)
            entries.append(GeodesicEntry(l, h))
            conj_entries.append(GeodesicEntry(l, u @ h @ u.conj().T))
        z = 2.7
        v1, _ = truncated_ruelle(LengthSpectrum(2, tuple(entries)), z)
        v2, _ = truncated_ruelle(LengthSpectrum(2, tuple(conj_entries)), z)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)

    def test_classical_rank1_regression(self):
        # lengths log 2 .. log 6 with trivial holonomy: the product of
        # (1 - k^{-z})^{-1} computed termwise
        spec = spectrum_of([(np.log(k), [[1.0]]) for k in range(2, 7)])
        z = 3.0
        value, _ = truncated_ruelle(spec, z)
        expected = np.prod([1.0 / (1.0 - k**-z) for k in range(2, 7)])
        assert value == pytest.approx(expected, rel=1e-13)

    def test_cutoff_and_tail_bound(self):
        spec = spectrum_of([(1.0, [[1.0]]), (2.0, [[1.0]]), (5.0, [[1.0]])])
        z = 3.0
        value, tail = truncated_ruelle(spec, z, cutoff=2.5)
        expected = 1.0 / ((1 - np.exp(-3.0)) * (1 - np.exp(-6.0)))
        assert value == pytest.approx(expected, rel=1e-14)
        q = np.exp(-15.0)
        assert tail == pytest.approx(q / (1 - q), rel=1e-12)
        # the skipped factor sits within the reported bound
        full, _ = truncated_ruelle(spec, z)
        assert abs(full - value) <= abs(value) * (np.exp(tail) - 1) * 1.0001

    def test_duplicate_entries_both_counted(self):
        spec = spectrum_of([(1.0, [[1.0]]), (1.0, [[1.0]])])
        value, _ = truncated_ruelle(spec, 3.0)
        assert value == pytest.approx((1.0 / (1.0 - np.exp(-3.0))) ** 2, rel=1e-14)

    def test_empty_spectrum_warns_and_returns_one(self):
        with pytest.warns(SpectrumWarning, match="empty"):
            value, tail = truncated_ruelle(LengthSpectrum(1, ()), 3.0)
        assert value == 1.0 and tail == 0.0

    def test_empty_spectrum_of_huge_rank(self):
        # nothing of size rank^2 is allocated when there are no entries
        spec = parse_spectrum("rank 1000000000;\n")
        assert spec.rank == 10**9 and spec.entries == ()
        assert format_spectrum(spec) == "rank 1000000000;\n"
        with pytest.warns(SpectrumWarning, match="empty"):
            assert truncated_ruelle(spec, 3.0) == (1.0, 0.0)
        assert [r[1:3] for r in convergence_report(spec, 3.0, [1.0, 2.0])] == [(0j, 0), (0j, 0)]

    def test_low_re_z_warns(self):
        spec = spectrum_of([(1.0, [[1.0]])])
        with pytest.warns(SpectrumWarning, match="convergence region"):
            truncated_ruelle(spec, 1.5)

    def test_spectral_radius_warning(self):
        spec = spectrum_of([(1.0, [[1.0]])])
        with pytest.warns(SpectrumWarning) as record:
            truncated_ruelle(spec, -1.0 + 0j)
        # both the convergence-region and the divergence warnings fire
        messages = [str(w.message) for w in record]
        assert any("spectral radius" in m for m in messages)
        assert any("convergence region" in m for m in messages)

    def test_one_spectral_radius_warning_per_call(self):
        # at Re z <= 2 many factors diverge; each call warns about them once
        spec = spectrum_of([(0.1 * k, [[1.0]]) for k in range(1, 40)])
        for call in (lambda: truncated_ruelle(spec, -0.5 + 0j),
                     lambda: truncated_ruelle(spec, 0.0, cutoff=2.0),
                     lambda: convergence_report(spec, -1.0, [1.0, 2.0, 4.0])):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                call()
            radius = [w for w in record if "spectral radius" in str(w.message)]
            assert len(radius) == 1

    def test_no_spectral_radius_warning_beyond_the_cutoff(self):
        # a divergent factor past the cutoff is never evaluated
        spec = spectrum_of([(1.0, [[1.0]]), (2.0, [[1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncated_ruelle(spec, 3.0, cutoff=1.5)
            convergence_report(spec, 3.0, [0.5, 1.5])


class TestAgainstPerEntryLoop:
    """The array route equals the per-entry loop it replaced, bit for bit."""

    Z = (3.0, 2.5 + 0.3j, 4.0 - 1.0j, 2.0, 1.5 + 0.2j, -0.5j)

    def check(self, entries, rank, cutoffs):
        spec = LengthSpectrum(rank, tuple(entries))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for z in self.Z:
                for cutoff in [None, *cutoffs]:
                    got = truncated_ruelle(spec, z, cutoff)
                    want = loop_ruelle(entries, rank, complex(z), cutoff)
                    assert [bits(x) for x in got] == [bits(x) for x in want], (z, cutoff)
                rows = convergence_report(spec, z, cutoffs)
                oracle = loop_report(entries, complex(z), cutoffs)
                assert len(rows) == len(oracle)
                for row, want in zip(rows, oracle):
                    assert row[0] == want[0] and row[2] == want[2]
                    assert bits(row[1]) == bits(want[1])
                    assert (row[3] is None) == (want[3] is None)
                    if row[3] is not None:
                        assert bits(row[3]) == bits(want[3])

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_spectra(self, rng, rank):
        for _ in range(3):
            lengths = rng.uniform(0.3, 6.0, int(rng.integers(2, 120)))
            lengths[: len(lengths) // 3] = np.round(lengths[: len(lengths) // 3], 1)  # duplicates
            entries = [GeodesicEntry(float(l), random_unitary(rng, rank)) for l in lengths]
            s = np.sort(lengths)
            # below the first length, equal to some lengths, a median, above the last
            cutoffs = [s[0] / 2, s[len(s) // 2], float(np.median(s)), s[-1], s[-1] + 1]
            self.check(entries, rank, cutoffs)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_trivial_and_diagonal_holonomy(self, rng, rank):
        lengths = [0.5, 1.0, 1.0, 2.5, 2.5, 2.5, 4.0]
        trivial = [GeodesicEntry(l, np.eye(rank)) for l in lengths]
        diagonal = [
            GeodesicEntry(l, np.diag(np.exp(1j * rng.uniform(-3, 3, rank)))) for l in lengths
        ]
        for entries in (trivial, diagonal):
            self.check(entries, rank, [0.1, 1.0, 2.5, 3.0, 4.0, 9.0])

    @pytest.mark.parametrize("h", [[[1.0]], [[-1.0]], [[1j]]])
    def test_single_entry(self, h):
        self.check([GeodesicEntry(1.0, np.array(h))], 1, [0.5, 1.0, 2.0])


class TestConvergenceReport:
    def test_matches_direct_summation(self):
        # lengths log k: partial sums against a direct oracle
        spec = spectrum_of([(np.log(k), [[1.0]]) for k in range(2, 50)])
        z = 4.0
        rows = convergence_report(spec, z, cutoffs=[np.log(10), np.log(25), np.log(49)])
        for L, log_value, used, _ in rows:
            ks = [k for k in range(2, 50) if np.log(k) <= L]
            assert used == len(ks)
            oracle = -np.sum([np.log(1.0 - k**-z) for k in ks])
            assert log_value == pytest.approx(oracle, rel=1e-13)

    def test_deltas_decrease(self):
        spec = spectrum_of([(0.5 * k, [[1.0]]) for k in range(1, 40)])
        rows = convergence_report(spec, 3.0, cutoffs=[5, 10, 15, 20])
        deltas = [r[3] for r in rows[1:]]
        assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
        assert rows[0][3] is None


class TestSpectrumFile:
    GOOD = """
    # two geodesics, rank 1
    rank 1;
    geo 1.5 ; 0,1 ;
    geo 0.75 ; -1,0 ;
    """

    def test_parse(self):
        spec = parse_spectrum(self.GOOD)
        assert spec.rank == 1
        assert [e.length for e in spec.entries] == [0.75, 1.5]
        assert spec.entries[1].holonomy[0, 0] == 1j

    def test_round_trip(self, rng):
        entries = tuple(
            GeodesicEntry(float(rng.uniform(0.5, 4.0)), random_unitary(rng, 2))
            for _ in range(5)
        )
        spec = LengthSpectrum(rank=2, entries=entries)
        again = parse_spectrum(format_spectrum(spec))
        assert again.rank == 2
        np.testing.assert_array_equal(again.lengths, spec.lengths)
        np.testing.assert_array_equal(again.holonomies, spec.holonomies)
        assert format_spectrum(again) == format_spectrum(spec)

    def test_missing_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_spectrum("geo 1.0 ; 1,0 ;")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_spectrum("rank 1;\ngeo nonsense ;\n")
        assert "line 2" in str(err.value)

    def test_entry_count_checked(self):
        with pytest.raises(ParseError, match="expected 8 numbers"):
            parse_spectrum("rank 2;\ngeo 1.0 ; 1,0 0,0 ;\n")

    def test_non_unitary_holonomy_rejected(self):
        with pytest.raises(ParseError, match="unitary"):
            parse_spectrum("rank 1;\ngeo 1.0 ; 2,0 ;\n")

    def test_invalid_entry_reports_its_line(self):
        head = "rank 1;\ngeo 1.0 ; 1,0 ;\n"
        with pytest.raises(ParseError, match="unitary") as err:
            parse_spectrum(head + "geo 2.0 ; 0.5,0 ;\ngeo 3.0 ; 2,0 ;\n")
        assert "line 3" in str(err.value)
        with pytest.raises(ParseError, match="positive") as err:
            parse_spectrum(head + "\n# comment\ngeo 0 ; 1,0 ;\ngeo -1 ; 1,0 ;\n")
        assert "line 5" in str(err.value)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_holonomy_rejected(self):
        with pytest.raises(ParseError, match="unitary") as err:
            parse_spectrum("rank 1;\ngeo 1.0 ; 1e999,0 ;\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "body",
        [
            "1.0.0",  # read as 1.0 and .0 by a number scan
            "1,0 junk",
            "1e0x,0",
            "1 0",
            "1,0;",  # the line is "geo 1.0 ; 1,0;;"
            "1 ,0",
            "1,,0",
            "(1,0)",
        ],
    )
    def test_holonomy_grammar_rejects(self, body):
        with pytest.raises(ParseError, match="malformed") as err:
            parse_spectrum(f"rank 1;\ngeo 1.0 ; {body} ;\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "body, value",
        [
            ("1,0", 1),
            ("0,1", 1j),
            ("-1,0", -1),
            ("1e0,-0", 1),
            ("+1.,0.0", 1),
            (".6,.8", 0.6 + 0.8j),
            ("-6E-1,8e-1", -0.6 + 0.8j),
            ("  1,0\t", 1),
        ],
    )
    def test_holonomy_grammar_accepts(self, body, value):
        spec = parse_spectrum(f"rank 1;\ngeo 1.0 ; {body} ;\n")
        assert spec.holonomies[0, 0, 0] == value

    def test_pairs_separated_by_any_whitespace(self):
        spec = parse_spectrum("rank 2;\ngeo 1.0 ;1,0\t0,0   0,0 0,1;\n")
        np.testing.assert_array_equal(spec.holonomies[0], [[1, 0], [0, 1j]])
