"""Length spectra and truncated Euler products."""

import itertools
import json
import re
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab.cli as cli
import torsionlab.ruelle as ruelle
from torsionlab import LengthSpectrum, ParseError, SpectrumWarning, format_spectrum, parse_spectrum
from torsionlab.reps import UNITARITY_TOL, unitarity_defects
from torsionlab.ruelle import GeodesicEntry, convergence_report, truncated_ruelle

from conftest import random_unitary

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_GEO = re.compile(rf"geo\s+({_NUM})\s*;(\s*(?:{_NUM},{_NUM}(?:\s+{_NUM},{_NUM})*)?\s*);")


def line_reader(text):
    """Reference for parse_spectrum: the line-by-line reader it replaced."""
    rank = None
    linenos, lengths, nums = [], array("d"), array("d")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not (m := _GEO.fullmatch(line)):
            if m := re.fullmatch(r"rank\s+(\d+)\s*;", line):
                if rank is not None:
                    raise ParseError("duplicate 'rank' header", lineno)
                rank = int(m.group(1))
                if rank < 1:
                    raise ParseError("rank must be positive", lineno)
                continue
            if m := re.fullmatch(rf"geo\s+{_NUM}\s*;(.*);", line):
                raise ParseError(f"malformed holonomy {m.group(1).strip()!r}", lineno)
            raise ParseError(f"malformed spectrum line: {line!r}", lineno)
        if rank is None:
            raise ParseError("'geo' before 'rank r;'", lineno)
        body = m.group(2)
        if (count := 2 * body.count(",")) != 2 * rank * rank:
            raise ParseError(f"expected {2 * rank * rank} numbers for a rank-{rank} "
                             f"holonomy, got {count}", lineno)
        linenos.append(lineno)
        lengths.append(float(m.group(1)))
        nums.extend(map(float, body.replace(",", " ").split()))
    if rank is None:
        raise ParseError("missing 'rank r;' header")
    holonomies = np.array(nums).view(complex)
    try:
        return LengthSpectrum(rank, lengths,
                              holonomies.reshape(-1, rank, rank) if len(lengths) else ())
    except ValueError as exc:
        raise ParseError(str(exc), linenos[exc.entry]) from None


def bits(x):
    """Exact value of a real or complex number, sign of zero included."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def entry_eigenvalues(h):
    """The eigenvalues of one holonomy as a spectrum takes them: the closed form at
    rank 2, one eigensolve at every other rank."""
    return ruelle._eigenvalues(h[None])[0] if len(h) == 2 else np.linalg.eigvals(h)


def loop_log_factor(entry, z):
    """-log det(I - rho(gamma) e^{-z l}) of one entry, its eigenvalues taken alone."""
    mus = entry_eigenvalues(entry.holonomy) * np.exp(-z * entry.length)
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


def count_eigensolves(monkeypatch):
    """The list to which each np.linalg.eigvals call appends its matrix count."""
    solved = []
    eigvals = np.linalg.eigvals

    def counting(a):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return solved


def spectrum_of(pairs, rank=1):
    """The spectrum of (length, holonomy) pairs, from the array constructor."""
    return LengthSpectrum(rank, [l for l, _ in pairs], [np.atleast_2d(h) for _, h in pairs])


class TestEntriesAndSpectrum:
    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            spectrum_of([(0.0, np.eye(1))])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            spectrum_of([(1.0, [[2.0]])])

    def test_empty_holonomy_rejected(self):
        for rank in (0, 1):
            with pytest.raises(ValueError, match="needs a rank"):
                LengthSpectrum(rank, [1.0], np.zeros((1, 0, 0)))

    def test_entries_sorted_ascending(self):
        spec = spectrum_of([(3.0, [[1.0]]), (1.0, [[-1.0]]), (2.0, [[1j]])])
        assert [e.length for e in spec.entries] == [1.0, 2.0, 3.0]

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            LengthSpectrum(2, [1.0], [np.eye(1)])

    @pytest.mark.parametrize("rank, lengths, holonomies", [
        (0, [1.0], np.ones((1, 1, 1))),
        (-1, [], ()),
        (2, [1.0], np.eye(3)[None]),
        (2, [1.0, 2.0], np.eye(2)[None]),
        (1, [1.0], np.ones((1, 1))),
        (1, [1.0], ()),
        (1, [[1.0]], np.ones((1, 1, 1))),
        (1, 1.0, np.ones((1, 1, 1))),
        (1, [], np.ones((1, 1, 1))),
    ], ids=["rank-0", "rank-negative", "holonomy-side", "count", "holonomy-ndim",
            "holonomies-empty", "lengths-2d", "lengths-0d", "lengths-empty"])
    def test_shape_or_rank_mismatch_rejected(self, rank, lengths, holonomies):
        with pytest.raises(ValueError, match="a spectrum needs a rank r >= 1") as err:
            LengthSpectrum(rank, lengths, holonomies)
        assert not hasattr(err.value, "entry")

    @pytest.mark.parametrize("piece_chars", [3, ruelle.PIECE_CHARS])
    def test_failing_entry_is_named_in_the_given_order(self, rng, monkeypatch, piece_chars):
        # lengths falling from 10 to 1: in sorted order entry k is entry 9 - k,
        # and with 3 numbers a slice each entry is checked in a slice of its own
        monkeypatch.setattr(ruelle, "PIECE_CHARS", piece_chars)
        lengths = np.arange(10.0, 0.0, -1.0)
        hs = np.array([random_unitary(rng, 1) for _ in lengths])
        for k, (length, h) in {2: (np.nan, hs[2]), 6: (1.5, 2 * hs[6]),
                               7: (-0.0, 2 * hs[7])}.items():
            bad_lengths, bad_hs = lengths.copy(), hs.copy()
            bad_lengths[k], bad_hs[k] = length, h
            bad_lengths[8], bad_hs[8] = 0.5, 3 * hs[8]  # a later failure, first in sorted order
            with pytest.raises(ValueError) as err:
                LengthSpectrum(1, bad_lengths, bad_hs)
            assert err.value.entry == k
            assert ("positive" if k != 6 else "not unitary") in str(err.value)

    def test_entries_are_plain_records(self, rng):
        hs = [random_unitary(rng, 2) for _ in range(3)]
        spec = LengthSpectrum(2, [2.0, 0.5, 1.0], hs)
        entries = spec.entries
        assert [type(e) for e in entries] == [GeodesicEntry] * 3
        assert all(isinstance(e, tuple) and type(e.length) is float for e in entries)
        assert [e.length for e in entries] == [0.5, 1.0, 2.0]
        for (_, holonomy), h in zip(entries, [hs[1], hs[2], hs[0]]):
            np.testing.assert_array_equal(holonomy, h)
        # a record checks nothing: only the constructor does
        assert GeodesicEntry(-1.0, 2 * np.eye(2)).length == -1.0

    def test_array_layout_and_stable_order(self, rng):
        for rank in (2, 3):
            hs = [random_unitary(rng, rank) for _ in range(4)]
            lengths = [2.0, 1.0, 2.0, 0.5]
            spec = LengthSpectrum(rank, lengths, hs)
            assert spec.lengths.shape == (4,) and spec.holonomies.shape == (4, rank, rank)
            assert spec.eigenvalues.shape == (4, rank)
            np.testing.assert_array_equal(spec.lengths, [0.5, 1.0, 2.0, 2.0])
            # equal lengths keep their given order
            for got, want in zip(spec.holonomies, [hs[3], hs[1], hs[0], hs[2]]):
                np.testing.assert_array_equal(got, want)
            for e, eig in zip(spec.entries, spec.eigenvalues):
                assert eig.tobytes() == entry_eigenvalues(e.holonomy).tobytes()

    @staticmethod
    def evaluate(rank, monkeypatch):
        """The eigensolves of parsing and evaluating 30 rank-r entries."""
        solved = count_eigensolves(monkeypatch)
        body = " ".join("1,0" if i == j else "0,0" for i in range(rank) for j in range(rank))
        lines = [f"rank {rank};"] + [f"geo {1 + 0.1 * k} ; {body} ;" for k in range(30)]
        spec = parse_spectrum("\n".join(lines))
        convergence_report(spec, 3.0, [1.5, 2.5, 9.0])
        truncated_ruelle(spec, 3.0)
        truncated_ruelle(spec, 3.0, cutoff=2.0)
        return solved

    def test_one_eigensolve_per_entry(self, monkeypatch):
        # rank 3: one batched eigensolve over all entries, at parse time
        assert self.evaluate(3, monkeypatch) == [30]

    def test_rank2_runs_no_eigensolve(self, monkeypatch):
        assert self.evaluate(2, monkeypatch) == []

    def test_rank1_eigenvalues_are_the_holonomies(self, monkeypatch):
        # every signed zero next to a unit part, then random phases
        signed = [(a, b) for a in (0.0, -0.0) for b in (1.0, -1.0)]
        parts = signed + [(b, a) for a, b in signed]
        phases = np.random.default_rng(11).uniform(-np.pi, np.pi, 2000)
        parts += [(float(np.cos(t)), float(np.sin(t))) for t in phases]
        text = "rank 1;\n" + "".join(f"geo {1 + k} ; {a!r},{b!r} ;\n"
                                      for k, (a, b) in enumerate(parts))
        solved = count_eigensolves(monkeypatch)
        spec = parse_spectrum(text)
        ruelle.ruelle_eval(spec, 3.0, [2.0, 9.0])
        assert solved == []
        monkeypatch.undo()
        want = np.linalg.eigvals(spec.holonomies)
        got = spec.eigenvalues
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        assert got.shape == (len(parts), 1)


EPS = np.finfo(float).eps


def pair_error(got, want):
    """Largest distance between (E, 2) eigenvalue pairs, each pair matched
    either way round, whichever is closer: LAPACK orders them its own way."""
    straight = np.maximum(abs(got[:, 0] - want[:, 0]), abs(got[:, 1] - want[:, 1]))
    crossed = np.maximum(abs(got[:, 0] - want[:, 1]), abs(got[:, 1] - want[:, 0]))
    return np.minimum(straight, crossed).max(initial=0.0)


def conjugated(rng, diagonals):
    """V diag V^H for Haar-random V, one per row of the (E, 2) diagonals."""
    vs = np.array([random_unitary(rng, 2) for _ in diagonals])
    return vs @ (diagonals[:, :, None] * np.conj(np.swapaxes(vs, 1, 2)))


class TestRank2Eigenvalues:
    """The closed form m +- sqrt(q^2 + bc) against LAPACK's eigensolve.

    The bound on a normal h is a few ulps of 1.  With u = EPS/2, m = (a + d)/2
    is off by u|m|; q^2 + bc by (2u + sqrt(5)u + u)|q^2 + bc|, since the two
    terms do not cancel (``ruelle._eigenvalues``); the square root halves that
    and adds u, and m +- s adds u again.  As |m|^2 + |s|^2 = 1 for unitary h,
    the closed form is within 6u = 3 EPS (0.71 EPS measured against mpmath).
    zgeev is backward stable, and on a normal matrix its eigenvalues move no
    more than its backward error: up to 6.3 EPS measured here.  So the two agree
    to 16 EPS = 3.6e-15.  A non-normal h with departure nu from normality moves
    its discriminant by about eta nu under a backward error eta, and a double
    eigenvalue by the square root of that: sqrt(16 EPS nu) more."""

    BOUND = 16 * EPS

    def check(self, h, bound=BOUND):
        got, want = ruelle._eigenvalues(h), np.linalg.eigvals(h)
        assert got.shape == want.shape == (len(h), 2) and got.dtype == complex
        assert np.isfinite(got).all()
        error = pair_error(got, want)
        assert error <= bound, f"{error / EPS:.2f} EPS"
        return got

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0])
    def test_eigenvalue_gaps(self, rng, gap):
        theta = rng.uniform(-np.pi, np.pi, 500)
        self.check(conjugated(rng, np.exp(1j * np.stack([theta, theta + gap], axis=1))))

    def test_diagonal_and_anti_diagonal_with_signed_zeros(self):
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        units = [1, -1, 1j, -1j, np.exp(0.3j), complex(-0.0, 1.0), complex(1.0, -0.0)]
        hs = [[[u, z0], [z1, w]] for u in units for w in units for z0 in zeros for z1 in zeros]
        hs += [[[z0, u], [w, z1]] for u in units for w in units for z0 in zeros for z1 in zeros]
        self.check(np.array(hs))

    def test_unitarity_defect_just_under_the_tolerance(self, rng):
        # a random perturbation P (defect up to 2 |P|) leaves the eigenvalues
        # well conditioned; lam I + delta V N V^H with N = [[0, 1], [0, 0]], of
        # defect sqrt(2) delta and departure delta from normality, is the worst
        # case: a double eigenvalue
        lam = np.exp(1j * rng.uniform(-np.pi, np.pi, (500, 2)))
        perturbation = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
        perturbation *= (0.45 * UNITARITY_TOL
                         / np.linalg.norm(perturbation, axis=(1, 2))[:, None, None])
        delta = 0.7 * UNITARITY_TOL
        vs = np.array([random_unitary(rng, 2) for _ in lam])
        nilpotent = vs @ np.array([[0, 1], [0, 0]]) @ np.conj(np.swapaxes(vs, 1, 2))
        jordan = lam[:, :1, None] * np.eye(2) + delta * nilpotent
        for h, bound in ((conjugated(rng, lam) + perturbation, self.BOUND),
                         (jordan, self.BOUND + np.sqrt(16 * EPS * delta))):
            defects, unitary = unitarity_defects(h)
            assert unitary.all() and defects.max() > 0.5 * UNITARITY_TOL
            self.check(h, bound)

    def test_bits_do_not_depend_on_layout_or_slices(self, rng, monkeypatch):
        # more rows than one slice, the parse table's view (rows of a length
        # and four pairs), Fortran order, one row at a time and 3-row slices
        n = 3 * ruelle.PIECE_CHARS // 16 + 5
        h = conjugated(rng, np.exp(1j * rng.uniform(-np.pi, np.pi, (n, 2))))
        table = np.empty((n, 9))
        table[:, 1:] = h.reshape(n, 4).view(float)
        stacks = [h, table[:, 1:].view(complex).reshape(n, 2, 2), np.asfortranarray(h)]
        assert not stacks[1].flags.c_contiguous and stacks[2].flags.f_contiguous
        want = ruelle._eigenvalues(h).tobytes()
        assert {ruelle._eigenvalues(stack).tobytes() for stack in stacks} == {want}
        assert b"".join(ruelle._eigenvalues(x[None]).tobytes() for x in h[:300]) == want[:300 * 32]
        monkeypatch.setattr(ruelle, "PIECE_CHARS", 96)
        assert ruelle._eigenvalues(h).tobytes() == want

    def test_empty_rank2_spectrum(self):
        for spec in (LengthSpectrum(2, (), ()), parse_spectrum("rank 2;\n"),
                     parse_spectrum("rank 2;\n# no geo lines\n\n")):
            assert spec.rank == 2 and spec.eigenvalues.shape == (0, 0)
            assert spec.holonomies.shape == (0, 0, 0)


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
        spec = LengthSpectrum(2, [1.3], [np.diag([a, b])])
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
            entries.append((l, h))
            singles.append(LengthSpectrum(2, [l], [h]))
        spec = spectrum_of(entries, 2)
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
            entries.append((l, h))
            conj_entries.append((l, u @ h @ u.conj().T))
        z = 2.7
        v1, _ = truncated_ruelle(spectrum_of(entries, 2), z)
        v2, _ = truncated_ruelle(spectrum_of(conj_entries, 2), z)
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
            value, tail = truncated_ruelle(LengthSpectrum(1, (), ()), 3.0)
        assert value == 1.0 and tail == 0.0

    def test_empty_spectrum_of_huge_rank(self):
        # nothing of size rank^2 is allocated when there are no entries
        spec = parse_spectrum("rank 1000000000;\n")
        assert spec.rank == 10**9 and spec.entries == ()
        for holonomies in ((), np.empty((0, 0))):
            empty = LengthSpectrum(10**30, [], holonomies)
            assert (empty.holonomies.shape, empty.eigenvalues.shape) == ((0, 0, 0), (0, 0))
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
        # |mu| = 1 exactly, away from the pole mu = 1
        edge = spectrum_of([(0.1 * k, [[-1.0]]) for k in range(1, 40)])
        for call in (lambda: truncated_ruelle(spec, -0.5 + 0j),
                     lambda: truncated_ruelle(edge, 0.0, cutoff=2.0),
                     lambda: convergence_report(spec, -1.0, [1.0, 2.0, 4.0])):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                call()
            radius = [w for w in record if "spectral radius" in str(w.message)]
            assert len(radius) == 1

    @pytest.mark.parametrize("z, h", [(0.0, 1.0), (-800.0, 1.0), (-800.0, -1.0), (-800.0, 1j)])
    def test_non_finite_factor_raises(self, z, h):
        # z = 0 at mu = 1 is a pole; at Re z = -800, e^{-z l} overflows from
        # l = 1 on and mu is inf or nan; no numpy warning escapes either way
        spec = spectrum_of([(0.5, [[1j]]), (1.0, [[h]]), (2.0, [[h]])])
        message = rf"the Euler factor at length 1.0 is not finite at z = {z!r},0.0$"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectrumWarning)
            warnings.simplefilter("error", RuntimeWarning)
            for call in (lambda: truncated_ruelle(spec, z),
                         lambda: convergence_report(spec, z, [1.5, 0.7]),
                         lambda: ruelle.ruelle_eval(spec, z, [3.0])):
                with pytest.raises(ValueError, match=message):
                    call()
            # the factors up to a cutoff below the fault are finite
            assert truncated_ruelle(spec, z, cutoff=0.7)[0] != 0

    def test_overflowing_tail_reads_inf_without_warnings(self):
        spec = spectrum_of([(1.0, [[1.0]]), (2.0, [[1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpectrumWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert truncated_ruelle(spec, -800.0, cutoff=0.5) == (1.0, np.inf)

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
        spec = spectrum_of(entries, rank)
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
        entries = [(float(rng.uniform(0.5, 4.0)), random_unitary(rng, 2)) for _ in range(5)]
        spec = spectrum_of(entries, 2)
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


def geo_line(length, h):
    return f"geo {length!r} ; " + " ".join(f"{c.real!r},{c.imag!r}" for c in h.ravel().tolist()) + " ;"


def random_geo_lines(rng, rank, n):
    """n geo lines in no length order, a third of them sharing lengths."""
    lengths = rng.uniform(0.3, 6.0, n)
    lengths[: n // 3] = np.round(lengths[: n // 3], 1)
    return [geo_line(float(l), random_unitary(rng, rank)) for l in lengths]


def lines_per_block(rank):
    return ruelle.BLOCK_NUMBERS // (1 + 2 * rank * rank)


def assert_same_as_line_reader(text):
    """parse_spectrum gives the reference's arrays bit for bit, or its ParseError."""
    try:
        want = line_reader(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_spectrum(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return exc
    got = parse_spectrum(text)
    assert got.rank == want.rank
    for name in ("lengths", "holonomies", "eigenvalues"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    return got


ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# ways to write the same spectrum: (head lines, geo lines) -> text
DECORATIONS = {
    "plain": lambda head, geo: "\n".join(head + geo) + "\n",
    "no final newline": lambda head, geo: "\n".join(head + geo),
    "comments": lambda head, geo: "\n".join(
        ["# a spectrum; geo 1 ; 2,0 ;"] + head
        + [g + (" # 1,0 ; rank 3;" if k % 7 == 0 else "") for k, g in enumerate(geo)]
        + ["#"]) + "\n",
    "blank lines": lambda head, geo: "\n\n \n" + "\n".join(
        head + [g + ("\n\n   \t" if k % 5 == 0 else "") for k, g in enumerate(geo)]) + "\n\n",
    "tabs": lambda head, geo: "\n".join(
        [h.replace(" ", "\t") for h in head] + [g.replace(" ", "\t ") for g in geo]) + "\n",
    "crlf": lambda head, geo: "\r\n".join(head + geo) + "\r\n",
    "unicode digits": lambda head, geo: "\n".join(
        [h.translate(ARABIC_DIGITS) for h in head]
        + [g.translate(ARABIC_DIGITS) if k % 3 == 0 else g for k, g in enumerate(geo)]) + "\n",
    "unicode whitespace": lambda head, geo: "\u3000" + "\u2028".join(head) + "\x1c" + "".join(
        g.replace(" ", "\xa0\x1f" if k % 2 else "\u2003") + "\x0b\x0c\x1d\x1e\x85\u2028\u2029\r"[k % 8]
        for k, g in enumerate(geo)),
}


NOT_NUMBERS = ["1e5e5", "1-2", "+-1", "1.2.3", ".", "e5", "1e", "1e+", "-"]


def converts(s):
    """(float(s), np.array([s], dtype=float)) as bytes, None where one raises."""
    out = []
    for conv in (lambda: np.float64(float(s)), lambda: np.array([s], dtype=float)[0]):
        try:
            out.append(conv().tobytes())
        except ValueError:
            out.append(None)
    return tuple(out)


class TestNumberTokens:
    """Over the block reader's token class, float() and numpy's str -> float64
    accept a string exactly when NUM full-matches it, with the same bits."""

    NUM = re.compile(ruelle.NUM)

    def check(self, s):
        assert re.fullmatch(ruelle._TOKEN, s)
        by_float, by_numpy = converts(s)
        assert by_float == by_numpy, s
        assert (by_float is not None) == bool(self.NUM.fullmatch(s)), s

    def test_exhaustive_short_strings(self):
        alphabet = "-+.eE01١"
        for n in range(1, 6):
            for chars in itertools.product(alphabet, repeat=n):
                self.check("".join(chars))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.text(st.sampled_from("-+.eE0123456789") | st.characters(categories=["Nd"]),
                   min_size=1, max_size=16))
    def test_property(self, s):
        self.check(s)


class TestBlockReader:
    """parse_spectrum equals the line-by-line reader it replaced, bit for bit."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("decoration", sorted(DECORATIONS))
    def test_random_spectra(self, rng, rank, decoration, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the line reader ran on a valid spectrum")

        monkeypatch.setattr(ruelle, "_raise_first_error", no_walk)
        for n in (0, 1, 2 * lines_per_block(rank) + 7):
            text = DECORATIONS[decoration]([f"rank {rank};"], random_geo_lines(rng, rank, n))
            spec = assert_same_as_line_reader(text)
            assert len(spec.lengths) == n

    def test_line_breaks_and_blanks_are_those_of_splitlines(self):
        space = {c for c in map(chr, range(0x110000)) if c.isspace()}
        breaks = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}
        assert breaks <= space
        assert {c for c in space if re.fullmatch(ruelle._BLANK, c)} == space - breaks
        assert {c for c in space if re.fullmatch(f"[{ruelle._BREAKS}]", c)} == breaks

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n# comments only\n\n",
            "geo 1 ; 1,0 ;\nrank 1;\n",
            "rank 0;\ngeo 1 ; 1,0 ;\n",
            "rank -1;\n",
            "rank 1; geo 1 ; 1,0 ;\n",
            "rank 2 # 2;\n",
            "\n\nrank 1;\nrank 2;\n",
            "rank 1;\ngeo 1 ;\x0c 1,0 ;\n",  # a line break inside a geo line
            "rank 1;\ngeo 1 ; 1,0 \x85;\n",
            "rank 1;\ngeo 1 ; 1,0 ;\x00\n",
            "rank ١;\ngeo ١ ; ١,٠ ; x\n",
            "rank 1000000000;\n\n# empty\n",
            "rank 1000000000;\ngeo 1 ; 1,0 ;\n",
            "rank 99999999999999999999;\ngeo 1 ; 1,0 ;\n",
        ],
    )
    def test_whole_file_cases(self, text):
        assert_same_as_line_reader(text)

    def test_huge_rank_gives_the_count_error(self):
        # r*r pairs never become a regex repetition count
        with pytest.raises(ParseError) as err:
            parse_spectrum("rank 1000000000;\ngeo 1 ; 1,0 ;\n")
        assert str(err.value) == ("expected 2000000000000000000 numbers for a "
                                  "rank-1000000000 holonomy, got 2 (line 2)")

    BAD_LINES = [
        "geo 1 ; 1,0 junk ;",
        "geo 1 ; 1,0 0,1 ;",
        "geo 1 ; 1,0;;",
        "geo 1 ; ;",
        "geo1 ; 1,0 ;",
        "rank 1;",
        "nonsense",
        "geo 1 ; 2,0 ;",
        "geo 0 ; 1,0 ;",
        "geo -1 ; 1,0 ;",
        "geo 1e999 ; 1,0 ;",
        "geo 1 ; 1e200,0 ;",
        # strings of NUM's characters that are no number: the block regex
        # takes them, the conversion refuses them
        *(f"geo 1 ; 0,{t} ;" for t in NOT_NUMBERS),
        *(f"geo {t} ; 1,0 ;" for t in NOT_NUMBERS),
    ]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", BAD_LINES)
    def test_malformed_line_anywhere(self, rng, bad):
        per_block = lines_per_block(1)
        geo = random_geo_lines(rng, 1, 3 * per_block)
        # line k + 2 of the file is geo[k]; blocks start at geo[0], geo[per_block], ...
        for k in (0, 5, per_block - 1, per_block, per_block + 1, 2 * per_block, len(geo) - 1):
            lines = list(geo)
            lines[k] = bad
            exc = assert_same_as_line_reader("rank 1;\n" + "\n".join(lines) + "\n")
            assert exc.line == k + 2

    def test_grammar_error_beats_an_earlier_invalid_entry(self, rng):
        geo = random_geo_lines(rng, 1, 2 * lines_per_block(1))
        geo[3], geo[-1] = "geo 1 ; 2,0 ;", "geo 1 ; 1,0 junk ;"
        exc = assert_same_as_line_reader("rank 1;\n" + "\n".join(geo) + "\n")
        assert "malformed holonomy" in str(exc) and exc.line == len(geo) + 1

    def test_first_invalid_entry_in_file_order(self, rng):
        geo = random_geo_lines(rng, 2, 3 * lines_per_block(2))
        geo[200] = geo_line(9.0, 2 * np.eye(2))
        geo[100] = geo_line(-1.0, np.eye(2))
        exc = assert_same_as_line_reader("rank 2;\n\n" + "\n".join(geo) + "\n")
        assert "positive" in str(exc) and exc.line == 103

    def test_peak_memory_is_one_block(self):
        # 20 000 rank-2 entries, 3.7 MB of text: the arrays and the unitarity
        # check take about 7 MB; a token list for the whole file adds over 12 MB
        rng = np.random.default_rng(5)
        z = rng.standard_normal((20000, 2, 2)) + 1j * rng.standard_normal((20000, 2, 2))
        q, _ = np.linalg.qr(z)
        text = "rank 2;\n" + "\n".join(geo_line(float(l), h) for l, h in
                                       zip(rng.uniform(0.3, 5.0, 20000), q)) + "\n"
        parse_spectrum(text)
        tracemalloc.start()
        try:
            spec = parse_spectrum(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec.lengths) == 20000
        assert peak < 12e6, f"{peak / 1e6:.1f} MB"

    def test_peak_memory_of_a_long_line(self):
        # one rank-100 geo line of 10 000 pairs: sre's state for the line
        # (about 0.28 KB a pair) and the number arrays; with NUM spelled out
        # per number the state is about 1.1 KB a pair, 11 MB in all
        rank = 100
        pairs = ["1,0" if i == j else "0,0" for i in range(rank) for j in range(rank)]
        text = f"rank {rank};\ngeo 1 ; " + " ".join(pairs) + " ;\n"
        tracemalloc.start()
        try:
            spec = parse_spectrum(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(spec.holonomies[0], np.eye(rank))
        assert peak < 5e6, f"{peak / 1e6:.1f} MB"

    def test_peak_memory_of_a_long_invalid_line(self):
        # the rank-100 line with 2,0 on the diagonal: the unitarity failure
        # sends the text through the line reader, which matches the line's
        # numbers as runs of NUM's characters too (with NUM per number, 11 MB)
        rank = 100
        peaks = []
        for diagonal in ("1,0", "2,0"):
            pairs = [diagonal if i == j else "0,0" for i in range(rank) for j in range(rank)]
            text = f"rank {rank};\ngeo 1 ; " + " ".join(pairs) + " ;\n"
            tracemalloc.start()
            try:
                try:
                    parse_spectrum(text)
                except ParseError:
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        exc = assert_same_as_line_reader(text)
        assert str(exc) == "holonomy is not unitary (defect 3.00e+01) (line 2)"
        assert peaks[1] <= 1.5 * peaks[0], [f"{p / 1e6:.1f} MB" for p in peaks]


def assert_file_same_as_text(path):
    """parse_spectrum of the open file gives parse_spectrum(path.read_text())'s
    arrays bit for bit, or its ParseError with the same text and line."""
    try:
        want = parse_spectrum(path.read_text())
    except ParseError as exc:
        with path.open() as f, pytest.raises(ParseError) as err:
            parse_spectrum(f)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return exc
    with path.open() as f:
        got = parse_spectrum(f)
    assert got.rank == want.rank
    for name in ("lengths", "holonomies", "eigenvalues"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    return got


class TestFilePieces:
    """An open file, read a piece of whole lines at a time, parses as its whole text does."""

    @pytest.fixture(params=[1, 7, 64, None], ids=["1", "7", "64", "default"])
    def piece_chars(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(ruelle, "PIECE_CHARS", request.param)
        return ruelle.PIECE_CHARS

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("decoration", sorted(DECORATIONS))
    def test_random_spectra(self, rng, tmp_path, piece_chars, rank, decoration):
        path = tmp_path / "s.spec"
        for n in (0, 1, 2 * lines_per_block(rank) + 7):
            path.write_text(DECORATIONS[decoration]([f"rank {rank};"],
                                                    random_geo_lines(rng, rank, n)))
            assert len(assert_file_same_as_text(path).lengths) == n

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", TestBlockReader.BAD_LINES)
    def test_malformed_line_anywhere(self, rng, tmp_path, piece_chars, bad):
        # the first line, the first of the second block and the last
        per_block = lines_per_block(1)
        geo = random_geo_lines(rng, 1, per_block + 2)
        path = tmp_path / "s.spec"
        for k in (0, per_block, len(geo) - 1):
            lines = list(geo)
            lines[k] = bad
            path.write_text("rank 1;\n" + "\n".join(lines) + "\n")
            assert assert_file_same_as_text(path).line == k + 2

    def test_grammar_error_in_a_later_piece_beats_an_invalid_entry(self, rng, tmp_path,
                                                                   piece_chars):
        geo = random_geo_lines(rng, 1, 2 * lines_per_block(1))
        geo[3], geo[-1] = "geo 1 ; 2,0 ;", "geo 1 ; 1,0 junk ;"
        path = tmp_path / "s.spec"
        path.write_text("rank 1;\n" + "\n".join(geo) + "\n")
        exc = assert_file_same_as_text(path)
        assert "malformed holonomy" in str(exc) and exc.line == len(geo) + 1

    def test_first_invalid_entry_in_file_order(self, rng, tmp_path, piece_chars):
        geo = random_geo_lines(rng, 2, 3 * lines_per_block(2))
        geo[200] = geo_line(9.0, 2 * np.eye(2))
        geo[100] = geo_line(-1.0, np.eye(2))
        path = tmp_path / "s.spec"
        path.write_text("rank 2;\n\n" + "\n".join(geo) + "\n")
        exc = assert_file_same_as_text(path)
        assert "positive" in str(exc) and exc.line == 103

    @pytest.mark.parametrize("text", [
        "", "\n# comments only\n\n", "rank 1000000000;\n\n# empty\n",
        "rank 1000000000;\ngeo 1 ; 1,0 ;\n", "# a header after comments\n" * 30 + "rank 1;\n",
        "\n" * 100 + "rank 2;\n" + "\n" * 100 + "rank 2;\n",
    ])
    def test_whole_file_cases(self, tmp_path, piece_chars, text):
        path = tmp_path / "s.spec"
        path.write_text(text)
        assert_file_same_as_text(path)

    @pytest.mark.parametrize("second_line", [b"geo 1 ; 1,0 ;\n", b"geo 1 ; junk ;\n"])
    def test_undecodable_byte_past_the_first_piece(self, tmp_path, piece_chars, second_line):
        # the position is the byte's in the file, as in a whole-file read,
        # which fails before any line is parsed
        head = (b"rank 1;\n" + second_line
                + b"geo 1 ; 1,0 ;\n" * (piece_chars // 7 + 1))
        path = tmp_path / "s.spec"
        path.write_bytes(head + b"geo 2 ; 1,0 \xff;\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text()
        with path.open() as f, pytest.raises(UnicodeDecodeError) as err:
            parse_spectrum(f)
        assert str(err.value) == str(whole.value)
        assert f"in position {len(head) + 12}:" in str(err.value)

    @staticmethod
    def unitary_geo_lines(n, rank):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((n, rank, rank)) + 1j * rng.standard_normal((n, rank, rank))
        return [geo_line(float(l), h)
                for l, h in zip(rng.uniform(0.3, 5.0, n), np.linalg.qr(z)[0])]

    @staticmethod
    def peak(parse):
        """parse()'s result and its tracemalloc peak."""
        tracemalloc.start()
        try:
            result = parse()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_the_arrays(self, tmp_path):
        # 20 000 rank-2 entries, 3.7 MB of text.  The file path holds the
        # table of rows, 8 (1 + 2 r^2) bytes an entry (with array's 1/16
        # over-allocation), then the sorted holonomies (16 r^2), the sorted
        # lengths and their order (8 + 8), the eigenvalues (16 r) and r^2,
        # for an eigensolve's finiteness mask at rank 3 and up (at rank 2
        # the closed form's two temporaries, PIECE_CHARS bytes), and about
        # one piece: a read, the piece and its blocks, 4 PIECE_CHARS bytes of
        # ASCII.  Reading the text whole first adds the text and whole-table
        # scratch (10.5 MB when the CLI read the text whole, against 4.0 MB)
        n, rank = 20000, 2
        path = tmp_path / "s.spec"
        path.write_text(f"rank {rank};\n" + "\n".join(self.unitary_geo_lines(n, rank)) + "\n")
        bound = (n * (8 * (1 + 2 * rank * rank) * 17 / 16 + 16 * rank * rank + 16 + 16 * rank
                      + rank * rank) + 4 * ruelle.PIECE_CHARS)
        peaks = []
        for read in (lambda: path.open(), lambda: path.read_text()):
            tracemalloc.start()
            try:
                source = read()
                spec = parse_spectrum(source)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if not isinstance(source, str):
                source.close()
            assert len(spec.lengths) == n
        assert peaks[0] < bound < peaks[1], [f"{p / 1e6:.2f} MB" for p in (*peaks, bound)]

    def test_peak_memory_of_an_invalid_last_entry(self, tmp_path):
        # the last of 20 000 rank-2 entries is not unitary: the line reader
        # reads the file again a piece at a time beside the parsed table, and
        # peaks below the parse of the valid file (3.1 against 4.0 MB; 10.3
        # MB when it split the whole text into lines)
        lines = self.unitary_geo_lines(20000, 2)
        path = tmp_path / "s.spec"
        path.write_text("rank 2;\n" + "\n".join(lines) + "\n")
        with path.open() as f:
            _, parsed = self.peak(lambda: parse_spectrum(f))
        lines[-1] = geo_line(1.0, 2 * np.eye(2))
        path.write_text("rank 2;\n" + "\n".join(lines) + "\n")
        with path.open() as f:
            err, failed = self.peak(lambda: pytest.raises(ParseError, parse_spectrum, f))
        assert (str(err.value), err.value.line) == ("holonomy is not unitary (defect 4.24e+00) "
                                                    "(line 20001)", 20001)
        assert failed <= parsed, [f"{p / 1e6:.2f} MB" for p in (failed, parsed)]


class TestRuelleEval:
    """ruelle_eval reads the table and the value off one running sum."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_equals_separate_calls(self, rng, rank):
        lengths = rng.uniform(0.3, 6.0, 300)
        lengths[:100] = np.round(lengths[:100], 1)
        spec = spectrum_of([(float(l), random_unitary(rng, rank)) for l in lengths], rank)
        cutoffs = [3.3, 0.1, float(lengths[7]), 9.0, 1.2, float(np.max(lengths))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for z in (3.0, 2.5 + 0.3j, 4.0 - 1.0j, 1.5 + 0.2j, -0.5j):
                for cuts in ([], cutoffs):
                    rows, value = ruelle.ruelle_eval(spec, z, cuts)
                    want = convergence_report(spec, z, cuts)
                    assert [(r[0], bits(r[1]), r[2], r[3] and bits(r[3])) for r in rows] == \
                        [(r[0], bits(r[1]), r[2], r[3] and bits(r[3])) for r in want]
                    assert [bits(x) for x in value] == \
                        [bits(x) for x in truncated_ruelle(spec, z)]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_tail_bound_beyond_largest_cutoff(self, rng, rank):
        lengths = rng.uniform(0.3, 6.0, 300)
        spec = spectrum_of([(float(l), random_unitary(rng, rank)) for l in lengths], rank)
        for cuts in ([4.5, 1.2], [float(np.sort(lengths)[-2]), 0.5]):
            for z in (3.0, 2.5 + 0.3j, 0.5j):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    tail = ruelle.ruelle_eval(spec, z, cuts)[1][1]
                    want = truncated_ruelle(spec, z, max(cuts))[1]
                assert tail > 0 and bits(tail) == bits(want)

    def test_empty_spectrum_and_warnings(self):
        empty = LengthSpectrum(3, (), ())
        with pytest.warns(SpectrumWarning, match="empty"):
            assert ruelle.ruelle_eval(empty, 3.0, [1.0]) == ([(1.0, 0j, 0, None)], (1 + 0j, 0.0))
        spec = spectrum_of([(1.0, [[1.0]])])
        with pytest.warns(SpectrumWarning) as record:
            ruelle.ruelle_eval(spec, -1.0)
        messages = [str(w.message) for w in record]
        assert sum("spectral radius" in m for m in messages) == 1
        assert sum("convergence region" in m for m in messages) == 1

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_cli_computes_one_prefix(self, rng, tmp_path, monkeypatch, capsys, fmt):
        # 40 entries beyond the largest cutoff make the tail nonzero
        lines = random_geo_lines(rng, 2, 500)
        lines += [geo_line(float(l), random_unitary(rng, 2)) for l in rng.uniform(7.5, 9.0, 40)]
        path = tmp_path / "s.spec"
        path.write_text("rank 2;\n" + "\n".join(lines) + "\n")
        spec = parse_spectrum(path.read_text())
        cutoffs = [2.0, 0.5, 4.25, 7.0]
        z = 2.75 - 0.5j
        rows = convergence_report(spec, z, cutoffs)
        value = truncated_ruelle(spec, z)[0]
        tail = truncated_ruelle(spec, z, max(cutoffs))[1]
        assert tail > 0

        calls = []
        log_prefix = ruelle._log_prefix

        def counting(spec, z, n):
            calls.append(n)
            return log_prefix(spec, z, n)

        monkeypatch.setattr(ruelle, "_log_prefix", counting)
        argv = ["ruelle-eval", str(path), "--z=2.75,-0.5", "--cutoffs=2,0.5,4.25,7",
                f"--format={fmt}"]
        assert cli.main(argv) == 0
        assert calls == [540]
        out = capsys.readouterr().out
        fields = (json.loads(out) if fmt == "json-lines" else
                  dict(line.split(" = ", 1) for line in out.splitlines()[1:]))
        for L, logv, used, delta in rows:
            row = f"L={cli.fmt(L)} log_value={cli.fmt_complex(logv)} used={used}"
            if delta is not None:
                row += f" delta={cli.fmt(delta)}"
            assert fields[f"cutoff_{cli.fmt(L)}"] == row
        assert fields["value"] == cli.fmt_complex(value)
        assert fields["tail_bound"] == cli.fmt(tail)
