"""Twisted CW complexes, combinatorial Laplacians, and torsion reports."""

import dataclasses
import math
import time
import tracemalloc
from itertools import groupby, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsionlab.cwcomplex as cwcomplex
from torsionlab import (
    ParseError,
    Presentation,
    TwistedCWComplex,
    UnitaryRep,
    knot_complex,
    parse_complex,
    parse_presentation,
    torsion_report,
    twisted_alexander,
)
from torsionlab.cwcomplex import ZERO_EIG_REL_TOL, twisted_boundary
from torsionlab.freegroup import fox_derivative, inverse, reduce
from torsionlab.presentations import MAX_WORD_LETTERS
from torsionlab.twisted import boundary2

from conftest import (
    KNOT_NAMES,
    float_edge,
    load_corpus_presentation,
    random_abelian_rep,
    random_unitary,
    torus_braid_closure,
    two_bridge,
)
from oracles import (
    boundary1,
    circle_complex,
    comb_laplacian,
    complex_from_records,
    complex_records,
    eval_at,
    fox_knot_incidences,
    of_word_sequential,
)

TREFOIL_WITH_RELATOR = """
gens a b ;
rel a b a b^-1 a^-1 b^-1 ;
cells 0 1 ;
cells 1 2 ;
cells 2 1 ;
bd 1 0 -> (+, a, 0) (-, 1, 0) ;
bd 1 1 -> (+, b, 0) (-, 1, 0) ;
bd 2 0 -> (+, 1, 0) (+, a b, 0) (-, a b a b^-1 a^-1, 0)
          (+, a, 1) (-, a b a b^-1, 1) (-, a b a b^-1 a^-1 b^-1, 1) ;
"""

# no incidence word is a prefix of another; the last cell adds three blocks
# to its target 0 in an order that is not the sorted order of their words
NO_SHARED_PREFIX = """
gens a b ;
cells 0 2 ;
cells 1 3 ;
bd 1 0 -> (+, a, 1) (-, b, 0) ;
bd 1 1 -> (+, b^-1 a, 0) (-, a^-1 b^-1, 1) ;
bd 1 2 -> (+, b, 1) (+, a, 0) (+, b^-1 a^-1, 0) (-, a^-1 b, 0) ;
"""

# two incidences of equal length, one pair of them with equal words
SHARED_LENGTH = """
gens a b ;
cells 0 2 ;
cells 1 2 ;
bd 1 0 -> (+, a b, 0) (-, b a, 1) (+, a b, 1) ;
bd 1 1 -> (-, a^-1 b, 0) (+, b^2, 1) (-, 1, 0) ;
"""


def shared_base_complex():
    """Prefix incidences of one base out of length order, two at one length."""
    w = (1, 2, -1, 2, 2)
    recs = [(1, 1, w, 3), (0, -1, w, 1), (0, 1, w, 3), (1, -1, w, 0), (1, 1, w)]
    return complex_from_records((2, 1), [[recs]], ("a", "b"))


def knot_presentations():
    out = [(name, load_corpus_presentation(name)) for name in KNOT_NAMES]
    out += [(f"T({p},{q})", torus_braid_closure(p, q))
            for p, q in ((2, 3), (2, 15), (2, 63), (3, 4), (3, 16), (3, 28))]
    return out


def point_complex():
    return TwistedCWComplex(cells_per_degree=(1,), bases=(), incidences=(),
                            generator_names=("a",))


def corpus_complexes():
    out = [("circle", circle_complex(), 1)]
    for name in KNOT_NAMES:
        pres = load_corpus_presentation(name)
        out.append((name, knot_complex(pres), pres.n_generators))
    return out


class TestTwistedBoundary:
    def test_circle_rank1(self):
        xi = 1j
        b = twisted_boundary(circle_complex(), UnitaryRep.character(1, xi), 1)
        assert b.shape == (1, 1)
        assert b[0, 0] == pytest.approx(xi - 1)

    def test_trivial_rep_gives_integer_boundary(self):
        pres = load_corpus_presentation("trefoil")
        cx = knot_complex(pres)
        b1 = twisted_boundary(cx, UnitaryRep.character(2, 1.0), 1)
        np.testing.assert_allclose(b1, np.zeros((1, 2)), atol=1e-12)
        b2 = twisted_boundary(cx, UnitaryRep.character(2, 1.0), 2)
        # abelianized Fox derivatives at t = 1: (1, -1)
        np.testing.assert_allclose(b2, np.array([[1.0], [-1.0]]), atol=1e-12)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            twisted_boundary(circle_complex(), UnitaryRep.character(1, 1j), 2)

    @pytest.mark.parametrize("name", ["trefoil", "figure_eight", "knot_5_2"])
    def test_matches_fox_boundaries_at_t_equal_1(self, name, rng):
        # cross-module oracle: the CW boundaries equal the Fox-route
        # matrices evaluated at t = 1
        pres = load_corpus_presentation(name)
        cx = knot_complex(pres)
        for rank in (1, 2):
            rep = random_abelian_rep(rng, pres.n_generators, rank)
            np.testing.assert_allclose(
                twisted_boundary(cx, rep, 1).T,
                eval_at(boundary1(pres, rep), 1.0),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                twisted_boundary(cx, rep, 2).T,
                eval_at(boundary2(pres, rep)[0], 1.0),
                atol=1e-10,
            )


def twisted_boundary_reference(cx, rep, p):
    """One ``of_word_sequential`` walk per record, blocks added in table order."""
    r = rep.rank
    out = np.zeros((cx.cells_per_degree[p - 1] * r, cx.cells_per_degree[p] * r), dtype=complex)
    for i, target, sign, base, length in zip(*cx.incidences[p - 1].tolist()):
        out[target * r : (target + 1) * r, i * r : (i + 1) * r] += (
            sign * of_word_sequential(rep, cx.bases[base][:length]).T
        )
    return out


def reference_complexes():
    out = corpus_complexes()
    pres = torus_braid_closure(3, 16)
    out.append(("T(3,16)", knot_complex(pres), pres.n_generators))
    out.append(("trefoil with relator", parse_complex(TREFOIL_WITH_RELATOR), 2))
    out.append(("no shared prefix", parse_complex(NO_SHARED_PREFIX), 2))
    pres = torus_braid_closure(2, 63)
    assert [len(r) for r in pres.relators] == [128]
    out.append(("T(2,63), a 128-letter relator", knot_complex(pres), pres.n_generators))
    out.append(("shared length", parse_complex(SHARED_LENGTH), 2))
    out.append(("shared base and length", shared_base_complex(), 2))
    return out


class TestTwistedBoundaryAgainstReference:
    @pytest.mark.parametrize("name,cx,ngen", reference_complexes())
    def test_bitwise_equal(self, name, cx, ngen, rng):
        reps = [UnitaryRep.character(ngen, xi) for xi in (1j, -1.0, 0.6 + 0.8j)]
        reps += [UnitaryRep([random_unitary(rng, r) for _ in range(ngen)]) for r in (1, 2, 3)]
        for rep in reps:
            for p in range(1, cx.top_degree + 1):
                got = twisted_boundary(cx, rep, p)
                want = twisted_boundary_reference(cx, rep, p)
                assert got.tobytes() == want.tobytes()

    def test_long_word_keeps_no_prefix_products(self, rng):
        # one 100000-letter incidence word at rank 3: storing every prefix
        # product would take 100000 * 9 * 16 bytes = 14.4 MB
        cx = parse_complex("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a^100000, 0) (-, 1, 0);")
        rep = UnitaryRep([random_unitary(rng, 3)])
        tracemalloc.start()
        try:
            got = twisted_boundary(cx, rep, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert got.tobytes() == twisted_boundary_reference(cx, rep, 1).tobytes()

    def test_long_word_rank1_walk_is_small(self, rng):
        # the rank-1 walk holds an index and a product per letter: at most
        # 40 bytes per letter of the 100000-letter incidence word
        cx = parse_complex("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a^100000, 0) (-, 1, 0);")
        rep = UnitaryRep([random_unitary(rng, 1)])
        tracemalloc.start()
        try:
            got = twisted_boundary(cx, rep, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 100_000
        assert got.tobytes() == twisted_boundary_reference(cx, rep, 1).tobytes()


class TestLaplacian:
    def test_circle(self):
        xi = 1j
        rep = UnitaryRep.character(1, xi)
        for p in (0, 1):
            lap = comb_laplacian(circle_complex(), rep, p)
            assert lap.shape == (1, 1)
            assert lap[0, 0] == pytest.approx(abs(xi - 1) ** 2)

    def test_point(self):
        lap = comb_laplacian(point_complex(), UnitaryRep.character(1, 1.0), 0)
        np.testing.assert_allclose(lap, np.zeros((1, 1)))

    def test_trivial_rep_is_classical_laplacian(self):
        pres = load_corpus_presentation("trefoil")
        cx = knot_complex(pres)
        rep = UnitaryRep.character(2, 1.0)
        B1 = twisted_boundary(cx, rep, 1)
        B2 = twisted_boundary(cx, rep, 2)
        np.testing.assert_allclose(
            comb_laplacian(cx, rep, 1),
            B1.conj().T @ B1 + B2 @ B2.conj().T,
            atol=1e-12,
        )

    @pytest.mark.parametrize("name,cx,ngen", corpus_complexes())
    def test_hermitian_psd_and_betti(self, name, cx, ngen, rng):
        reps = [UnitaryRep.character(ngen, xi) for xi in (1j, -1.0, np.exp(2j * np.pi / 5))]
        reps += [random_abelian_rep(rng, ngen, r) for r in (2, 3)]
        for rep in reps:
            r = rep.rank
            ranks = {}
            for p in range(1, cx.top_degree + 1):
                sv = np.linalg.svd(twisted_boundary(cx, rep, p), compute_uv=False)
                ranks[p] = int(np.sum(sv > 1e-9 * (1 + sv.max(initial=0.0))))
            for p in range(cx.top_degree + 1):
                lap = comb_laplacian(cx, rep, p)
                assert np.linalg.norm(lap - lap.conj().T) <= 1e-12 * (1 + np.linalg.norm(lap))
                eigs = np.linalg.eigvalsh(lap)
                assert eigs.min(initial=0.0) >= -1e-10
                dim = cx.cells_per_degree[p] * r
                betti_sv = dim - ranks.get(p, 0) - ranks.get(p + 1, 0)
                cutoff = 1e-8 * (1 + (eigs.max(initial=0.0)))
                kernel = int(np.sum(eigs < cutoff)) if dim else 0
                assert kernel == betti_sv

    @pytest.mark.parametrize("name,cx,ngen", corpus_complexes())
    def test_supersymmetry_of_spectra(self, name, cx, ngen, rng):
        rep = random_abelian_rep(rng, ngen, 2)
        for p in range(1, cx.top_degree + 1):
            B = twisted_boundary(cx, rep, p)
            up = np.sort(np.linalg.eigvalsh(B.conj().T @ B))
            down = np.sort(np.linalg.eigvalsh(B @ B.conj().T))
            up = up[up > 1e-9 * (1 + up.max(initial=0.0))]
            down = down[down > 1e-9 * (1 + down.max(initial=0.0))]
            np.testing.assert_allclose(up, down, atol=1e-9)


class TestTorsionReport:
    def test_circle_calibration(self):
        rpt = torsion_report(circle_complex(), UnitaryRep.character(1, 1j))
        assert rpt.betti == (0, 0)
        assert rpt.spectra == ((2.0,), (2.0,))
        assert rpt.torsion == pytest.approx(2**-0.5, abs=1e-12)

    def test_point(self):
        rpt = torsion_report(point_complex(), UnitaryRep.character(1, 1.0))
        assert rpt.betti == (1,)
        assert rpt.torsion == 1.0

    def test_torsion_is_exp_log(self):
        rpt = torsion_report(circle_complex(), UnitaryRep.character(1, -1.0))
        assert rpt.torsion == pytest.approx(np.exp(rpt.log_torsion))

    def test_euler_characteristic_from_kernels(self, rng):
        for name, cx, ngen in corpus_complexes():
            rep = random_abelian_rep(rng, ngen, 2)
            rpt = torsion_report(cx, rep)
            chi_cells = sum(
                (-1) ** p * c * rep.rank for p, c in enumerate(cx.cells_per_degree)
            )
            # ranks cancel in pairs, so the alternating sums agree exactly
            chi_kernels = sum((-1) ** p * h for p, h in enumerate(rpt.betti))
            assert chi_cells == chi_kernels

    @pytest.mark.parametrize("name", ["trefoil", "figure_eight", "knot_5_2"])
    def test_dual_route_against_fox(self, name):
        pres = load_corpus_presentation(name)
        cx = knot_complex(pres)
        for xi in (1j, -1.0, np.exp(2j * np.pi / 5)):
            rep = UnitaryRep.character(2, xi)
            rpt = torsion_report(cx, rep)
            res = twisted_alexander(pres, rep)
            assert rpt.betti == (0, 0, 0)
            fox = abs(res.delta1(1.0) / res.delta0(1.0))
            assert rpt.torsion == pytest.approx(fox, rel=1e-8)

    def test_builds_each_boundary_once(self, monkeypatch):
        calls = []
        original = cwcomplex.twisted_boundary

        def counting(cx, rep, p):
            calls.append(p)
            return original(cx, rep, p)

        monkeypatch.setattr(cwcomplex, "twisted_boundary", counting)
        cx = knot_complex(load_corpus_presentation("trefoil"))
        rpt = torsion_report(cx, UnitaryRep.character(2, 1j))
        assert sorted(calls) == [1, 2]
        monkeypatch.setattr(cwcomplex, "twisted_boundary", original)
        assert rpt == torsion_report(cx, UnitaryRep.character(2, 1j))


class TestZeroEigenvalueEdge:
    """ZERO_EIG_REL_TOL at its edge, on the circle with xi = e^{i theta}.

    Scale: ``eigvalsh`` is backward stable, so each computed eigenvalue of a
    Hermitian Laplacian is within a small multiple of eps * lambda_max of
    the true one, and a true zero comes out below about 1e-16 lambda_max
    times a factor of the side.  The cutoff ZERO_EIG_REL_TOL (1 + lambda_max)
    = 1e-8 (1 + lambda_max) leaves orders of magnitude of room for that at
    every side up to MAX_CELLS; the 1 keeps it at least 1e-8 when every
    eigenvalue is small.

    Both Laplacians of the circle are [|1 - xi|^2], so lambda_max = lambda
    and lambda is in the kernel when lambda < 1e-8 (1 + lambda), at theta
    near 1e-4: bisecting theta over floats puts lambda on both sides."""

    @staticmethod
    def report(theta):
        return torsion_report(circle_complex(), UnitaryRep.character(1, np.exp(1j * theta)))

    def test_betti_flips(self):
        kernel, no_kernel = float_edge(lambda theta: self.report(theta).betti, 1e-5, 1e-3)
        for theta, betti in ((kernel, (1, 1)), (no_kernel, (0, 0))):
            rpt = self.report(theta)
            assert rpt.betti == betti
            (lam,), (lam1,) = rpt.spectra
            assert lam == lam1
            assert (lam < ZERO_EIG_REL_TOL * (1 + lam)) == (betti == (1, 1))
            assert lam == pytest.approx(theta**2, rel=1e-6)
        assert abs(kernel - 1e-4) <= 1e-12


class TestKnotComplex:
    def test_unknot_is_circle(self):
        cx = knot_complex(load_corpus_presentation("unknot"))
        assert cx.cells_per_degree == (1, 1)

    def test_trefoil_cell_counts(self):
        cx = knot_complex(load_corpus_presentation("trefoil"))
        assert cx.cells_per_degree == (1, 2, 1)

    def test_rejects_non_wirtinger(self):
        from torsionlab import parse_presentation

        pres = parse_presentation("gens a b; rel a b a^-1 b^-1;")
        with pytest.raises(ValueError, match="Wirtinger"):
            knot_complex(pres)

    @pytest.mark.parametrize("name,pres", knot_presentations(),
                             ids=[name for name, _ in knot_presentations()])
    def test_incidences_match_fox_construction(self, name, pres):
        cx = knot_complex(pres)
        records = complex_records(cx)[3]
        got = [[(target, sign, word) for cell, target, sign, word in records[1] if cell == k]
               for k in range(len(pres.relators))]
        assert got == fox_knot_incidences(pres)

    def test_incidences_share_their_relator(self):
        pres = torus_braid_closure(3, 16)
        n = pres.n_generators
        cx = knot_complex(pres)
        assert all(base is rel for base, rel in zip(cx.bases[n:], pres.relators, strict=True))
        cell, _, _, base, _ = cx.incidences[1]
        assert (base == cell + n).all()

    @pytest.mark.parametrize("name", ["trefoil", "figure_eight", "knot_5_2"])
    def test_one_mutated_incidence_rejected(self, name):
        # every prefix length of 2-cell 0 moved by one, and every sign flipped, in turn
        cx = knot_complex(load_corpus_presentation(name))
        table = cx.incidences[1]
        size = len(cx.bases[table[3, 0]])
        for k in np.flatnonzero(table[0] == 0):
            sign, length = table[2, k], table[4, k]
            changes = [(2, -sign)] + [(4, length + d) for d in (-1, 1) if 0 <= length + d <= size]
            for row, value in changes:
                mutated = table.copy()
                mutated[row, k] = value
                with pytest.raises(ValueError, match="composition") as err:
                    dataclasses.replace(cx, incidences=(cx.incidences[0], mutated)
                                        ).validate_boundary()
                assert err.value.cell == (2, 0)

    @pytest.mark.parametrize("length", [-1, 7])
    def test_prefix_length_out_of_range_rejected(self, length):
        cx = knot_complex(load_corpus_presentation("trefoil"))
        assert len(cx.relations[0]) == 6
        table = cx.incidences[1].copy()
        table[4, 0] = length
        with pytest.raises(ValueError, match=f"prefix length {length} outside 0..6"):
            dataclasses.replace(cx, incidences=(cx.incidences[0], table))

    @pytest.mark.parametrize(
        "row,value,message",
        [(0, 1, "degree 2: cell 1 out of range"), (0, -1, "degree 2: cell -1 out of range"),
         (1, 2, "degree 2: target 2 out of range"), (2, 0, "incidence signs must be"),
         (3, 3, "degree 2: base index 3 out of range")],
    )
    def test_column_out_of_range_rejected(self, row, value, message):
        cx = knot_complex(load_corpus_presentation("trefoil"))
        table = cx.incidences[1].copy()
        table[row, -1] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            dataclasses.replace(cx, incidences=(cx.incidences[0], table))

    @pytest.mark.parametrize("change,message", [
        ({"cells_per_degree": ()}, "cell counts must be nonnegative, degree 0 present"),
        ({"cells_per_degree": (1, -2, 1)}, "cell counts must be nonnegative, degree 0 present"),
        ({"cells_per_degree": (1, 2, 1, 0)}, "need one incidence table per degree >= 1"),
    ], ids=["no-degree-0", "negative-count", "table-missing"])
    def test_cell_counts_and_tables_rejected(self, change, message):
        cx = knot_complex(load_corpus_presentation("trefoil"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(cx, **change)

    def test_records_out_of_cell_order_rejected(self):
        cx = knot_complex(torus_braid_closure(3, 4))
        table = cx.incidences[1][:, ::-1].copy()
        with pytest.raises(ValueError, match="^degree 2: records not in cell order$"):
            dataclasses.replace(cx, incidences=(cx.incidences[0], table))

    def test_bad_composition_rejected(self):
        # a 2-cell glued along a word that is not a relator consequence
        cx = complex_from_records((1, 1, 1), [[[(0, 1, (1,)), (0, -1, ())]], [[(0, 1, ())]]],
                                  ("a",))
        with pytest.raises(ValueError, match="composition is nonzero on 2-cell 0$") as err:
            cx.validate_boundary()
        assert err.value.cell == (2, 0)

    def test_constructor_checks_structure_only(self, monkeypatch):
        # the word problem is validate_boundary's, run by parse_complex and
        # the tests, not by the constructor or knot_complex
        def refuse(cx):
            raise AssertionError("validate_boundary ran")

        monkeypatch.setattr(TwistedCWComplex, "validate_boundary", refuse)
        knot_complex(torus_braid_closure(3, 16))
        complex_from_records((1, 1, 1), [[[(0, 1, (1,)), (0, -1, ())]], [[(0, 1, ())]]], ("a",))

    @pytest.mark.parametrize("letter", [0, 3, -3])
    def test_letter_out_of_range_rejected(self, letter):
        # two generators: a letter k is read at k + 2 of the rep's tables
        one_cells = [[(0, 1, (i,)), (0, -1, ())] for i in (1, 2)]
        bad = (1, letter)
        with pytest.raises(ValueError, match=rf"^degree 1: \(1, {letter}\) uses a generator "
                                             r"beyond the declared 2$"):
            complex_from_records((1, 3), [one_cells + [[(0, 1, bad, 1)]]], ("a", "b"))


# T(p,q) and K(p/q): p and q coprime, and p odd and q < p for K(p/q)
TORUS_KNOTS = [(p, q) for p in range(2, 7) for q in range(2, 64) if math.gcd(p, q) == 1]
TWO_BRIDGE_KNOTS = [(p, q) for p in range(3, 62, 2) for q in range(1, p) if math.gcd(p, q) == 1]


class TestFoxFormula:
    """``knot_complex`` does not validate its complex: its boundary squares
    to zero by Fox's fundamental formula, sum_i (d r / d x_i)(x_i - 1) =
    r - 1, which is 0 once the relator r is deleted.  These run the check
    that the formula makes redundant on the command line."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(pq=st.sampled_from(TORUS_KNOTS))
    def test_torus_knots(self, pq):
        knot_complex(torus_braid_closure(*pq)).validate_boundary()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(pq=st.sampled_from(TWO_BRIDGE_KNOTS))
    def test_two_bridge_knots(self, pq):
        knot_complex(two_bridge(*pq)).validate_boundary()

    def test_linear_in_the_relator(self):
        # the 16 000-letter relator (a b A B)^4000: 6.6 MB peak, where a
        # product formed per prefix took 97.6 MB at 4 000 letters
        pres = parse_presentation("gens a b; wirtinger; rel " + "a b A B " * 4000 + ";")
        tracemalloc.start()
        try:
            knot_complex(pres).validate_boundary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6, f"{peak / 1e6:.1f} MB"


# T(p,q) with p <= 5, and K(p/q)
LETTER_ORDER_KNOTS = [
    *(("T", p, q) for p in range(2, 6) for q in (3, 7, 16, 31) if math.gcd(p, q) == 1),
    *(("K", p, q) for p, q in ((5, 3), (7, 3), (13, 5), (31, 11), (61, 27))),
]


class TestLetterOrder:
    """``knot_complex`` lists a 2-cell's records in letter order.  Sorted by
    generator instead, stably, the records that add to one block entry, those
    of one relator and one generator, keep their relative order, so
    ``np.add.at`` adds each entry's terms in the same order and B2 keeps its
    bytes.  The rep's relator images are not checked here, so a rep whose
    images differ per generator tests it as well as one that is constant."""

    @staticmethod
    def generator_sorted(pres):
        """``knot_complex(pres)`` with each 2-cell's records sorted by generator."""
        n = pres.n_generators
        one_cells = [[(0, 1, (i,), 1), (0, -1, (i,), 0)] for i in range(1, n + 1)]
        two_cells = [[(i - 1, c, rel, len(w)) for i in range(1, n + 1)
                      for w, c in fox_derivative(rel, i).items()] for rel in pres.relators]
        return complex_from_records((1, n, len(pres.relators)), [one_cells, two_cells],
                                    pres.generator_names, pres.relators)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    @pytest.mark.parametrize("family,p,q", LETTER_ORDER_KNOTS)
    def test_boundary_bytes(self, family, p, q, rank, rng):
        pres = torus_braid_closure(p, q) if family == "T" else two_bridge(p, q)
        n = pres.n_generators
        cx, parent = knot_complex(pres), self.generator_sorted(pres)
        assert cx.bases == parent.bases
        cell, generator = cx.incidences[1][:2]
        order = np.lexsort((generator, cell))
        assert (cx.incidences[1][:, order] == parent.incidences[1]).all()
        for rep in (UnitaryRep([random_unitary(rng, rank)] * n),
                    UnitaryRep([random_unitary(rng, rank) for _ in range(n)])):
            got = twisted_boundary(cx, rep, 2)
            assert got.tobytes() == twisted_boundary(parent, rep, 2).tobytes()


class TestAtTheLetterBudget:
    """The CW route on 8 Wirtinger relators [x_k, x_{k+1}]^24990 over 9
    generators: 799 680 letters, the file budget less 320.

    The presentation's Fox table, derived once and read by both routes,
    is one int32 table of five rows: 20 bytes a letter.  ``knot_complex``
    keeps one int32 table per degree, 20 bytes a record, and a record per
    letter plus two per generator: half of 40 bytes a letter.  Its tables
    are read-only.
    ``twisted_boundary`` holds, besides its output, 16 + 24 r^2 bytes a
    record (its docstring), 40 at rank 1."""

    N = 9

    def presentation(self):
        relators = tuple((k, k + 1, -k, -k - 1) * 24990 for k in range(1, self.N))
        return Presentation(generator_names=tuple(f"x{k}" for k in range(1, self.N + 1)),
                            relators=relators, wirtinger=True)

    @pytest.fixture(scope="class")
    def pres(self):
        pres = self.presentation()
        pres.fox_terms
        return pres

    def test_fox_table_keeps_20_bytes_a_letter(self):
        pres = self.presentation()
        letters = sum(map(len, pres.relators))
        tracemalloc.start()
        try:
            table = pres.fox_terms
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table.shape == (5, letters) and not table.flags.writeable
        # 4 KiB for the array header and the cache entry
        assert kept <= 20 * letters + 4096, f"{kept / letters:.2f} B/letter"

    def test_knot_complex_keeps_its_columns(self, pres):
        letters = sum(map(len, pres.relators))
        assert letters == 799_680
        tracemalloc.start()
        try:
            cx = knot_complex(pres)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 16 KiB for the bases tuple, the array headers and the complex itself
        assert kept <= 20 * (letters + 2 * self.N) + 16384, f"{kept / letters:.2f} B/letter"
        for table in cx.incidences:
            with pytest.raises(ValueError, match="read-only"):
                table[2, 0] = -table[2, 0]

    def test_boundary_peak(self, pres):
        cx = knot_complex(pres)
        records = cx.incidences[1].shape[1]
        tracemalloc.start()
        try:
            out = twisted_boundary(cx, UnitaryRep.character(self.N, 1j), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 64 KiB for the group bounds and numpy's scratch
        assert peak <= out.nbytes + 40 * records + 65536, f"{peak / records:.1f} B/record"


class TestCayleyTree:
    def test_nodes_are_reduced_words(self, rng):
        tree = cwcomplex._CayleyTree()

        def random_letters(n):
            return tuple(int(rng.integers(1, 4)) * int(rng.choice([-1, 1])) for _ in range(n))

        seen = {}
        for _ in range(300):
            u, v = random_letters(int(rng.integers(0, 8))), random_letters(int(rng.integers(0, 8)))
            node = tree.prefixes(u + v)[-1]
            want = reduce(u + v)
            assert tree.word(node) == want
            # one node per reduced word, one reduced word per node
            assert seen.setdefault(want, node) == node
        assert len(set(seen.values())) == len(seen)


class TestValidateWithRelators:
    """The boundary check on complexes whose 2-cells follow a word w by Fox
    derivatives while the declared relator is r."""

    R = (1, 2, 1, -2, -1, -2)

    def complex_along(self, w):
        one_cells = [[(0, 1, (i,)), (0, -1, ())] for i in (1, 2)]
        recs = [(i - 1, c, u) for i in (1, 2) for u, c in fox_derivative(w, i).items()]
        cx = complex_from_records((1, 2, 1), [one_cells, [recs]], ("a", "b"), (self.R,))
        cx.validate_boundary()
        return cx

    def test_relator_consequences_accepted(self):
        r = self.R
        conjugates = (reduce((1, *r, -1)), reduce((2, *inverse(r), -2)))
        for w in (r, reduce(r + r), inverse(r)) + conjugates:
            self.complex_along(w)

    def test_deletion_matches_a_precomputed_pattern_list(self, rng):
        # reference: every rotation listed up front, scanned from the start
        # after each deletion
        def reference(w, relations):
            patterns = [
                base[k:] + base[:k]
                for r in relations
                for base in (r, inverse(r))
                for k in range(len(r))
            ]
            changed = True
            while changed:
                changed = False
                ls = w
                for pat in patterns:
                    m = len(pat)
                    for start in range(len(ls) - m + 1):
                        if ls[start : start + m] == pat:
                            w = reduce(ls[:start] + ls[start + m :])
                            changed = True
                            break
                    if changed:
                        break
            return w

        def random_word(n):
            return reduce(tuple(int(rng.integers(1, 3)) * int(rng.choice([-1, 1]))
                                for _ in range(n)))

        for _ in range(200):
            relations = tuple(random_word(int(rng.integers(1, 6))) for _ in range(2))
            w = ()
            for _ in range(int(rng.integers(1, 6))):
                # random letters and relator rotations, freely reduced together
                r = relations[int(rng.integers(0, 2))]
                k = int(rng.integers(0, len(r))) if len(r) else 0
                rotation = reduce(r[k:] + r[:k])
                w = reduce(w + random_word(int(rng.integers(0, 3))) + rotation)
            bases = tuple(b for r in relations for b in (r, inverse(r)))
            assert cwcomplex._delete_relators(w, bases) == reference(w, relations)

    def test_long_word_without_a_relator_rejected_in_linear_time(self):
        # the relator (a b)^16000 and a 2-cell along b^32000: the words
        # b^32000 a and b^32000 hold no rotation of it, which a search that
        # forms each rotation finds in time quadratic in the relator (2.7 s
        # at 8 000 letters)
        m = 32_000
        text = ("gens a b;\nrel " + "a b " * (m // 2) + ";\ncells 0 1;\ncells 1 2;\n"
                "cells 2 1;\nbd 1 0 -> (+, a, 0) (-, 1, 0);\nbd 1 1 -> (+, b, 0) (-, 1, 0);\n"
                f"bd 2 0 -> (+, b^{m}, 0);\n")
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"nonzero on 2-cell 0 \(line 8, col 1\)"):
            parse_complex(text)
        assert time.perf_counter() - start < 2

    def test_off_by_a_non_relator_word_rejected(self):
        commutator = (1, 2, -1, -2)
        for w in (reduce(self.R + commutator), reduce(self.R + (1,)),
                  reduce(commutator + self.R)):
            with pytest.raises(ValueError, match="composition is nonzero on 2-cell 0"):
                self.complex_along(w)


def first_nonzero_cell(cx):
    """Reference for validate_boundary's verdict: the first (p, i), in degree
    and then cell order, whose composite boundary is nonzero once each
    product is written out as a word, freely reduced and stripped of
    relators; None when there is none."""
    relators = tuple(b for r in cx.relations for b in (r, inverse(r)))
    for p in range(2, cx.top_degree + 1):
        lower = {}
        for cell, target, sign, base, length in zip(*cx.incidences[p - 2].tolist()):
            lower.setdefault(cell, []).append((target, sign, cx.bases[base][:length]))
        for i, recs in groupby(zip(*cx.incidences[p - 1].tolist()), key=lambda rec: rec[0]):
            total = {}
            for _, target, sign, base, length in recs:
                for low_target, low_sign, word in lower.get(target, ()):
                    key = low_target, cwcomplex._delete_relators(
                        reduce(cx.bases[base][:length] + word), relators)
                    total[key] = total.get(key, 0) + sign * low_sign
            if any(total.values()):
                return p, i
    return None


def verdict(cx):
    """validate_boundary's verdict: the cell it names, or None."""
    try:
        cx.validate_boundary()
    except ValueError as exc:
        p, i = exc.cell
        assert str(exc) == f"untwisted boundary composition is nonzero on {p}-cell {i}"
        return exc.cell
    return None


def with_three_cells(kc, three_cells):
    """``kc`` with one 3-cell per list of records ``(target, sign, word,
    length)`` on its 2-cells; equal new words share one base."""
    new = {}
    rows = [(i, target, sign, len(kc.bases) + new.setdefault(word, len(new)), length)
            for i, cell in enumerate(three_cells) for target, sign, word, length in cell]
    return TwistedCWComplex((*kc.cells_per_degree, len(three_cells)), (*kc.bases, *new),
                            (*kc.incidences, np.array(rows, dtype=np.int32).reshape(-1, 5).T),
                            kc.generator_names, kc.relations)


class TestValidateThreeCells:
    """validate_boundary on 3-cells over the 2-cell of a knot complex, where
    each product walks a relator: the composite of a 3-cell is its records
    times the relator's Fox terms."""

    def test_verdicts_match_the_reference(self, rng):
        def random_word(n):
            return reduce(tuple(int(rng.integers(1, 3)) * int(rng.choice([-1, 1]))
                                for _ in range(n)))

        verdicts = []
        for pres in (torus_braid_closure(2, 3),
                     parse_presentation("gens a b; wirtinger; rel a b A B a b A B;")):
            kc = knot_complex(pres)
            r = pres.relators[0]
            for _ in range(60):
                cells = []
                for _ in range(int(rng.integers(1, 4))):
                    w = random_word(int(rng.integers(0, 7)))
                    k, j, rot = (int(rng.integers(0, n + 1)) for n in (len(w), len(w), len(r)))
                    # a rotation of the relator or its inverse after a prefix of w
                    consequence = reduce(w[:k] + (r[rot:] + r[:rot], inverse(r))[j % 2])
                    other = random_word(int(rng.integers(0, 4)))
                    # the same prefix (zero), another prefix of the same base,
                    # a relator consequence, or a random word
                    w2, k2 = [(w, k), (w, j), (consequence, len(consequence)),
                              (other, len(other))][int(rng.integers(0, 4))]
                    cells.append([(0, 1, w, k), (0, -1, w2, k2)])
                cx = with_three_cells(kc, cells)
                verdicts.append(verdict(cx))
                assert verdicts[-1] == first_nonzero_cell(cx)
        assert None in verdicts and {3} == {v[0] for v in verdicts if v}

    def test_linear_in_the_relator(self):
        # the 2-cell of the 8 000-letter relator (a b A B)^2000 twice: with
        # signs (+1, -1) accepted at a 3.4 MB peak, where a copy of each lower
        # record's prefix took 259.6 MB; with (+1, +1) rejected at 3.7 MB,
        # where a word per nonzero residual took 259.7 MB
        pres = parse_presentation("gens a b; wirtinger; rel " + "a b A B " * 2000 + ";")
        kc = knot_complex(pres)
        for signs, want in (((1, -1), None), ((1, 1), (3, 0))):
            cx = with_three_cells(kc, [[(0, s, (), 0) for s in signs]])
            tracemalloc.start()
            try:
                got = verdict(cx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 16e6, f"{signs}: {peak / 1e6:.1f} MB"
        # the 2-cell twice with the same sign, on a short relator, is rejected
        kc = knot_complex(parse_presentation("gens a b; wirtinger; rel " + "a b A B " * 10 + ";"))
        assert verdict(with_three_cells(kc, [[(0, 1, (), 0), (0, 1, (), 0)]])) == (3, 0)


class TestComplexFile:
    CIRCLE = """
    gens a ;
    cells 0 1 ;
    cells 1 1 ;
    bd 1 0 -> (+, a, 0) (-, 1, 0) ;
    """

    def test_parse_circle(self):
        cx = parse_complex(self.CIRCLE)
        assert cx.cells_per_degree == (1, 1)
        rpt = torsion_report(cx, UnitaryRep.character(1, 1j))
        assert rpt.torsion == pytest.approx(2**-0.5, abs=1e-12)

    def test_missing_degree(self):
        with pytest.raises(Exception, match="contiguous"):
            parse_complex("gens a; cells 0 1; cells 2 1; bd 2 0 -> ;")

    def test_bad_sign(self):
        with pytest.raises(Exception, match="sign|'\\+'"):
            parse_complex("gens a; cells 0 1; cells 1 1; bd 1 0 -> (*, a, 0);")

    @pytest.mark.parametrize("p,q", [(3, 7), (4, 5)])
    def test_split_statements_keep_the_cell_order(self, p, q, rng):
        # each cell's records in statements of two, the cells' statements
        # taken in turn, against one statement per cell: the same
        # records in the same order, and so bitwise the same boundaries
        pres = torus_braid_closure(p, q)
        cx = knot_complex(pres)
        names = pres.generator_names

        def spell(w):
            return " ".join(names[k - 1] if k > 0 else names[-k - 1].upper() for k in w) or "1"

        header = [f"gens {' '.join(names)};", *(f"rel {spell(r)};" for r in pres.relators)]
        header += [f"cells {d} {c};" for d, c in enumerate(cx.cells_per_degree)]
        whole, split = list(header), list(header)
        for deg, records in enumerate(complex_records(cx)[3], start=1):
            chunks = []
            for i, recs in groupby(records, key=lambda rec: rec[0]):
                fields = [f"({'+' if sign > 0 else '-'}, {spell(word)}, {target})"
                          for _, target, sign, word in recs]
                whole.append(f"bd {deg} {i} -> {' '.join(fields)};")
                chunks.append([f"bd {deg} {i} -> {' '.join(fields[k:k + 2])};"
                               for k in range(0, len(fields), 2)])
            split += [line for turn in zip_longest(*chunks) for line in turn if line]
        got, want = parse_complex("\n".join(split)), parse_complex("\n".join(whole))
        assert complex_records(got) == complex_records(want) == complex_records(cx)
        for r in (1, 3):
            rep = UnitaryRep([random_unitary(rng, r) for _ in names])
            for deg in (1, 2):
                got_b, want_b = twisted_boundary(got, rep, deg), twisted_boundary(want, rep, deg)
                assert got_b.tobytes() == want_b.tobytes()

    def test_knot_complex_via_file_with_relator(self):
        # trefoil complex written out with its relator declared
        cx = parse_complex(TREFOIL_WITH_RELATOR)
        pres = load_corpus_presentation("trefoil")
        rep = UnitaryRep.character(2, 1j)
        got = torsion_report(cx, rep)
        want = torsion_report(knot_complex(pres), rep)
        assert got.torsion == pytest.approx(want.torsion, rel=1e-10)

    @pytest.mark.parametrize(
        "text,message,line,col",
        [
            # a degree past the top and a cell index past the last cell
            ("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a, 0) (-, 1, 0);\n"
             "bd 1 7 -> (+, a, 0); bd 4 0 -> (+, a, 0);", "cell index 7", 2, 1),
            ("gens a; cells 0 1; cells 1 1;\n  bd 4 0 -> (+, a, 0);", "degree 4", 2, 3),
            ("gens a; cells 0 1; cells 1 1; bd 0 0 -> ;", "degree 0", 1, 31),
            ("gens a; cells 0 1; cells 1 1; bd 1 -1 -> (+, a, 0);", "cell index -1", 1, 31),
            # bd before the cells it names
            ("gens a; bd 2 0 -> ; cells 0 1; cells 1 1;", "degree 2", 1, 9),
            ("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a, 0) (-, 1, -1);", "target index -1",
             1, 58),
            ("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a, 0) (-, 1, 1);", "target index 1",
             1, 58),
        ],
        ids=["index-past-last", "degree-past-top", "degree-0", "negative-index",
             "bd-before-cells", "negative-target", "target-past-last"],
    )
    def test_out_of_range_bd_rejected(self, text, message, line, col):
        with pytest.raises(ParseError, match=message) as err:
            parse_complex(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text,cell,line,col",
        [
            ("gens a; cells 0 1; cells 1 1; cells 2 1;\nbd 1 0 -> (+, a, 0) (-, 1, 0);\n"
             "bd 2 0 -> (+, 1, 0);", "2-cell 0", 3, 1),
            # cell 1 is given in two statements, the first of them empty
            ("gens a; cells 0 1; cells 1 1; cells 2 2;\nbd 1 0 -> (+, a, 0) (-, 1, 0);\n"
             "bd 2 0 -> (+, 1, 0) (-, 1, 0);  bd 2 1 -> ;\nbd 2 1 -> (+, a, 0);", "2-cell 1",
             3, 33),
            # the composite vanishes only once the declared relator is deleted
            (TREFOIL_WITH_RELATOR.replace("rel a b a b^-1", "rel a b a b^-2"), "2-cell 0", 9, 1),
        ],
        ids=["circle-and-a-disc", "split-cell", "wrong-relator"],
    )
    def test_non_chain_rejected_at_its_cell(self, text, cell, line, col):
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert str(err.value) == (f"untwisted boundary composition is nonzero on {cell} "
                                  f"(line {line}, col {col})")

    def test_bd_word_at_letter_cap(self):
        text = f"gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a^{MAX_WORD_LETTERS}, 0);"
        cx = parse_complex(text)
        assert len(complex_records(cx)[3][0][0][3]) == MAX_WORD_LETTERS

    def test_bd_word_one_letter_past_cap(self):
        field = f"bd 1 0 -> (+, a^{MAX_WORD_LETTERS} "
        with pytest.raises(ParseError, match="letters") as err:
            parse_complex(f"gens a; cells 0 1; cells 1 1;\n{field}a, 0);")
        assert (err.value.line, err.value.col) == (2, len(field) + 1)

    def test_rel_at_letter_cap(self):
        cx = parse_complex(f"gens a b; rel a^{MAX_WORD_LETTERS}; cells 0 1;")
        assert len(cx.relations[0]) == MAX_WORD_LETTERS

    def test_rel_one_letter_past_cap(self):
        with pytest.raises(ParseError, match="letters") as err:
            parse_complex(f"gens a b;\nrel a^{MAX_WORD_LETTERS} b; cells 0 1;")
        assert (err.value.line, err.value.col) == (2, 5 + len(f"a^{MAX_WORD_LETTERS} "))

    def test_cell_count_at_cap(self):
        cx = parse_complex(f"gens a; cells 0 1; cells 1 {cwcomplex.MAX_CELLS};")
        assert cx.cells_per_degree == (1, cwcomplex.MAX_CELLS)

    @pytest.mark.parametrize(
        "cells,rank,admitted",
        [(cwcomplex.MAX_CELLS, 1, True), (cwcomplex.MAX_CELLS // 2, 2, True),
         (cwcomplex.MAX_CELLS // 2 + 1, 2, False), (cwcomplex.MAX_CELLS // 8 + 1, 8, False)],
    )
    def test_laplacian_side_cap(self, monkeypatch, cells, rank, admitted):
        # a Laplacian's side is cells x rank, and at the cap one holds 268 MB:
        # an admitted complex stops here at its first boundary, a rejected one
        # builds none
        class Admitted(Exception):
            pass

        def stop(cx, rep, p):
            raise Admitted

        monkeypatch.setattr(cwcomplex, "twisted_boundary", stop)
        cx = parse_complex(f"gens a; cells 0 1; cells 1 {cells};")
        rep = UnitaryRep([np.eye(rank)])
        if admitted:
            with pytest.raises(Admitted):
                torsion_report(cx, rep)
        else:
            with pytest.raises(ValueError, match=f"side {cells * rank} .* MAX_CELLS = 4096$"):
                torsion_report(cx, rep)

    @pytest.mark.parametrize("count", [cwcomplex.MAX_CELLS + 1, 10**9, 10**30, -1])
    def test_cell_count_past_cap_rejected(self, count):
        with pytest.raises(ParseError, match="cell count") as err:
            parse_complex(f"gens a; cells 0 1;\ncells 1 {count};")
        assert (err.value.line, err.value.col) == (2, 9)

    def test_negative_degree_rejected(self):
        with pytest.raises(ParseError, match="degree") as err:
            parse_complex("gens a; cells 0 1; cells -1 1;")
        assert (err.value.line, err.value.col) == (1, 26)
