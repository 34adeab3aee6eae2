"""Twisted CW complexes, combinatorial Laplacians, and torsion reports."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import torsionlab.cwcomplex as cwcomplex
from torsionlab import (
    Incidence,
    ParseError,
    TwistedCWComplex,
    UnitaryRep,
    Word,
    knot_complex,
    parse_complex,
    torsion_report,
    twisted_alexander,
)
from torsionlab.cwcomplex import ZERO_EIG_REL_TOL, twisted_boundary
from torsionlab.freegroup import fox_derivative
from torsionlab.presentations import MAX_WORD_LETTERS
from torsionlab.twisted import boundary2

from conftest import (
    KNOT_NAMES,
    float_edge,
    load_corpus_presentation,
    random_abelian_rep,
    random_unitary,
    torus_braid_closure,
)
from oracles import (
    boundary1,
    circle_complex,
    comb_laplacian,
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
    w = Word(((1, 1), (2, 1), (1, -1), (2, 1), (2, 1)))
    recs = (Incidence(1, 1, w, 3), Incidence(0, -1, w, 1), Incidence(0, 1, w, 3),
            Incidence(1, -1, w, 0), Incidence(1, 1, w))
    return TwistedCWComplex(
        cells_per_degree=(2, 1), incidences=((recs,),), generator_names=("a", "b")
    )


def knot_presentations():
    out = [(name, load_corpus_presentation(name)) for name in KNOT_NAMES]
    out += [(f"T({p},{q})", torus_braid_closure(p, q))
            for p, q in ((2, 3), (2, 15), (2, 63), (3, 4), (3, 16), (3, 28))]
    return out


def point_complex():
    return TwistedCWComplex(cells_per_degree=(1,), incidences=(), generator_names=("a",))


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
    """One ``of_word_sequential`` walk per incidence, blocks added in incidence order."""
    r = rep.rank
    out = np.zeros((cx.cells_per_degree[p - 1] * r, cx.cells_per_degree[p] * r), dtype=complex)
    for i, cell in enumerate(cx.incidences[p - 1]):
        for rec in cell:
            out[rec.target * r : (rec.target + 1) * r, i * r : (i + 1) * r] += (
                rec.sign * of_word_sequential(rep, rec.word.letters).T
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
        two_cells = cx.incidences[1] if cx.top_degree == 2 else ()
        got = [[(rec.target, rec.sign, rec.word) for rec in cell] for cell in two_cells]
        assert got == fox_knot_incidences(pres)

    def test_incidences_share_their_relator(self):
        pres = torus_braid_closure(3, 16)
        cx = knot_complex(pres)
        for rel, cell in zip(pres.relators, cx.incidences[1]):
            assert all(rec.base is rel for rec in cell)

    @pytest.mark.parametrize("name", ["trefoil", "figure_eight", "knot_5_2"])
    def test_one_mutated_incidence_rejected(self, name):
        # every prefix length moved by one, and every sign flipped, in turn
        cx = knot_complex(load_corpus_presentation(name))
        cell = cx.incidences[1][0]
        for k, rec in enumerate(cell):
            changes = [{"sign": -rec.sign}]
            changes += [{"length": rec.length + d} for d in (-1, 1)
                        if 0 <= rec.length + d <= len(rec.base)]
            for change in changes:
                mutated = cell[:k] + (rec._replace(**change),) + cell[k + 1:]
                with pytest.raises(ValueError, match="composition"):
                    dataclasses.replace(cx, incidences=(cx.incidences[0],
                                                        (mutated,) + cx.incidences[1][1:]))

    @pytest.mark.parametrize("length", [-1, 7])
    def test_prefix_length_out_of_range_rejected(self, length):
        cx = knot_complex(load_corpus_presentation("trefoil"))
        rel = cx.relations[0]
        assert len(rel) == 6
        cell = (Incidence(0, 1, rel, length),) + cx.incidences[1][0][1:]
        with pytest.raises(ValueError, match=f"prefix length {length} outside 0..6"):
            dataclasses.replace(cx, incidences=(cx.incidences[0], (cell,)))

    def test_bad_composition_rejected(self):
        # a 2-cell glued along a word that is not a relator consequence
        with pytest.raises(ValueError, match="composition"):
            TwistedCWComplex(
                cells_per_degree=(1, 1, 1),
                incidences=(
                    ((Incidence(0, 1, Word.generator(1)), Incidence(0, -1, Word())),),
                    ((Incidence(0, 1, Word()),),),
                ),
                generator_names=("a",),
            )


class TestIncidence:
    W = Word(((1, 1), (2, -1), (1, 1)))

    def test_whole_word(self):
        rec = Incidence(0, 1, self.W)
        assert rec.word is self.W
        assert rec == Incidence(0, 1, self.W, 3)

    def test_prefix_built_when_read(self):
        assert [Incidence(0, -1, self.W, n).word for n in range(4)] == [
            Word(self.W.letters[:n]) for n in range(4)
        ]


class TestCayleyTree:
    def test_nodes_are_reduced_words(self, rng):
        tree = cwcomplex._CayleyTree()

        def random_letters(n):
            return tuple((int(rng.integers(1, 4)), int(rng.choice([-1, 1]))) for _ in range(n))

        seen = {}
        for _ in range(300):
            u, v = random_letters(int(rng.integers(0, 8))), random_letters(int(rng.integers(0, 8)))
            assert tree.prefixes(u)[-1] == tree.walk(0, u)
            node = tree.walk(tree.walk(0, u), v)
            want = Word(u) * Word(v)
            assert tree.word(node) == want
            # one node per reduced word, one reduced word per node
            assert seen.setdefault(want.letters, node) == node
        assert len(set(seen.values())) == len(seen)


class TestValidateWithRelators:
    """The boundary check on complexes whose 2-cells follow a word w by Fox
    derivatives while the declared relator is r."""

    R = Word(((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)))

    def complex_along(self, w):
        one_cells = tuple(
            (Incidence(0, 1, Word.generator(i)), Incidence(0, -1, Word())) for i in (1, 2)
        )
        recs = []
        for i in (1, 2):
            recs.extend(Incidence(i - 1, c, u) for u, c in fox_derivative(w, i).items())
        return TwistedCWComplex(
            cells_per_degree=(1, 2, 1),
            incidences=(one_cells, (tuple(recs),)),
            generator_names=("a", "b"),
            relations=(self.R,),
        )

    def test_relator_consequences_accepted(self):
        a, b = Word.generator(1), Word.generator(2)
        conjugates = (a * self.R * a.inverse(), b * self.R.inverse() * b.inverse())
        for w in (self.R, self.R * self.R, self.R.inverse()) + conjugates:
            self.complex_along(w)

    def test_deletion_matches_a_precomputed_pattern_list(self, rng):
        # reference: every rotation listed up front, scanned from the start
        # after each deletion
        def reference(w, relations):
            patterns = [
                base.letters[k:] + base.letters[:k]
                for r in relations
                for base in (r, r.inverse())
                for k in range(len(r))
            ]
            changed = True
            while changed:
                changed = False
                ls = w.letters
                for pat in patterns:
                    m = len(pat)
                    for start in range(len(ls) - m + 1):
                        if ls[start : start + m] == pat:
                            w = Word(ls[:start] + ls[start + m :])
                            changed = True
                            break
                    if changed:
                        break
            return w

        def random_word(n):
            return Word(tuple((int(rng.integers(1, 3)), int(rng.choice([-1, 1])))
                              for _ in range(n)))

        for _ in range(200):
            relations = tuple(random_word(int(rng.integers(1, 6))) for _ in range(2))
            w = Word()
            for _ in range(int(rng.integers(1, 6))):
                # random letters and relator rotations, freely reduced together
                r = relations[int(rng.integers(0, 2))]
                k = int(rng.integers(0, len(r))) if len(r) else 0
                rotation = Word(r.letters[k:] + r.letters[:k])
                w = w * random_word(int(rng.integers(0, 3))) * rotation
            bases = tuple(ls for r in relations for ls in (r.letters, r.inverse().letters))
            assert cwcomplex._delete_relators(w, bases) == reference(w, relations)

    def test_off_by_a_non_relator_word_rejected(self):
        a, b = Word.generator(1), Word.generator(2)
        commutator = a * b * a.inverse() * b.inverse()
        for w in (self.R * commutator, self.R * a, commutator * self.R):
            with pytest.raises(ValueError, match="composition is nonzero on 2-cell 0"):
                self.complex_along(w)


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

    def test_bd_word_at_letter_cap(self):
        text = f"gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a^{MAX_WORD_LETTERS}, 0);"
        cx = parse_complex(text)
        assert len(cx.incidences[0][0][0].word) == MAX_WORD_LETTERS

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
