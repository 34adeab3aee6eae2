"""Twisted Alexander pipeline: Phi, boundaries, pivots, special values."""

import tracemalloc

import numpy as np
import pytest

from torsionlab import LaurentPoly, UnitaryRep, parse_presentation, twisted_alexander
from torsionlab.freegroup import fox_derivative
from torsionlab.laurent import LaurentMatrix
from torsionlab.reps import UNITARITY_TOL
from torsionlab import twisted
from torsionlab.twisted import (
    CUSPIDAL_TOL,
    H1_TOL,
    boundary2,
    choose_pivot,
    cuspidality_check,
    phi_apply,
    value_at_1,
)

from conftest import (
    KNOT_NAMES,
    SEIFERT,
    float_edge,
    load_corpus_presentation,
    random_abelian_rep,
    random_unitary,
    seifert_alexander,
    torus_braid_closure,
    up_to_unit_monomial,
)
from oracles import (
    ONE,
    GroupRingElement,
    boundary1,
    boundary2_sequential,
    close_to,
    cuspidal_stacked,
    matmul,
    max_abs_coeff,
    mul,
    pivot_candidates,
)

TREFOIL = "gens x1 x2; wirtinger; rel x1 x2 x1 x2^-1 x1^-1 x2^-1;"


class TestPhi:
    def test_generator_maps_to_xi_t(self):
        rep = UnitaryRep.character(2, 1j)
        m = phi_apply(GroupRingElement.of_word((1,)), rep)
        assert m.rows == m.cols == 1
        assert m[0, 0] == LaurentPoly(1, (1j,))

    def test_identity_element(self):
        rep = UnitaryRep.character(2, 1j)
        m = phi_apply(GroupRingElement.of_word(()), rep)
        assert m[0, 0] == ONE

    def test_linear_combination(self):
        # x1 x2 - 1 under rho = xi gives xi^2 t^2 - 1
        xi = np.exp(0.3j)
        rep = UnitaryRep.character(2, xi)
        elem = GroupRingElement.of_word((1, 2)) - GroupRingElement.of_word(())
        m = phi_apply(elem, rep)
        assert close_to(m[0, 0], LaurentPoly(0, [-1, 0, xi**2]), rtol=1e-12)

    def test_ring_homomorphism(self, rng):
        rep = random_abelian_rep(rng, 2, 2)
        u = GroupRingElement.of_word((1, -2)) + GroupRingElement.of_word((2,), 2.0)
        v = GroupRingElement.of_word((1,), -1.5) + GroupRingElement.of_word(())
        lhs = phi_apply(u * v, rep)
        rhs = matmul(phi_apply(u, rep), phi_apply(v, rep))
        for i in range(2):
            for j in range(2):
                assert close_to(lhs[i, j], rhs[i, j], rtol=1e-10)


class TestBoundaries:
    def test_boundary1_single_generator(self):
        pres = parse_presentation("gens a; wirtinger;")
        xi = np.exp(2j * np.pi / 7)
        b1 = boundary1(pres, UnitaryRep.character(1, xi))
        assert (b1.rows, b1.cols) == (1, 1)
        assert close_to(b1[0, 0], LaurentPoly(0, [-1, xi]), rtol=1e-12)

    def test_boundary1_trivial_rep(self):
        pres = parse_presentation(TREFOIL)
        b1 = boundary1(pres, UnitaryRep.character(2, 1.0))
        expected = LaurentPoly(0, [-1, 1])
        for i in range(2):
            assert close_to(b1[i, 0], expected, rtol=1e-12)

    def test_boundary1_rank2_diagonal(self):
        pres = parse_presentation(TREFOIL)
        xi = np.exp(0.4j)
        rep = UnitaryRep([np.diag([xi, xi.conjugate()])] * 2)
        b1 = boundary1(pres, rep)
        assert b1.rows == 4 and b1.cols == 2
        assert close_to(b1[0, 0], LaurentPoly(0, [-1, xi]), rtol=1e-12)
        assert close_to(b1[1, 1], LaurentPoly(0, [-1, xi.conjugate()]), rtol=1e-12)
        assert b1[0, 1].is_zero and b1[1, 0].is_zero

    def test_boundary2_unknot_is_empty(self):
        pres = parse_presentation("gens a; wirtinger;")
        b2, _ = boundary2(pres, UnitaryRep.character(1, 1j))
        assert b2.rows == 0

    def test_boundary2_trefoil_trivial_rep(self):
        # first entry is the abelianized Fox derivative 1 - t + t^2... times t^0
        pres = parse_presentation(TREFOIL)
        b2, _ = boundary2(pres, UnitaryRep.character(2, 1.0))
        assert (b2.rows, b2.cols) == (1, 2)
        assert close_to(b2[0, 0], LaurentPoly(0, [1, -1, 1]), rtol=1e-12)

    @pytest.mark.parametrize("name", KNOT_NAMES)
    def test_chain_condition(self, name, rng):
        pres = load_corpus_presentation(name)
        for k in range(6):
            rank = k % 3 + 1
            rep = random_abelian_rep(rng, pres.n_generators, rank)
            prod = matmul(boundary2(pres, rep)[0], boundary1(pres, rep))
            assert max_abs_coeff(prod) <= 1e-10


def boundary2_reference(pres, rep, skip_generator=None):
    """boundary2 entry by entry from phi_apply(fox_derivative(rel, i))."""
    r = rep.rank
    cols = [i for i in range(1, pres.n_generators + 1) if i != skip_generator]
    rows = []
    for rel in pres.relators:
        blocks = [phi_apply(fox_derivative(rel, i), rep) for i in cols]
        for a in range(r):
            rows.append([blk[a, b] for blk in blocks for b in range(r)])
    return rows


class TestBoundary2AgainstReference:
    def compare(self, pres, rep, exact):
        for skip in [None] + list(range(1, pres.n_generators + 1)):
            got, _ = boundary2(pres, rep, skip_generator=skip)
            ref = boundary2_reference(pres, rep, skip_generator=skip)
            n_cols = (pres.n_generators - (skip is not None)) * rep.rank
            assert (got.rows, got.cols) == (len(ref), n_cols)
            for a, row in enumerate(ref):
                for b, want in enumerate(row):
                    if exact:
                        assert got[a, b] == want
                    else:
                        assert close_to(got[a, b], want, rtol=1e-12)

    @pytest.mark.parametrize("name", KNOT_NAMES + ["synthetic_h1"])
    @pytest.mark.parametrize("xi", [1j, -1.0, 1.0])
    def test_corpus_gaussian_characters_exact(self, name, xi):
        # rho(prefix) and every sum are Gaussian integers: no rounding at all
        pres = load_corpus_presentation(name)
        self.compare(pres, UnitaryRep.character(pres.n_generators, xi), exact=True)

    @pytest.mark.parametrize("name", KNOT_NAMES + ["synthetic_h1"])
    def test_random_unitary_ranks_1_to_3(self, name, rng):
        pres = load_corpus_presentation(name)
        for r in (1, 2, 3):
            rep = UnitaryRep([random_unitary(rng, r) for _ in range(pres.n_generators)])
            self.compare(pres, rep, exact=False)

    def test_torus_knot_3_16_rank4(self, rng):
        pres = torus_braid_closure(3, 16)
        assert max(len(rel) for rel in pres.relators) > 30
        self.compare(pres, random_abelian_rep(rng, 3, 4), exact=False)

    @pytest.mark.parametrize("p,q", [(2, 29), (2, 63), (3, 28), (3, 53)])
    def test_rank1_long_relators_bitwise(self, p, q, rng):
        # the rank-1 walk is a cumulative product; a 1x1 matmul that rounds
        # differently (an FMA in the BLAS, say) shows up here bit for bit
        pres = torus_braid_closure(p, q)
        reps = [UnitaryRep.character(pres.n_generators, np.exp(1j * rng.uniform(-np.pi, np.pi)))
                for _ in range(3)]
        reps.append(UnitaryRep([np.exp(1j * rng.uniform(-np.pi, np.pi, (1, 1)))
                                for _ in range(pres.n_generators)]))
        for rep in reps:
            for skip in (None, 1, pres.n_generators):
                got = boundary2(pres, rep, skip_generator=skip)[0].coef
                assert got.tobytes() == boundary2_sequential(pres, rep, skip).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: torus_braid_closure(3, 16),
        # a cubed commutator puts three terms on one block at one degree, so
        # only the word order of the additions gives these sums bit for bit
        lambda: parse_presentation("gens a b; rel " + "a b a^-1 b^-1 " * 3 + ";"),
    ], ids=["T(3,16)", "commutator cubed"])
    def test_ranks_1_to_3_bitwise(self, make, rng):
        pres = make()
        for r in (1, 2, 3):
            rep = UnitaryRep([random_unitary(rng, r) for _ in range(pres.n_generators)])
            for skip in (None, 2):
                got = boundary2(pres, rep, skip_generator=skip)[0].coef
                assert got.tobytes() == boundary2_sequential(pres, rep, skip).tobytes()


    @pytest.mark.parametrize("make,ranks", [
        (lambda: torus_braid_closure(2, 63), (1,)),
        (lambda: torus_braid_closure(3, 16), (1, 2, 3)),
        (lambda: parse_presentation("gens a b; rel " + "a b a^-1 b^-1 " * 3 + ";"), (1, 2, 3)),
    ], ids=["T(2,63)", "T(3,16)", "commutator cubed"])
    def test_relator_images_are_of_word_bitwise(self, make, ranks, rng):
        # the relator images that validate the rep are the walk's last prefixes
        pres = make()
        for r in ranks:
            rep = UnitaryRep([random_unitary(rng, r) for _ in range(pres.n_generators)])
            for skip in (None, 1, 2):
                _, images = boundary2(pres, rep, skip_generator=skip)
                assert len(images) == len(pres.relators)
                for image, rel in zip(images, pres.relators):
                    assert image.tobytes() == rep.of_word(rel).tobytes()


class TestTracedWork:
    """The Fox route's work happens inside the spans the benchmark traces."""

    def test_boundary2_is_one_tensor(self, monkeypatch, rng):
        pres = torus_braid_closure(3, 16)
        rep = UnitaryRep([random_unitary(rng, 8)] * 3)
        built = []
        init = LaurentPoly.__init__
        monkeypatch.setattr(LaurentPoly, "__init__", lambda p, *a: built.append(1) or init(p, *a))
        b2, _ = boundary2(pres, rep, skip_generator=1)
        assert type(b2) is LaurentMatrix
        assert b2.coef.shape[:2] == (16, 16)
        assert not built

    def test_twisted_alexander_takes_two_determinants(self, monkeypatch, rng):
        pres = torus_braid_closure(3, 16)
        rep = UnitaryRep([random_unitary(rng, 8)] * 3)
        calls = []
        det = LaurentMatrix.det
        monkeypatch.setattr(LaurentMatrix, "det", lambda m: calls.append(m.rows) or det(m))
        res = twisted_alexander(pres, rep)
        # delta0 of the pivot block, and delta1
        assert res.pivot_column == 1
        assert calls == [8, 16]


class TestFoxCap:
    """boundary2 refuses a tensor of more than MAX_CELLS^2 coefficients; the
    edge is tested at a cap of 4, 16 coefficients."""

    @pytest.mark.parametrize("power,rank,ok", [(2, 2, True), (3, 2, False), (3, 1, True)])
    def test_edge(self, monkeypatch, power, rank, ok):
        # prefix degrees 0..power+1: a rank x rank x (power + 2) tensor
        pres = parse_presentation(f"gens a b; wirtinger; rel a^{power} b A^{power} B;")
        rep = UnitaryRep([np.eye(rank)] * 2)
        monkeypatch.setattr(twisted, "MAX_CELLS", 4)
        if ok:
            assert boundary2(pres, rep, skip_generator=1)[0].coef.shape == (rank, rank, power + 2)
        else:
            with pytest.raises(ValueError, match=r"2 x 2 x 5 coefficients .* MAX_CELLS\^2 = 16$"):
                boundary2(pres, rep, skip_generator=1)

    def test_refused_before_any_fox_term(self):
        # 64 relators of 8192 letters, prefix degrees 0..4096: a 64 x 64 x
        # 4097 tensor, one coefficient past the cap.  The span comes from the
        # prefix degree bounds, so the refusal peaks near the parsed words
        # (8 bytes a letter), not at the Fox tables (32 more a letter)
        text = "gens " + " ".join(f"a_{i}" for i in range(1, 66)) + "; wirtinger;\n" + "".join(
            f"rel a_{i}^4095 a_{i + 1} A_{i}^4095 A_{i + 1};\n" for i in range(1, 65))
        tracemalloc.start()
        try:
            pres = parse_presentation(text)
            parsed = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match=r"^Fox Jacobian of 64 x 64 x 4097 coefficients "
                               r"\(rows x columns x degrees\) exceeds MAX_CELLS\^2 = 16777216$"):
                twisted_alexander(pres, UnitaryRep.character(65, 1j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed >= 64 * 8192 * 8
        assert peak <= 1.5 * parsed, f"{peak / 1e6:.1f} MB against {parsed / 1e6:.1f} MB parsed"
        assert "fox_terms" not in vars(pres)


class TestPivot:
    def test_rank1_character(self):
        pres = parse_presentation(TREFOIL)
        assert choose_pivot(pres, UnitaryRep.character(2, 1j))[0] == 1

    def test_trivial_rep(self):
        # det(t - 1) is nonzero as a polynomial
        pres = parse_presentation(TREFOIL)
        assert choose_pivot(pres, UnitaryRep.character(2, 1.0))[0] == 1

    def test_first_of_the_candidates(self, rng):
        pres = load_corpus_presentation("figure_eight")
        for r in (1, 2, 3):
            rep = random_abelian_rep(rng, 2, r)
            assert choose_pivot(pres, rep)[0] == pivot_candidates(pres, rep)[0]

    def test_stops_at_first_valid_generator(self, monkeypatch):
        pres = load_corpus_presentation("knot_5_2")
        calls = []
        det = LaurentMatrix.det
        monkeypatch.setattr(LaurentMatrix, "det", lambda m: calls.append(1) or det(m))
        assert choose_pivot(pres, UnitaryRep.character(pres.n_generators, 1j))[0] == 1
        assert len(calls) == 1

    def test_identity_image_rank2_still_pivots(self):
        # det(t I - I) = (t - 1)^2 is nonzero as a polynomial
        pres = parse_presentation("gens a b; rel a b a^-1 b^-1;")
        rep = UnitaryRep([np.eye(2), np.diag([1j, -1j])])
        assert choose_pivot(pres, rep)[0] == 1

    def test_twisted_alexander_calls_choose_pivot_once(self, monkeypatch):
        pres = load_corpus_presentation("trefoil")
        calls = []
        choose = twisted.choose_pivot
        monkeypatch.setattr(twisted, "choose_pivot", lambda *a: calls.append(a[2]) or choose(*a))
        twisted_alexander(pres, UnitaryRep.character(2, 1j))
        twisted_alexander(pres, UnitaryRep.character(2, 1j), pivot=2)
        assert calls == [1, 2]


class TestEveryGeneratorIsAPivot:
    """det(rho(x_i) t - I) has leading and constant coefficients of modulus 1
    for unitary rho, so the 8-point vanishing test of ``pivot_candidates``
    accepts every generator; ``choose_pivot`` relies on this."""

    PRESENTATIONS = KNOT_NAMES + ["synthetic_h1", (2, 15), (3, 16)]

    @pytest.mark.parametrize("name", PRESENTATIONS,
                             ids=lambda n: "T(%d,%d)" % n if isinstance(n, tuple) else n)
    def test_random_unitary_images(self, rng, name):
        pres = (torus_braid_closure(*name) if isinstance(name, tuple)
                else load_corpus_presentation(name))
        n = pres.n_generators
        for r in range(1, 9):
            for _ in range(4):
                rep = UnitaryRep([random_unitary(rng, r) for _ in range(n)])
                assert pivot_candidates(pres, rep) == list(range(1, n + 1))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_identity_and_minus_identity(self, r):
        pres = torus_braid_closure(3, 16)
        for u in (np.eye(r), -np.eye(r)):
            assert pivot_candidates(pres, UnitaryRep([u] * 3)) == [1, 2, 3]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_images_just_inside_unitarity_tol(self, rng, sign):
        pres = torus_braid_closure(3, 16)
        for r in range(1, 9):
            for u in (np.eye(r), -np.eye(r), random_unitary(rng, r)):
                # a defect of |(1 + e)^2 - 1| sqrt(r), about 0.9 UNITARITY_TOL
                images = [u * (1 + sign * 0.45 * UNITARITY_TOL / np.sqrt(r))] * 3
                defect = np.linalg.norm(images[0].conj().T @ images[0] - np.eye(r))
                assert 0.8 * UNITARITY_TOL < defect <= UNITARITY_TOL
                assert pivot_candidates(pres, UnitaryRep(images)) == [1, 2, 3]


class TestCuspidality:
    def test_nontrivial_character_is_cuspidal(self):
        pres = load_corpus_presentation("figure_eight")
        assert cuspidality_check(UnitaryRep.character(2, 1j), pres)

    def test_trivial_rep_not_cuspidal(self):
        pres = load_corpus_presentation("figure_eight")
        assert not cuspidality_check(UnitaryRep.character(2, 1.0), pres)

    def test_common_fixed_vector_detected(self):
        # rho(mu) = diag(1, xi), rho(lambda) = I share the fixed vector e1.
        pres = parse_presentation(
            "gens a b; rel a b a^-1 b^-1; meridian a; longitude b;"
        )
        rep = UnitaryRep([np.diag([1.0, 1j]), np.eye(2)])
        assert not cuspidality_check(rep, pres)

    def test_missing_peripheral(self):
        # without meridian/longitude words cuspidality is unknown
        pres = parse_presentation(TREFOIL)
        assert cuspidality_check(UnitaryRep.character(2, 1j), pres) is None


PERIPHERAL = "gens a b; rel a b a^-1 b^-1; meridian a; longitude b;"


class TestCuspidalEdge:
    """``cuspidality_check`` decides as the stacked rule, kept as
    ``oracles.cuspidal_stacked``, on both sides of each of its edges.

    Scale: rho is unitary, so rho(w) - I has 2-norm at most 2 and the
    stacked matrix [rho(meridian) - I; rho(longitude) - I] at most 2 sqrt 2.
    LAPACK's singular values are within about eps times that norm, 6e-16,
    of the true ones, so CUSPIDAL_TOL = 1e-9 can be absolute: it sits six
    orders of magnitude above the rounding at every rank.

    Interlacing: with A = rho(meridian) - I and B = rho(longitude) - I the
    stacked matrix has Gram matrix A^H A + B^H B >= A^H A, so by Weyl's
    monotonicity each of its singular values is at least A's of the same
    index.  When A's computed smallest singular value is above
    2 CUSPIDAL_TOL, its true one is above 2 CUSPIDAL_TOL - 6e-16, so is the
    stacked matrix's true one, and its computed one is above CUSPIDAL_TOL by
    nearly 1e-9: the stacked rule says True whatever B, and the meridian
    alone decides.

    diag(e^{i theta}, ...) - I has the singular value |e^{i theta} - 1|,
    theta to rounding at these angles, so each edge is found by bisecting
    theta over floats."""

    @staticmethod
    def rep(meridian, longitude):
        return UnitaryRep([np.diag(meridian), np.diag(longitude)])

    @staticmethod
    def walked(monkeypatch, rep, pres):
        """cuspidality_check's verdict and the words it walked."""
        words = []
        of_word = UnitaryRep.of_word
        with monkeypatch.context() as m:
            m.setattr(UnitaryRep, "of_word", lambda r, w: words.append(w) or of_word(r, w))
            verdict = cuspidality_check(rep, pres)
        return verdict, words

    def test_stacked_rule_edge(self, monkeypatch):
        # rho(meridian) = diag(1, i) fixes e1, which rho(longitude) =
        # diag(e^{i theta}, 1) moves by |e^{i theta} - 1|
        pres = parse_presentation(PERIPHERAL)
        reps = {}

        def rule(theta):
            reps[theta] = self.rep([1, 1j], [np.exp(1j * theta), 1])
            return cuspidality_check(reps[theta], pres)

        below, above = float_edge(rule, 0.5 * CUSPIDAL_TOL, 2 * CUSPIDAL_TOL)
        assert abs(below - CUSPIDAL_TOL) <= 4 * np.spacing(CUSPIDAL_TOL)
        for theta, want in ((below, False), (above, True)):
            rep = reps[theta]
            stacked = np.vstack([rep.images[0] - np.eye(2), rep.images[1] - np.eye(2)])
            assert (np.linalg.svd(stacked, compute_uv=False).min() > CUSPIDAL_TOL) == want
            assert self.walked(monkeypatch, rep, pres) == (want, [pres.meridian, pres.longitude])
            assert cuspidal_stacked(rep, pres) == want

    @pytest.mark.parametrize("longitude", [[1, 1], [1, -1j], [np.exp(0.3j), 1j]])
    def test_meridian_shortcut_edge(self, monkeypatch, longitude):
        # rho(meridian) = diag(e^{i theta}, i): the longitude is walked only
        # while theta <= 2 CUSPIDAL_TOL, and both sides say True, as the
        # stacked rule does
        pres = parse_presentation(PERIPHERAL)

        def shortcut(theta):
            rep = self.rep([np.exp(1j * theta), 1j], longitude)
            return self.walked(monkeypatch, rep, pres)[1] == [pres.meridian]

        below, above = float_edge(shortcut, CUSPIDAL_TOL, 4 * CUSPIDAL_TOL)
        assert abs(below - 2 * CUSPIDAL_TOL) <= 4 * np.spacing(2 * CUSPIDAL_TOL)
        for theta, skips in ((below, False), (above, True)):
            rep = self.rep([np.exp(1j * theta), 1j], longitude)
            sv = np.linalg.svd(rep.images[0] - np.eye(2), compute_uv=False)
            assert (sv.min() > 2 * CUSPIDAL_TOL) == skips
            verdict, words = self.walked(monkeypatch, rep, pres)
            assert verdict is True and cuspidal_stacked(rep, pres) is True
            assert words == [pres.meridian] + [pres.longitude] * (not skips)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_random_reps_agree_with_the_stacked_rule(self, r, rng):
        # a meridian eigenvalue e^{i theta} from 0 to 1e-6 rad, the others at
        # least 0.1 rad from 1, against longitudes that commute with it or not
        pres = parse_presentation(PERIPHERAL)
        for theta in [0.0, *np.logspace(-12, -6, 13)]:
            u = random_unitary(rng, r)
            phases = np.append(theta, rng.uniform(0.1, 2 * np.pi - 0.1, r - 1))
            meridian = u @ np.diag(np.exp(1j * phases)) @ u.conj().T
            commuting = u @ np.diag(np.exp(1j * rng.uniform(0, 1e-8, r))) @ u.conj().T
            for longitude in (np.eye(r), commuting, random_unitary(rng, r)):
                rep = UnitaryRep([meridian, longitude])
                assert cuspidality_check(rep, pres) == cuspidal_stacked(rep, pres)


class TestWalkCounts:
    """``twisted_alexander`` walks each relator once, in ``boundary2``, then
    the meridian, and the longitude only when rho(meridian) fixes a vector."""

    @staticmethod
    def walks(monkeypatch, pres, rep):
        walked = []
        walk = UnitaryRep.prefix_products
        with monkeypatch.context() as m:
            m.setattr(UnitaryRep, "prefix_products",
                      lambda r, letters, lengths: walked.append(letters) or walk(r, letters, lengths))
            twisted_alexander(pres, rep)
        return walked

    @pytest.mark.parametrize("name", KNOT_NAMES)
    def test_relators_then_the_meridian(self, monkeypatch, name, rng):
        pres = load_corpus_presentation(name)
        n, once = pres.n_generators, [*pres.relators, pres.meridian]
        for rep in (UnitaryRep.character(n, 1j), UnitaryRep.character(n, -1.0),
                    random_abelian_rep(rng, n, 4, avoid_eigenvalue_one=True)):
            assert self.walks(monkeypatch, pres, rep) == once
        # the trivial character fixes every vector, so the longitude decides
        trivial = UnitaryRep.character(n, 1.0)
        assert self.walks(monkeypatch, pres, trivial) == once + [pres.longitude]


class TestErrorOrder:
    """Which of two faults in one input ``twisted_alexander`` reports.

    ``boundary2`` checks the Fox cap before it walks the relators, and the
    relator images of that walk are checked before the pivot, so the order
    is: cap, a generator the rep lacks, generator count, relators, pivot."""

    PRES = "gens a b; wirtinger; rel a^3 b A^3 B;"

    @staticmethod
    def ill_defined():
        # D^3 is not scalar, so a^3 b a^-3 b^-1 maps to a non-identity matrix
        c, s = np.cos(0.7), np.sin(0.7)
        return UnitaryRep([np.diag(np.exp([0.3j, -0.3j])), np.array([[c, -s], [s, c]])])

    def test_relator_fault_past_the_fox_cap(self, monkeypatch):
        pres = parse_presentation(self.PRES)
        with pytest.raises(ValueError, match=r"^relator 1 maps to a non-identity matrix"):
            twisted_alexander(pres, self.ill_defined())
        # a rank-2 Jacobian of 2 x 2 x 5 coefficients, past a cap of 4
        monkeypatch.setattr(twisted, "MAX_CELLS", 4)
        with pytest.raises(ValueError, match=r"^Fox Jacobian of 2 x 2 x 5 coefficients"):
            twisted_alexander(pres, self.ill_defined())

    @pytest.mark.parametrize("pivot", [0, 3])
    def test_relator_fault_and_bad_pivot(self, pivot):
        pres = parse_presentation(self.PRES)
        with pytest.raises(ValueError, match=r"^relator 1 maps to a non-identity matrix"):
            twisted_alexander(pres, self.ill_defined(), pivot=pivot)
        with pytest.raises(ValueError, match=rf"^generator {pivot} is not a valid pivot$"):
            twisted_alexander(pres, UnitaryRep([np.eye(2)] * 2), pivot=pivot)

    def test_bad_pivot_past_the_fox_cap(self, monkeypatch):
        monkeypatch.setattr(twisted, "MAX_CELLS", 4)
        with pytest.raises(ValueError, match=r"^Fox Jacobian of 2 x 4 x 5 coefficients"):
            twisted_alexander(parse_presentation(self.PRES), UnitaryRep([np.eye(2)] * 2), pivot=3)

    def test_generator_count(self):
        pres = parse_presentation(self.PRES)
        with pytest.raises(ValueError, match=r"^presentation has 2 generators, rep has 3 images$"):
            twisted_alexander(pres, UnitaryRep([np.eye(2)] * 3))
        # one image short: the Fox walk meets the missing generator first
        with pytest.raises(ValueError, match=r"^word uses generator 2, rep has 1$"):
            twisted_alexander(pres, UnitaryRep([np.eye(2)]))


class TestTwistedAlexander:
    def test_trefoil_classical_alexander(self):
        pres = load_corpus_presentation("trefoil")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1.0))
        oracle = seifert_alexander(SEIFERT["trefoil"])
        assert up_to_unit_monomial(res.delta1, oracle, tol=1e-9)

    def test_figure_eight_classical_alexander(self):
        pres = load_corpus_presentation("figure_eight")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1.0))
        oracle = seifert_alexander(SEIFERT["figure_eight"])
        assert up_to_unit_monomial(res.delta1, oracle, tol=1e-9)

    def test_figure_eight_xi_i(self):
        # Corollary-style closed form: R(0) = |A(i) / (1 - i)|^2 = 9/2
        pres = load_corpus_presentation("figure_eight")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1j))
        assert res.h1_vanishes and res.cuspidal
        assert res.ruelle_at_0 == pytest.approx(4.5, abs=1e-10)
        # delta0 is 1 - xi t up to a unit
        assert up_to_unit_monomial(res.delta0, LaurentPoly(0, [1, -1j]), tol=1e-9)

    def test_figure_eight_xi_minus_one(self):
        pres = load_corpus_presentation("figure_eight")
        res = twisted_alexander(pres, UnitaryRep.character(2, -1.0))
        assert res.ruelle_at_0 == pytest.approx(6.25, abs=1e-10)

    def test_ruelle_is_square_of_torsion(self):
        pres = load_corpus_presentation("knot_5_2")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1j))
        assert res.ruelle_at_0 == res.torsion_at_1**2

    def test_unknot_degenerate_pipeline(self):
        pres = load_corpus_presentation("unknot")
        xi = 1j
        res = twisted_alexander(pres, UnitaryRep.character(1, xi))
        assert res.delta1 == ONE
        assert res.ruelle_at_0 == pytest.approx(abs(1 / (1 - xi)) ** 2, abs=1e-12)

    def test_h1_nonvanishing_flagged(self):
        # commutator relator: delta1 = xi t - 1 vanishes at t = 1 for the
        # trivial character, so the first homology obstruction fires
        pres = load_corpus_presentation("synthetic_h1")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1.0))
        assert not res.h1_vanishes
        assert res.torsion_at_1 is None and res.ruelle_at_0 is None

    def test_abelian_specialization(self):
        # rank-1 rho_xi: delta1(t) = A(xi t) and delta0(t) = 1 - xi t up to
        # units; compare moduli at 16 points on |t| = 1.
        xi = np.exp(2j * np.pi / 9)
        for name in ("trefoil", "figure_eight", "knot_5_2"):
            pres = load_corpus_presentation(name)
            res = twisted_alexander(pres, UnitaryRep.character(2, xi))
            oracle = seifert_alexander(SEIFERT[name])
            for k in range(16):
                z = np.exp(2j * np.pi * k / 16)
                assert abs(res.delta1(z)) == pytest.approx(abs(oracle(xi * z)), abs=1e-9)
                assert abs(res.delta0(z)) == pytest.approx(abs(1 - xi * z), abs=1e-9)

    def test_alexander_symmetry(self):
        # |delta1(e^{i theta})| = |delta1(e^{-i theta})| for the trivial rep
        pres = load_corpus_presentation("figure_eight")
        res = twisted_alexander(pres, UnitaryRep.character(2, 1.0))
        for theta in np.linspace(0.1, 3.0, 7):
            assert abs(res.delta1(np.exp(1j * theta))) == pytest.approx(
                abs(res.delta1(np.exp(-1j * theta))), rel=1e-9
            )

    def test_pivot_invariance_rank2(self, rng):
        # Wada: the special value is independent of the pivot column
        pres = load_corpus_presentation("figure_eight")
        for _ in range(5):
            rep = random_abelian_rep(rng, 2, 2, avoid_eigenvalue_one=True)
            values = []
            for pivot in (1, 2):
                res = twisted_alexander(pres, rep, pivot=pivot)
                values.append(abs(res.delta1(1.0) / res.delta0(1.0)))
            assert values[0] == pytest.approx(values[1], rel=1e-9)

    def test_rank2_abelian_factorizes(self, rng):
        # shared image V diag(xi1, xi2) V*: |delta1| factors through the
        # rank-1 values at each eigenvalue
        pres = load_corpus_presentation("trefoil")
        xi1, xi2 = np.exp(0.7j), np.exp(-1.9j)
        from conftest import random_unitary

        v = random_unitary(rng, 2)
        u = v @ np.diag([xi1, xi2]) @ v.conj().T
        rep = UnitaryRep([u, u])
        res = twisted_alexander(pres, rep)
        r1 = twisted_alexander(pres, UnitaryRep.character(2, xi1))
        r2 = twisted_alexander(pres, UnitaryRep.character(2, xi2))
        assert res.torsion_at_1 == pytest.approx(
            r1.torsion_at_1 * r2.torsion_at_1, rel=1e-9
        )

    @pytest.mark.parametrize("p, q, rank", [(2, 33, 8), (3, 32, 4)])
    def test_abelian_delta1_is_product_over_eigenvalues(self, monkeypatch, rng, p, q, rank):
        # U = V diag(xi) V*: conjugation block-diagonalises boundary2, so
        # delta1 is the product of the rank-1 delta1 at U's eigenvalues.  The
        # 8 x 8 boundary2 spans S = 257 exponents, sampled in 5 cosets of 52
        # points, where a power-of-two sampler took 512
        pres = torus_braid_closure(p, q)
        rep = random_abelian_rep(rng, p, rank)
        lengths = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda x: lengths.append(len(x)) or fft(x))
        delta1 = twisted_alexander(pres, rep).delta1
        assert lengths == [rank + 1, 260]
        product = ONE
        for xi in np.linalg.eigvals(rep.images[0]):
            product = mul(product, twisted_alexander(pres, UnitaryRep.character(p, xi)).delta1)
        assert up_to_unit_monomial(delta1, product, tol=1e-9)

    def test_requires_wirtinger(self):
        pres = parse_presentation("gens a b; rel a b a^-1 b^-1;")
        with pytest.raises(ValueError, match="Wirtinger"):
            twisted_alexander(pres, UnitaryRep.character(2, 1j))

    def test_invalid_pivot_rejected(self):
        pres = load_corpus_presentation("trefoil")
        with pytest.raises(ValueError, match="generator 7 is not a valid pivot"):
            twisted_alexander(pres, UnitaryRep.character(2, 1j), pivot=7)

    @pytest.mark.parametrize("pivot", [0, -1, 3])
    def test_out_of_range_pivot_rejected(self, pivot):
        # 0 and -1 would otherwise index the images from the end
        pres = load_corpus_presentation("trefoil")
        assert pres.n_generators == 2
        with pytest.raises(ValueError, match=f"generator {pivot} is not"):
            twisted_alexander(pres, UnitaryRep.character(2, 1j), pivot=pivot)


def straddling_h1_tol():
    """Polynomials (1 + e) - t with |p(1)| = e just at and just above
    H1_TOL * max|c| = H1_TOL * (1 + e): for x = 1 + e in [1, 2], p(1) = x - 1
    is exact, so the rule flips between two neighbouring floats x."""
    x = 1.0 + H1_TOL * (1 - 1e-6)
    while not (np.nextafter(x, 2.0) - 1.0) > H1_TOL * np.nextafter(x, 2.0):
        x = np.nextafter(x, 2.0)
    below, above = (LaurentPoly(0, [float(y), -1.0]) for y in (x, np.nextafter(x, 2.0)))
    assert abs(below(1.0)) <= H1_TOL * below.max_abs_coeff()
    assert abs(above(1.0)) > H1_TOL * above.max_abs_coeff()
    return below, above


class TestH1Edge:
    """One rule, ``value_at_1``, decides both h1 and the delta0 guard."""

    def test_value_at_1(self):
        below, above = straddling_h1_tol()
        assert value_at_1(below) == (below(1.0), False)
        assert value_at_1(above) == (above(1.0), True)
        assert value_at_1(LaurentPoly(0, ())) == (0j, False)

    @staticmethod
    def as_matrix(p):
        return LaurentMatrix([p.low], np.array(p.coeffs).reshape(1, 1, -1))

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_h1_flips_at_the_edge(self, monkeypatch, side):
        p = dict(zip(("below", "above"), straddling_h1_tol()))[side]
        b2 = twisted.boundary2
        monkeypatch.setattr(twisted, "boundary2",
                            lambda *args, **kwargs: (self.as_matrix(p), b2(*args, **kwargs)[1]))
        res = twisted_alexander(load_corpus_presentation("trefoil"), UnitaryRep.character(2, 1j))
        assert res.delta1 == p
        assert res.h1_vanishes == (side == "above")
        assert (res.torsion_at_1 is None) == (side == "below")

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_delta0_guard_flips_at_the_edge(self, monkeypatch, side):
        p = dict(zip(("below", "above"), straddling_h1_tol()))[side]
        monkeypatch.setattr(twisted, "_generator_block", lambda rep, i: self.as_matrix(p))
        res = twisted_alexander(load_corpus_presentation("trefoil"), UnitaryRep.character(2, 1j))
        assert res.delta0 == p and res.h1_vanishes
        if side == "below":
            assert res.torsion_at_1 is None and res.ruelle_at_0 is None
        else:
            assert res.torsion_at_1 == abs(res.delta1(1.0) / p(1.0))

    def test_each_special_value_evaluated_once(self, monkeypatch):
        calls = []
        call = LaurentPoly.__call__
        monkeypatch.setattr(LaurentPoly, "__call__", lambda p, z: calls.append(z) or call(p, z))
        res = twisted_alexander(load_corpus_presentation("figure_eight"),
                                UnitaryRep.character(2, 1j))
        assert res.torsion_at_1 is not None
        assert calls == [1.0, 1.0]
