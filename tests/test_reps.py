"""Representation construction, validation, and file parsing."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest

from torsionlab import (
    ParseError,
    UnitaryRep,
    parse_presentation,
    parse_spectrum,
    twisted_alexander,
)
import torsionlab.reps as reps
from torsionlab.freegroup import reduce
from torsionlab.reps import RELATOR_TOL, UNITARITY_TOL, parse_representation, unitarity_defects
from torsionlab.ruelle import LengthSpectrum

from conftest import float_edge, random_unitary
from oracles import of_word_sequential


class TestUnitaryRep:
    def test_character(self):
        rep = UnitaryRep.character(2, 1j)
        assert rep.rank == 1
        assert rep.of_word((1, 2))[0, 0] == pytest.approx(-1.0)

    def test_non_unit_character_rejected(self):
        with pytest.raises(ValueError, match="modulus 1"):
            UnitaryRep.character(1, 2.0)

    @pytest.mark.parametrize("xi", [1j, 2.0])
    def test_character_of_no_generators_rejected(self, xi):
        # the constructor's error, not the modulus one, whatever xi is
        with pytest.raises(ValueError, match=r"^a representation needs at least one generator"):
            UnitaryRep.character(0, xi)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryRep([np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_word_product_order(self, rng):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        rep = UnitaryRep([u, v])
        got = rep.of_word((1, -2, 1))
        np.testing.assert_allclose(got, u @ v.conj().T @ u, atol=1e-12)

    @pytest.mark.parametrize(
        "entry,defect", [(np.inf, "nan"), (np.nan, "nan"), (1e200, "inf")]
    )
    def test_non_finite_image_rejected_without_warnings(self, entry, defect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"not unitary \(defect {defect}\)"):
                UnitaryRep([np.array([[entry]])])

    @pytest.mark.parametrize("xi", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0)])
    def test_non_finite_character_rejected(self, xi):
        with pytest.raises(ValueError, match="modulus 1"):
            UnitaryRep.character(2, xi)

    @pytest.mark.parametrize("images,message", [
        ([np.eye(2), np.eye(3)], "generator image 2 is not 2x2"),
        ([np.zeros((1, 2))], "generator image 1 is not 1x1"),
    ], ids=["two-ranks", "not-square"])
    def test_image_shapes_rejected(self, images, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            UnitaryRep(images)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            UnitaryRep([np.zeros((0, 0))] * 2)

    def test_character_checked_once(self, monkeypatch):
        calls = []
        check = reps.unitarity_defects
        monkeypatch.setattr(reps, "unitarity_defects", lambda m: calls.append(m.shape) or check(m))
        assert UnitaryRep.character(3, 0.6 + 0.8j).rank == 1
        assert len(calls) == 1
        with pytest.raises(ValueError, match=r"^character value must have modulus 1, got \|xi\|=2.0$"):
            UnitaryRep.character(3, 2.0)
        assert len(calls) == 2

    def test_nan_relator_image_rejected(self):
        pres = parse_presentation("gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;")
        rep = UnitaryRep.character(2, 1j)
        rep.images[0][0, 0] = np.nan  # set after the unitarity check
        with pytest.raises(ValueError, match=r"relator 1 maps to a non-identity matrix"):
            rep.validate_against(pres, [rep.of_word(r) for r in pres.relators])

    def test_validate_against(self):
        pres = parse_presentation("gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;")
        good = UnitaryRep.character(2, 1j)
        good.validate_against(pres, [good.of_word(r) for r in pres.relators])
        bad = UnitaryRep([np.array([[1j]]), np.array([[-1j]])])
        with pytest.raises(ValueError, match="relator"):
            bad.validate_against(pres, [bad.of_word(r) for r in pres.relators])


class TestRelatorEdge:
    """One rule, in ``validate_against``, for relator images from ``of_word``
    and for those ``twisted_alexander`` reads off the Fox walk.

    rho(a) = R_phi, a rotation, and rho(b) = diag(1, -1) send the
    commutator to R_{2 phi}, of defect 2 sqrt 2 sin(phi); bisecting phi over
    floats puts the defect on both sides of RELATOR_TOL."""

    PRES = "gens a b; wirtinger; rel a b A B;"

    @staticmethod
    def rep(phi):
        c, s = np.cos(phi), np.sin(phi)
        return UnitaryRep([np.array([[c, -s], [s, c]]), np.diag([1.0, -1.0])])

    def verdicts(self, phi):
        """Whether validate_against, on the images of ``of_word``, and
        twisted_alexander accept the rep."""
        pres, rep = parse_presentation(self.PRES), self.rep(phi)
        out = []
        for check in (lambda: rep.validate_against(pres, [rep.of_word(pres.relators[0])]),
                      lambda: twisted_alexander(pres, rep)):
            try:
                check()
                out.append(True)
            except ValueError as exc:
                assert str(exc).startswith("relator 1 maps to a non-identity matrix (defect ")
                out.append(False)
        return out

    def test_same_verdict_on_both_sides(self):
        pres = parse_presentation(self.PRES)

        def defect(phi):
            return np.linalg.norm(self.rep(phi).of_word(pres.relators[0]) - np.eye(2))

        inside, outside = float_edge(lambda phi: defect(phi) <= RELATOR_TOL,
                                     0.1 * RELATOR_TOL, RELATOR_TOL)
        assert defect(inside) <= RELATOR_TOL < defect(outside)
        assert defect(outside) - defect(inside) <= 8 * np.spacing(RELATOR_TOL)
        assert self.verdicts(inside) == [True] * 2
        assert self.verdicts(outside) == [False] * 2

    def test_given_images_are_checked_in_order(self):
        pres = parse_presentation("gens a b c; wirtinger; rel a b A B; rel b c B C;")
        rep = UnitaryRep.character(3, 1j)
        rep.validate_against(pres, [np.eye(1)] * 2)
        for images, k in (([np.eye(1), [[np.nan]]], 2), ([[[1j]], [[np.nan]]], 1)):
            with pytest.raises(ValueError, match=rf"^relator {k} maps to a non-identity matrix"):
                rep.validate_against(pres, np.array(images, dtype=complex))

    def test_twisted_alexander_validates_on_the_fox_walk(self, monkeypatch):
        pres, rep = parse_presentation(self.PRES), self.rep(0.3)
        seen = []
        validate = UnitaryRep.validate_against
        monkeypatch.setattr(UnitaryRep, "validate_against",
                            lambda r, p, images: seen.append(images) or validate(r, p, images))
        with pytest.raises(ValueError, match=r"^relator 1 maps to a non-identity matrix"):
            twisted_alexander(pres, rep)
        [images] = seen
        assert images[0].tobytes() == rep.of_word(pres.relators[0]).tobytes()


class TestPrefixProducts:
    """One-word ``prefix_images`` against a walk of one matmul per letter, bitwise."""

    @staticmethod
    def prefixes(rep, word, lengths):
        return rep.prefix_images([word], np.zeros(len(lengths), dtype=np.int32),
                                 np.array(lengths, dtype=np.int32))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_bitwise_equal_to_sequential_walk(self, rank, rng):
        rep = UnitaryRep([random_unitary(rng, rank) for _ in range(3)])
        letters = tuple(int(i) * int(s) for i, s in zip(rng.integers(1, 4, 60),
                                                        rng.choice([-1, 1], 60)))
        for lengths in ([0], [60], [0, 0, 7, 7, 7, 31, 60, 60], list(range(61)), []):
            got = self.prefixes(rep, letters, lengths)
            assert got.shape == (len(lengths), rank, rank)
            for length, mat in zip(lengths, got):
                assert mat.tobytes() == of_word_sequential(rep, letters[:length]).tobytes()
        word = reduce(letters)
        assert rep.of_word(word).tobytes() == of_word_sequential(rep, word).tobytes()

    @pytest.mark.parametrize("rank", [1, 2])
    def test_unknown_generator(self, rank):
        rep = UnitaryRep([np.eye(rank)] * 2)
        with pytest.raises(ValueError, match=r"^word uses generator 3, rep has 2$"):
            self.prefixes(rep, (1, -3, 4), [3])
        with pytest.raises(ValueError, match=r"^word uses generator 3, rep has 2$"):
            rep.of_word((2, 3))
        # letters past the longest requested prefix are not read
        assert self.prefixes(rep, (1, -3), [0, 1]).shape == (2, rank, rank)

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("letter", [0, 3, -3])
    def test_letter_out_of_range(self, rank, letter):
        # letter k is read at k + n of a table of 2n + 1 entries: 0 would read
        # the identity, and -(n + 1) would wrap around to the last image
        rep = UnitaryRep([np.eye(rank)] * 2)
        with pytest.raises(ValueError, match=rf"^word uses generator {abs(letter)}, rep has 2$"):
            self.prefixes(rep, (1, -2, letter, 2), [1, 4])
        with pytest.raises(ValueError, match=rf"^word uses generator {abs(letter)}, rep has 2$"):
            rep.of_word((letter,))
        assert self.prefixes(rep, (1, -2, letter), [0, 2]).shape == (2, rank, rank)


class TestPrefixImages:
    """``prefix_images`` against one ``of_word_sequential`` walk per record, bitwise."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_bitwise_equal_per_record(self, rank, rng, monkeypatch):
        rep = UnitaryRep([random_unitary(rng, rank) for _ in range(3)])
        words = [tuple(int(i) * int(s) for i, s in zip(rng.integers(1, 4, size),
                                                       rng.choice([-1, 1], size)))
                 for size in (40, 17, 1, 0)]
        # lengths 0 and full, some between, each (word, length) pair twice, shuffled
        pairs = [(b, length) for b, w in enumerate(words)
                 for length in {0, len(w), *rng.integers(0, len(w) + 1, 4).tolist()}] * 2
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        base, length = np.array(pairs, dtype=np.int32).T
        # the stray-letter check reads each walked word once, to its longest record
        walked = []
        check = reps.stray_letter
        monkeypatch.setattr(reps, "stray_letter",
                            lambda word, n: walked.append(word) or check(word, n))
        got = rep.prefix_images(words, base, length)
        assert got.shape == (len(pairs), rank, rank)
        for (b, length), mat in zip(pairs, got):
            assert mat.tobytes() == of_word_sequential(rep, words[b][:length]).tobytes()
        # each word walked once, in word order
        assert walked == words

    @pytest.mark.parametrize("rank", [1, 2])
    def test_no_records(self, rank):
        rep = UnitaryRep([np.eye(rank)] * 2)
        none = np.empty(0, dtype=np.int32)
        assert rep.prefix_images([(1, 2)], none, none).shape == (0, rank, rank)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_unknown_generator(self, rank):
        rep = UnitaryRep([np.eye(rank)] * 2)
        words = [(1, 2), (2, -3, 1)]
        with pytest.raises(ValueError, match=r"^word uses generator 3, rep has 2$"):
            rep.prefix_images(words, np.array([1, 0, 1]), np.array([1, 2, 2]))
        # letters past a word's longest requested prefix are not read
        assert rep.prefix_images(words, np.array([1, 0]), np.array([1, 2])).shape == (2, rank, rank)


class TestRepFile:
    def test_char_shorthand(self):
        rep = parse_representation("rank 1;\nchar a = 0,1;\nchar b = 0,1;\n", ("a", "b"))
        assert rep.rank == 1
        assert rep.images[0][0, 0] == 1j

    def test_mat_entries(self):
        text = """
        rank 2;
        mat a = [ [0,0], [1,0], [1,0], [0,0] ];
        """
        rep = parse_representation(text, ("a",))
        np.testing.assert_allclose(rep.images[0], np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError, match="pairs"):
            parse_representation("rank 2;\nmat a = [ [1,0] ];", ("a",))

    ONE, ZERO = "[1,0]", "[0,0]"

    @pytest.mark.parametrize(
        "body",
        [
            "junk [1,0], [0,0], [0,0], [1,0]",
            "[1,0], [0,0], [0,0], [1,0] junk",
            "[1,0], [0,0], x [0,0], [1,0]",
            "[1,0] [0,0], [0,0], [1,0]",
            "[1,0],, [0,0], [0,0], [1,0]",
            ", [1,0], [0,0], [0,0], [1,0]",
            "[1,0], [0,0], [0,0], [1,0],",
            "[1,0], [0,0], [0,0], [1,0]]",
            "[1,0], [0,0], [ 0 0 ], [0,0], [1,0]",
        ],
    )
    def test_text_between_pairs_rejected(self, body):
        text = f"rank 2;\nmat a = [ {body} ];\n"
        with pytest.raises(ParseError, match=r"one comma between \(line 2\)"):
            parse_representation(text, ("a",))

    def test_pairs_across_lines(self):
        text = "rank 2;\nmat a = [[1,0],[0,0]  ,\n  [0,0]\n, [ 1 , 0 ] # identity\n];\n"
        rep = parse_representation(text, ("a",))
        np.testing.assert_array_equal(rep.images[0], np.eye(2))

    def test_mat_memory_linear_in_pairs(self):
        # a regex repetition over the pairs keeps about 1.3 KB of sre state
        # per pair, some 185 times the pair's text
        r = 100
        pairs = ", ".join(self.ONE if k % (r + 1) == 0 else self.ZERO for k in range(r * r))
        text = f"rank {r};\nmat a = [ {pairs} ];\n"
        tracemalloc.start()
        try:
            rep = parse_representation(text, ("a",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(rep.images[0], np.eye(r))
        assert peak < 64 * len(text)

    def test_missing_generator(self):
        with pytest.raises(ParseError, match="no matrix assigned"):
            parse_representation("rank 1;\nchar a = 1,0;", ("a", "b"))

    def test_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_representation("rank 1;\nchar a = 1,0;\nchar c = 1,0;", ("a",))

    def test_char_requires_rank_one(self):
        with pytest.raises(ParseError, match="rank 1"):
            parse_representation("rank 2;\nchar a = 1,0;", ("a",))

    def test_statement_lines(self):
        # the line of a statement is that of its ';', comments and blank lines counted
        text = "rank 1;\n\n# c ; d\nchar a = 1,0;\nchar b =\n 1,0;\n\nbogus\n;\n"
        with pytest.raises(ParseError, match=r"unrecognized statement 'bogus' \(line 9\)"):
            parse_representation(text, ("a", "b"))
        with pytest.raises(ParseError, match=r"'char' requires 'rank 1;' first \(line 4\)"):
            parse_representation(text.replace("rank 1", "rank 2"), ("a", "b"))

    def test_many_statements_in_linear_time(self):
        # line numbers were once recounted from the start for every statement,
        # so 100 000 statements took about a minute; one generator each, as a
        # generator takes one assignment
        n = 100_000
        names = tuple(f"a{k}" for k in range(n))
        body = "rank 1;\n" + "".join(f"char {nm} = 1,0;\n" for nm in names[:-1])
        start = time.perf_counter()
        rep = parse_representation(body + f"char {names[-1]} = 0,1;\n", names)
        assert time.perf_counter() - start < 10.0
        assert rep.images[-1][0, 0] == 1j
        with pytest.raises(ParseError) as err:
            parse_representation(body + f"char {names[-1]} = 1,0,0;\n", names)
        assert err.value.line == n + 1
        assert str(err.value) == (f"unrecognized statement 'char {names[-1]} = 1,0,0' "
                                  f"(line {n + 1})")

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("rank 1;\nchar a = 0,1;\nchar a = -1,0;\nchar b = 0,1;\n",
             "duplicate assignment to generator 'a'", 3),
            ("rank 1;\nchar b = 0,1;\nmat b = [ [0,1] ];\nchar a = 0,1;\n",
             "duplicate assignment to generator 'b'", 3),
            ("rank 2;\nmat a = [ [1,0], [0,0], [0,0], [1,0] ];\n\n"
             "mat a = [ [0,1], [0,0], [0,0], [0,1] ];\n", "duplicate assignment to generator 'a'",
             4),
            ("rank 1;\nchar a = 0,1;\n# rank 2;\nrank 1;\nchar b = 0,1;\n",
             "duplicate 'rank' header", 4),
            ("rank 2;\nrank 2;\nmat a = [ [1,0], [0,0], [0,0], [1,0] ];\n",
             "duplicate 'rank' header", 2),
        ],
        ids=["char-char", "char-mat", "mat-mat", "rank-after-char", "rank-rank"],
    )
    def test_one_rank_and_one_assignment_per_generator(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_representation(text, ("a", "b"))
        assert str(err.value) == f"{message} (line {line})"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("rank 1;\nchar a = 0,1;\nchar b = 0,1; junk\n", "trailing text after the last ';'"),
            ("rank 0;\nchar a = 0,1;\nchar b = 0,1;\n", "rank must be positive (line 1)"),
            ("mat a = [ [0,1] ];\nrank 1;\nchar b = 0,1;\n",
             "'mat' requires 'rank r;' first (line 1)"),
            ("# no statements\n", "missing 'rank r;' header"),
        ],
        ids=["trailing-text", "rank-0", "mat-before-rank", "no-rank"],
    )
    def test_rank_header_and_trailing_text(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_representation(text, ("a", "b"))
        assert str(err.value) == message


def sheared(phases, beta):
    """diag(e^{i a}, e^{i c}) with beta e^{i b} above the diagonal.  Its
    defect is sqrt(2) beta up to rounding, and beta's grid is fine enough
    to put the defect within an ulp or two of any value."""
    a, b, c = np.exp(1j * phases)
    return np.array([[a, beta * b], [0, c]])


def unitarity_edge(seed):
    """A seeded rank-2 matrix whose defect is the largest at most
    UNITARITY_TOL along its shear, and the one with the next larger beta."""
    phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, 3)
    inside, outside = float_edge(lambda beta: unitarity_defects(sheared(phases, beta)[None])[1][0],
                                 *(f * UNITARITY_TOL / np.sqrt(2) for f in (0.5, 1.5)))
    return sheared(phases, inside), sheared(phases, outside)


class TestUnitarityEdge:
    """One rule, ``unitarity_defects``, for generator images, characters and holonomies."""

    @staticmethod
    def verdicts(m):
        """Whether m is accepted as a .rep image, a .spec holonomy and a holonomy
        given to LengthSpectrum."""
        pairs = [f"{c.real!r},{c.imag!r}" for c in m.ravel().tolist()]
        mat = ", ".join(f"[{p}]" for p in pairs)
        out = []
        for read in (
            lambda: parse_representation(f"rank 2; mat a = [ {mat} ]; mat b = [ {mat} ];",
                                         ("a", "b")),
            lambda: parse_spectrum(f"rank 2;\ngeo 1.0 ; {' '.join(pairs)} ;\n"),
            lambda: LengthSpectrum(2, [1.0], [m]),
        ):
            try:
                read()
                out.append(True)
            except ValueError as exc:
                assert "not unitary" in str(exc)
                out.append(False)
        return out

    # at seeds 2 and 9, np.linalg.norm of the 2-D matrix rounds the outside
    # defect to exactly UNITARITY_TOL, one ulp below the batched norm: a
    # second formula would split the verdicts here
    @pytest.mark.parametrize("seed", [2, 9])
    def test_same_verdict_on_both_sides(self, seed):
        inside, outside = unitarity_edge(seed)
        defects, unitary = unitarity_defects(np.array([inside, outside]))
        assert unitary.tolist() == [True, False]
        assert np.abs(defects - UNITARITY_TOL).max() <= 4 * np.spacing(UNITARITY_TOL)
        assert self.verdicts(inside) == [True] * 3
        assert self.verdicts(outside) == [False] * 3

    @pytest.mark.parametrize("xi", [1.00000000007, 0.99999999993, 1j * 1.00000000006])
    def test_character_held_to_the_matrix_rule(self, xi):
        # ||xi| - 1| <= UNITARITY_TOL, but the defect ||xi|^2 - 1| is above it
        unitary = unitarity_defects(np.array([[[xi]]]))[1][0]
        assert abs(abs(xi) - 1) <= UNITARITY_TOL and not unitary
        with pytest.raises(ValueError, match="modulus 1"):
            UnitaryRep.character(2, xi)
        assert UnitaryRep.character(2, 1.00000000004).rank == 1
