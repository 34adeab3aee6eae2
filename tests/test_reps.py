"""Representation construction, validation, and file parsing."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest

from torsionlab import ParseError, UnitaryRep, Word, parse_presentation
from torsionlab.reps import parse_representation

from conftest import random_unitary


class TestUnitaryRep:
    def test_character(self):
        rep = UnitaryRep.character(2, 1j)
        assert rep.rank == 1
        assert rep.of_word(Word(((1, 1), (2, 1))))[0, 0] == pytest.approx(-1.0)

    def test_non_unit_character_rejected(self):
        with pytest.raises(ValueError, match="modulus 1"):
            UnitaryRep.character(1, 2.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryRep([np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_word_product_order(self, rng):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        rep = UnitaryRep([u, v])
        got = rep.of_word(Word(((1, 1), (2, -1), (1, 1))))
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

    def test_nan_relator_image_rejected(self):
        pres = parse_presentation("gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;")
        rep = UnitaryRep.character(2, 1j)
        rep.images[0][0, 0] = np.nan  # set after the unitarity check
        with pytest.raises(ValueError, match=r"relator 1 maps to a non-identity matrix"):
            rep.validate_against(pres)

    def test_validate_against(self):
        pres = parse_presentation("gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;")
        UnitaryRep.character(2, 1j).validate_against(pres)
        bad = UnitaryRep([np.array([[1j]]), np.array([[-1j]])])
        with pytest.raises(ValueError, match="relator"):
            bad.validate_against(pres)


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
        # so 100 000 statements took about a minute
        n = 100_000
        body = "rank 1;\n" + "char a = 1,0;\n" * (n - 1)
        start = time.perf_counter()
        rep = parse_representation(body + "char a = 0,1;\n", ("a",))
        assert time.perf_counter() - start < 10.0
        assert rep.images[0][0, 0] == 1j
        with pytest.raises(ParseError) as err:
            parse_representation(body + "char a = 1,0,0;\n", ("a",))
        assert err.value.line == n + 1
        assert str(err.value) == f"unrecognized statement 'char a = 1,0,0' (line {n + 1})"
