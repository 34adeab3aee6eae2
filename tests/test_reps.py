"""Representation construction, validation, and file parsing."""

import time

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
