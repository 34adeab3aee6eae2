"""Presentation file parsing."""

import pytest

from torsionlab import ParseError, Word, parse_presentation
from torsionlab.presentations import MAX_WORD_LETTERS, format_word


class TestParsing:
    def test_trefoil(self):
        pres = parse_presentation(
            "gens x1 x2; wirtinger; rel x1 x2 x1 x2^-1 x1^-1 x2^-1;"
        )
        assert pres.n_generators == 2
        assert pres.wirtinger
        assert len(pres.relators) == 1
        assert pres.relators[0] == Word(
            ((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
        )
        assert pres.abelianization_degrees == (1, 1)

    def test_unknot(self):
        pres = parse_presentation("gens a; wirtinger;")
        assert pres.n_generators == 1
        assert pres.relators == ()

    def test_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_presentation("gens x1 x2; wirtinger; rel x3;")

    def test_relator_count_enforced(self):
        with pytest.raises(ParseError, match="relators"):
            parse_presentation("gens a b; wirtinger; rel a b a^-1 b^-1; rel a b;")

    def test_capital_means_inverse(self):
        p1 = parse_presentation("gens a b; rel a B;")
        p2 = parse_presentation("gens a b; rel a b^-1;")
        assert p1.relators == p2.relators

    def test_relators_freely_reduced(self):
        pres = parse_presentation("gens a; rel a a^-1 a;")
        assert pres.relators[0] == Word.generator(1)

    def test_peripheral_words(self):
        pres = parse_presentation(
            "gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;\n"
            "meridian a; longitude b a^2 b a^-4;"
        )
        assert pres.has_peripheral
        assert pres.meridian == Word.generator(1)
        assert pres.longitude.exponent_sum() == 0

    def test_comments_and_positions(self):
        text = "# a comment\ngens a;\nrel ??? ;\n"
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert "line 3" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a b; rel a b")

    def test_empty_word_rejected_in_relator(self):
        with pytest.raises(ParseError, match="empty word"):
            parse_presentation("gens a; rel ;")

    def test_word_degree(self):
        pres = parse_presentation("gens a b; rel a b a^-1 b^-1;")
        assert pres.word_degree(pres.relators[0]) == 0
        assert pres.word_degree(Word.generator(1)) == 1


class TestWordLength:
    def test_exactly_at_limit_parses(self):
        pres = parse_presentation(f"gens a b; rel a^{MAX_WORD_LETTERS};")
        assert len(pres.relators[0]) == MAX_WORD_LETTERS

    def test_limit_counts_letters_across_powers(self):
        half = MAX_WORD_LETTERS // 2
        pres = parse_presentation(f"gens a b; rel a^{half} b^-{MAX_WORD_LETTERS - half};")
        assert len(pres.relators[0]) == MAX_WORD_LETTERS

    def test_one_letter_over_fails(self):
        with pytest.raises(ParseError, match="letters") as err:
            parse_presentation(f"gens a b;\nrel a^{MAX_WORD_LETTERS} b;")
        assert (err.value.line, err.value.col) == (2, 5 + len(f"a^{MAX_WORD_LETTERS} "))

    def test_huge_exponent_fails_before_expanding(self):
        with pytest.raises(ParseError, match="letters") as err:
            parse_presentation("gens a;\nrel a^1000000000;")
        assert (err.value.line, err.value.col) == (2, 5)

    def test_huge_negative_exponent_in_peripheral_word(self):
        with pytest.raises(ParseError, match="letters"):
            parse_presentation("gens a; meridian a; longitude A^1000000000;")


class TestSerialization:
    def test_round_trip(self):
        pres = parse_presentation("gens a b; rel a b^-1 a^2;")
        text = format_word(pres.relators[0], pres.generator_names)
        reparsed = parse_presentation(f"gens a b; rel {text};")
        assert reparsed.relators == pres.relators

    def test_identity_word(self):
        assert format_word(Word(), ("a",)) == "1"
