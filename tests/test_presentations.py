"""Presentation file parsing."""

import itertools

import pytest

from torsionlab import ParseError, Word, knot_complex, parse_complex, parse_presentation
from torsionlab.cli import corpus_dir
from torsionlab.presentations import MAX_WORD_LETTERS

from conftest import KNOT_NAMES, torus_braid_closure, two_bridge

CW_TAIL = "cells 0 1; cells 1 1; bd 1 0 -> (+, a, 0) (-, 1, 0);"


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

    @pytest.mark.parametrize(
        "header,relators,k,s",
        [("gens a b;", "rel a a b;", 1, 3),
         ("gens a b;", "rel A B A;", 1, -3),
         ("gens a b;", "rel a b A b A;", 1, 1),
         ("gens a b c;", "rel a b A B; rel c A C A c;", 2, -1)],
    )
    def test_wirtinger_relator_exponent_sum_must_be_0(self, header, relators, k, s):
        # otherwise a generator does not abelianize to t and Phi is no homomorphism
        with pytest.raises(ParseError, match=f"wirtinger relator {k} has exponent sum {s}, not 0"):
            parse_presentation(f"{header} wirtinger; {relators}")
        assert parse_presentation(f"{header} {relators}").relators

    def test_knot_families_have_exponent_sum_0(self):
        for name in KNOT_NAMES + ["synthetic_h1"]:
            assert parse_presentation((corpus_dir() / f"{name}.pres").read_text()).wirtinger
        # the constructor runs the same check as the parser
        for p, q in [(2, 3), (3, 4), (2, 63), (5, 11)]:
            assert torus_braid_closure(p, q).wirtinger
        for p, q in [(5, 3), (7, 3), (31, 13)]:
            assert two_bridge(p, q).wirtinger

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
        assert pres.relators[0].exponent_sum() == 0
        assert Word.generator(1).exponent_sum() == 1

    @pytest.mark.parametrize(
        "tail,token,col",
        [("meridian b; longitude a;", "meridian", 1), ("  rel a b A B;", "rel", 3)],
        ids=["second-pair", "rel-after-pair"],
    )
    def test_peripheral_pair_ends_the_file(self, tail, token, col):
        text = "gens a b; wirtinger; rel a b a B A B;\nmeridian a; longitude b a^2 b a^-4;\n"
        with pytest.raises(ParseError, match=f"expected end of input, got '{token}'") as err:
            parse_presentation(text + tail)
        assert (err.value.line, err.value.col) == (3, col)


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


def format_word(w, names):
    """A word over the given generator names, one letter or inverse letter per token."""
    if w.is_empty:
        return "1"
    return " ".join(names[i - 1] if s > 0 else f"{names[i - 1]}^-1" for i, s in w.letters)


class TestSerialization:
    def test_round_trip(self):
        pres = parse_presentation("gens a b; rel a b^-1 a^2;")
        text = format_word(pres.relators[0], pres.generator_names)
        reparsed = parse_presentation(f"gens a b; rel {text};")
        assert reparsed.relators == pres.relators

    def test_identity_word(self):
        assert format_word(Word(), ("a",)) == "1"


def mixed_syntax(w, names):
    """A word written with every letter form: runs of one letter as a power,
    and single letters cycling through ``x``, ``x^1``, ``X^-1`` (or ``X``,
    ``x^-1``, ``X^1`` for an inverse)."""
    if w.is_empty:
        return "1"
    forms = itertools.cycle(range(3))
    parts = []
    for (i, s), run in itertools.groupby(w.letters):
        k = len(list(run))
        name = names[i - 1]
        cap = name[0].upper() + name[1:]
        if k > 1:
            parts.append(f"{name}^{s * k}" if s > 0 else f"{cap}^{k}")
        else:
            form = next(forms)
            parts.append([name, f"{name}^1", f"{cap}^-1"][form] if s > 0
                         else [cap, f"{name}^-1", f"{cap}^1"][form])
    return " ".join(parts)


TORUS_KNOTS = [(2, 7), (3, 4), (3, 16), (4, 5)]


class TestSharedSyntax:
    """.pres and .cw files read one token stream under one set of rules."""

    @pytest.mark.parametrize(
        "header,message,col",
        [
            ("gens a a;", "duplicate generator 'a'", 8),
            ("gens ( 7;", "generator names must be lowercase, got '\\('", 6),
            ("gens ;", "no generators declared", 6),
            ("gens a B;", "generator names must be lowercase, got 'B'", 8),
            ("cells 0 1;", "file must start with 'gens', got 'cells'", 1),
        ],
    )
    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_header_rules(self, fmt, header, message, col):
        text = header + ("\nrel a;" if fmt == "pres" else "\n" + CW_TAIL)
        parse = parse_presentation if fmt == "pres" else parse_complex
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize("p,q", TORUS_KNOTS)
    def test_pres_round_trip_in_every_letter_form(self, p, q):
        pres = torus_braid_closure(p, q)
        names = pres.generator_names
        text = f"gens {' '.join(names)}; wirtinger;\n" + "".join(
            f"rel {mixed_syntax(r, names)};\n" for r in pres.relators
        )
        assert all(form in text for form in ("^-1", "^1 ", "X", "^2"))
        assert parse_presentation(text).relators == pres.relators

    @pytest.mark.parametrize("p,q", TORUS_KNOTS)
    def test_cw_round_trip_in_every_letter_form(self, p, q):
        pres = torus_braid_closure(p, q)
        names = pres.generator_names
        cx = knot_complex(pres)
        lines = [f"gens {' '.join(names)};"]
        lines += [f"rel {mixed_syntax(r, names)};" for r in pres.relators]
        lines += [f"cells {d} {c};" for d, c in enumerate(cx.cells_per_degree)]
        for deg, table in enumerate(cx.incidences, start=1):
            for i, recs in enumerate(table):
                fields = " ".join(
                    f"({'+' if rec.sign > 0 else '-'}, {mixed_syntax(rec.word, names)}, "
                    f"{rec.target})"
                    for rec in recs
                )
                lines.append(f"bd {deg} {i} -> {fields};")
        got = parse_complex("\n".join(lines))
        assert got.relations == pres.relators
        assert got.cells_per_degree == cx.cells_per_degree
        assert [[[(rec.target, rec.sign, rec.word) for rec in recs] for recs in table]
                for table in got.incidences] == [
            [[(rec.target, rec.sign, rec.word) for rec in recs] for recs in table]
            for table in cx.incidences
        ]

    def test_semicolon_inside_cw_word_rejected(self):
        text = "gens a;\ncells 0 1;\ncells 1 1;\nbd 1 0 -> (+, a ; junk junk, 0) (-, 1, 0);\n"
        with pytest.raises(ParseError, match="expected a generator name, got ';'") as err:
            parse_complex(text)
        assert (err.value.line, err.value.col) == (4, 17)

    def test_empty_cw_word_at_its_position(self):
        text = "gens a;\ncells 0 1;\ncells 1 1;\nbd 1 0 -> (+, a, 0)\n   (+, , 0);\n"
        with pytest.raises(ParseError, match="empty word") as err:
            parse_complex(text)
        assert (err.value.line, err.value.col) == (5, 8)

    def test_cw_word_at_end_of_input(self):
        with pytest.raises(ParseError, match="end of input, expected ','"):
            parse_complex("gens a; cells 0 1; cells 1 1; bd 1 0 -> (+, a a")

    @pytest.mark.parametrize(
        "statement,message,col",
        [
            ("cells x 1;", "bad degree 'x'", 7),
            ("cells 2 x;", "bad cell count 'x'", 9),
            ("bd 1 x -> ;", "bad cell index 'x'", 6),
            ("bd 1 0 -> (+, a, x);", "bad target index 'x'", 18),
            ("bd 1 0 -> (+, a^x, 0);", "bad exponent 'x'", 17),
        ],
    )
    def test_bad_integer_at_its_position(self, statement, message, col):
        with pytest.raises(ParseError, match=message) as err:
            parse_complex(f"gens a; cells 0 1; cells 1 1;\n{statement}")
        assert (err.value.line, err.value.col) == (2, col)
