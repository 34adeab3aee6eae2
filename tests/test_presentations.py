"""Presentation file parsing."""

import ast
import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionlab import (
    ParseError,
    Presentation,
    TwistedCWComplex,
    knot_complex,
    parse_complex,
    parse_presentation,
)
from torsionlab.cli import corpus_dir
from torsionlab.freegroup import fox_derivative, reduce
from torsionlab.presentations import MAX_FILE_LETTERS, MAX_WORD_LETTERS, fox_table

from conftest import KNOT_NAMES, torus_braid_closure, two_bridge
from oracles import complex_records, parse_complex_positional, parse_presentation_positional

CW_TAIL = "cells 0 1; cells 1 1; bd 1 0 -> (+, a, 0) (-, 1, 0);"


class TestParsing:
    def test_trefoil(self):
        pres = parse_presentation(
            "gens x1 x2; wirtinger; rel x1 x2 x1 x2^-1 x1^-1 x2^-1;"
        )
        assert pres.n_generators == 2
        assert pres.wirtinger
        assert len(pres.relators) == 1
        assert pres.relators[0] == (1, 2, 1, -2, -1, -2)

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

    # 2**31 and -(2**63) do not fit the int32 letter array, 2**63 and
    # -(2**63) - 1 not even the int64 one it is converted through
    @pytest.mark.parametrize("letter", [0, 3, -3, 2**31, -(2**63), 2**63, -(2**63) - 1])
    @pytest.mark.parametrize("where", ["relator", "meridian", "longitude"])
    def test_letter_out_of_range_rejected(self, where, letter):
        words = {"relators": ((1, 2, -1, -2),), "meridian": (1,), "longitude": (2, 1)}
        if where == "relator":
            words["relators"] = ((1, 2, -1, -2), (1, letter))
        else:
            words[where] = (1, letter)
        with pytest.raises(ParseError, match=rf"^{where} \(1, {letter}\) uses a generator "
                                             r"beyond the declared 2$"):
            Presentation(generator_names=("a", "b"), **words)

    def test_capital_means_inverse(self):
        p1 = parse_presentation("gens a b; rel a B;")
        p2 = parse_presentation("gens a b; rel a b^-1;")
        assert p1.relators == p2.relators

    def test_relators_freely_reduced(self):
        pres = parse_presentation("gens a; rel a a^-1 a;")
        assert pres.relators[0] == (1,)

    def test_peripheral_words(self):
        pres = parse_presentation(
            "gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;\n"
            "meridian a; longitude b a^2 b a^-4;"
        )
        assert pres.has_peripheral
        assert pres.meridian == (1,)
        assert pres.longitude == (2, 1, 1, 2, -1, -1, -1, -1)

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
        # the prefix degrees of a commutator run 0, 1, 2, 1, 0
        pres = parse_presentation("gens a b; rel a b a^-1 b^-1; rel A^3 b;")
        assert pres.relators == ((1, 2, -1, -2), (-1, -1, -1, 2))
        assert pres.degree_bounds == ((0, 2), (-3, 0))
        assert pres.fox_terms[4].tolist() == [0, 1, 1, 0, -1, -2, -3, -3]

    def test_fox_table_against_fox_derivative(self):
        # one column per letter, relator by relator; an empty relator has none
        relators = ((1, 2, -1, -2), (), (-1, -1, -1, 2), (3,), (-2, 3, -1))
        table = fox_table(*Presentation(("a", "b", "c"), relators).letter_array)
        assert table.dtype.name == "int32" and table.shape == (5, 12)
        assert not table.flags.writeable
        for j, rel in enumerate(relators):
            _, generator, sign, length, degree = table[:, table[0] == j]
            for i in (1, 2, 3):
                terms = [(rel[:k], s) for g, s, k in zip(generator, sign, length) if g == i]
                assert terms == list(fox_derivative(rel, i).items())
            assert degree.tolist() == [sum(1 if a > 0 else -1 for a in rel[:k]) for k in length]
        for empty in ((), ((),)):
            assert fox_table(*Presentation(("a",), empty).letter_array).shape == (5, 0)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(relators=st.lists(st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=12)
                             .map(reduce), max_size=5))
    @example(relators=[])
    @example(relators=[(), (1, -2, -2), ()])
    def test_degree_bounds_span_the_fox_degrees(self, relators):
        # each term sits at the lower of the two prefix degrees around its
        # letter, so a relator's terms span its prefix degrees but the top one
        pres = Presentation(("a", "b", "c"), tuple(relators))
        relator, *_, degree = pres.fox_terms
        assert len(pres.degree_bounds) == len(relators)
        for j, rel in enumerate(relators):
            degrees = degree[relator == j]
            want = (int(degrees.min()), int(degrees.max()) + 1) if rel else (0, 0)
            assert pres.degree_bounds[j] == want

    def test_each_relator_read_once(self):
        # construction, degree_bounds and fox_terms share one letter array
        reads = []

        class Counted(tuple):
            def __iter__(self):
                reads.append(self)
                return super().__iter__()

        relators = tuple(Counted(r) for r in torus_braid_closure(3, 7).relators)
        pres = Presentation(tuple(f"x{k}" for k in range(1, 4)), relators, wirtinger=True)
        pres.degree_bounds, pres.fox_terms
        assert sorted(map(id, reads)) == sorted(map(id, relators))

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


class TestFileLetterBudget:
    """The words of one file hold at most MAX_FILE_LETTERS letters together."""

    # seven words at the word cap and one a letter short of it, then the
    # word that reaches the budget
    FILES = {
        "pres": "gens a b;\n" + f"rel a^{MAX_WORD_LETTERS};\n" * 7
                + f"rel a^{MAX_WORD_LETTERS - 1};\nrel {{}};\n",
        "cw": "gens a b;\n" + f"rel a^{MAX_WORD_LETTERS};\n" * 7
              + f"cells 0 1;\ncells 1 1;\nbd 1 0 -> (+, a^{MAX_WORD_LETTERS - 1}, 0) (-, {{}}, 0);\n",
    }

    def test_budget_admits_the_largest_file_in_use(self):
        # CI's wide.pres: 64 relators of 8 192 letters, past the Fox cap
        assert MAX_FILE_LETTERS >= 64 * 8192
        assert MAX_FILE_LETTERS % MAX_WORD_LETTERS == 0

    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_at_the_budget(self, fmt):
        parse, reference = READERS[fmt]
        text = self.FILES[fmt].format("b")
        result = parse(text)
        if fmt == "pres":
            words, want = result.relators, result
        else:
            want = complex_records(result)
            words = (*result.relations, *(rec[3] for rec in want[3][0]))
        assert sum(map(len, words)) == MAX_FILE_LETTERS
        assert outcome(reference, text) == want

    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_one_letter_past_the_budget(self, fmt):
        # the second b crosses the budget
        parse, reference = READERS[fmt]
        text = self.FILES[fmt].format("b b")
        line = len(text.splitlines())
        col = text.splitlines()[-1].index("b b") + 3
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (f"file longer than {MAX_FILE_LETTERS} letters after expanding "
                                  f"powers (line {line}, col {col})")
        assert outcome(reference, text) == outcome(parse, text)


def format_word(w, names):
    """A word over the given generator names, one letter or inverse letter per token."""
    if not w:
        return "1"
    return " ".join(names[k - 1] if k > 0 else f"{names[-k - 1]}^-1" for k in w)


class TestSerialization:
    def test_round_trip(self):
        pres = parse_presentation("gens a b; rel a b^-1 a^2;")
        text = format_word(pres.relators[0], pres.generator_names)
        reparsed = parse_presentation(f"gens a b; rel {text};")
        assert reparsed.relators == pres.relators

    def test_identity_word(self):
        assert format_word((), ("a",)) == "1"


def mixed_syntax(w, names):
    """A word written with every letter form: runs of one letter as a power,
    and single letters cycling through ``x``, ``x^1``, ``X^-1`` (or ``X``,
    ``x^-1``, ``X^1`` for an inverse)."""
    if not w:
        return "1"
    forms = itertools.cycle(range(3))
    parts = []
    for letter, run in itertools.groupby(w):
        k, s = len(list(run)), 1 if letter > 0 else -1
        name = names[abs(letter) - 1]
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
        for deg, records in enumerate(complex_records(cx)[3], start=1):
            for i, recs in itertools.groupby(records, key=lambda rec: rec[0]):
                fields = " ".join(
                    f"({'+' if sign > 0 else '-'}, {mixed_syntax(word, names)}, {target})"
                    for _, target, sign, word in recs
                )
                lines.append(f"bd {deg} {i} -> {fields};")
        got = parse_complex("\n".join(lines))
        assert got.relations == pres.relators
        assert complex_records(got) == complex_records(cx)

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


BENCH = Path(__file__).resolve().parents[1] / "bench"
_SPEC = importlib.util.spec_from_file_location("gen", BENCH / "gen.py")
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)


def bench_knots():
    """The (p, q) of every torus knot the talex and verify workloads run, read
    from bench/prepare.py's job tables without running it."""
    tables = {}
    for node in ast.parse((BENCH / "prepare.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TALEX_JOBS", "VERIFY_KNOTS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return sorted({job[:2] for table in tables.values() for job in table})


class TestBenchGenerator:
    """The benchmark's generator writes its words as lists of signed generator
    indices, reduced by its own code: parsing the text it writes gives them
    back as the tuples the package holds."""

    def test_every_bench_knot_is_read(self):
        assert (3, 53) in bench_knots() and (5, 11) in bench_knots()

    @pytest.mark.parametrize("p,q", bench_knots())
    def test_parsed_words_are_the_generators(self, p, q):
        pres = parse_presentation(gen.torus_presentation(p, q))
        assert pres.relators == tuple(map(tuple, gen.torus_relators(p, q)))
        assert pres.meridian == (1,)
        assert pres.longitude == tuple(range(1, p + 1)) * q + (-1,) * (p * q)


def outcome(parse, text):
    """What a reader makes of ``text``: its result (a complex as its
    ``complex_records``), or its error's type, message, line and column."""
    try:
        result = parse(text)
        return complex_records(result) if isinstance(result, TwistedCWComplex) else result
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


READERS = {
    "pres": (parse_presentation, parse_presentation_positional),
    "cw": (parse_complex, parse_complex_positional),
}

# every line break of str.splitlines, other blanks, and no space at all
SEPARATORS = [" ", "", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029", "\xa0", "\x1f", "\u3000"]
# a statement is a keyword, or a whole statement, then tokens: single ones,
# glued ones (x1-2, a^+3, ->, a^١) and comments, each after a separator
KEYWORDS = {
    "pres": ["rel", "rel", "rel", "meridian", "longitude", "wirtinger", "gens", "rel a b A B",
             "meridian a ; longitude b"],
    "cw": ["rel", "cells", "cells", "bd", "bd", "bd 1 0 -> (+, a, 0) (-, 1, 0)", "cells 1 2",
           "bd 2 0 -> (+, 1, 0) (+, a, 1) (-, a b A, 0) (-, 1, 1)"],
}
TOKENS = {
    "pres": ["a", "b", "A", "B", "x1", "X1", "_c", "C", "1", "^", "2", "-1", "-3", "0", "١",
             "a^١", "b^-١٢", "x1-2", "a^+3", "a^-2", "->", ",", "?", "é", "#", "# rel a ;"],
    "cw": ["0", "1", "2", "-1", "١", "->", "-", ">", "(", ")", ",", "+", "a", "b", "A", "a^١",
           "x1-2", "a^+3", "?", "#", "# bd 1 0 ;"],
}
HEADS = {
    "pres": ["", "gens a b x1 _c;", "gens a b x1 _c; wirtinger;", "gens a b;"],
    "cw": ["", "gens a b;", "gens a b; cells 0 1; cells 1 2;", "gens a b; cells 0 1;"],
}


def token_soups(fmt):
    separator = st.sampled_from(SEPARATORS)
    statement = st.tuples(separator, st.sampled_from(KEYWORDS[fmt]),
                          st.lists(st.tuples(separator, st.sampled_from(TOKENS[fmt])), max_size=8),
                          separator, st.sampled_from([";", ";", ";", ""]))
    return st.tuples(st.sampled_from(HEADS[fmt]), st.lists(statement, max_size=6)).map(
        lambda soup: soup[0] + "".join(s + kw + "".join(map("".join, toks)) + t + end
                                       for s, kw, toks, t, end in soup[1]))


class TestTokenStreamAgainstPositional:
    """The readers give what the same readers give on a table of every
    token's line and column (``oracles.PositionalTokenStream``): the same
    Presentation or TwistedCWComplex, or the same error at the same place."""

    def check(self, fmt, text):
        parse, reference = READERS[fmt]
        assert outcome(parse, text) == outcome(reference, text), repr(text)

    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_token_soups(self, fmt, data):
        self.check(fmt, data.draw(token_soups(fmt)))

    @pytest.mark.parametrize("brk", SEPARATORS)
    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_error_after_each_separator(self, fmt, brk):
        # the error's line and column count the separator as splitlines does
        self.check(fmt, f"gens a b;{brk}rel a{brk}# c ;{brk}b^{brk}?;{brk}")
        self.check(fmt, f"gens a b;{brk}{brk}rel a b^2 A{brk}B;{brk}?")

    @pytest.mark.parametrize("brk", SEPARATORS)
    def test_valid_file_with_each_separator(self, brk):
        # every space of the file becomes the separator (a space where it is
        # none, since names must not run together)
        pres = torus_braid_closure(3, 7)
        names = pres.generator_names
        text = f"gens {' '.join(names)};{brk}wirtinger;" + "".join(
            f"{brk}rel {mixed_syntax(r, names)} ;" for r in pres.relators)
        text = text.replace(" ", brk or " ")
        self.check("pres", text)
        assert parse_presentation(text) == pres

    @pytest.mark.parametrize("text", [
        "gens x1 x2;\nrel x1-2 ;",
        "gens a;\nrel a^+3;",
        "gens a;\nrel a^١ a^-١٢ a^٣;",
        "gens a; # gens b;\nrel a # ; ?\n;",
        "gens a b;\nrel a b#\nA B;\nrel ;",
        "gens a;\ncells 0 1;\ncells 1 1;\nbd 1 0->(+,a,0)(-,1,0);",
        "gens a;\ncells 0 1;\ncells 1 1;\nbd 1 0->(+,a,0)(-,1,7);",
        "gens a;\ncells 0 1;\ncells 1 1;\nbd 2 0 -> ;",
        "gens a;\ncells 0 1;\ncells 1 1;\ncells 2 2;\nbd 1 0 -> (+, a, 0) (-, 1, 0);\n"
        "bd 2 0 -> (+, 1, 0) (-, 1, 0);\n bd 2 1 -> ;\nbd 2 1 -> (+, 1, 0);",
    ])
    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_named_cases(self, fmt, text):
        self.check(fmt, text)

    @pytest.mark.parametrize("name", KNOT_NAMES)
    def test_corpus(self, name):
        self.check("pres", (corpus_dir() / f"{name}.pres").read_text())


def peak_of(parse, text):
    """``(tracemalloc peak, result or error)`` of one parse."""
    tracemalloc.start()
    try:
        try:
            result = parse(text)
        except ParseError as exc:
            result = exc
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestPositionsWithoutTable:
    """Tokens are held as strings, and the position of the one token an
    error names is found by a scan that keeps no table of the file."""

    # a file around one word of one-letter tokens, and the word's line and column
    FILES = {
        "pres": (parse_presentation, "gens a b;\nrel {};\n", 2, 5),
        "cw": (parse_complex, "gens a b;\ncells 0 1;\ncells 1 1;\nbd 1 0 -> (+, {}, 0);\n",
               4, 15),
    }

    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_overrun_of_a_long_word(self, fmt):
        # 1 MB of one-letter tokens: a (token, line, col) record per token
        # peaks at 53 MB, and so does a table built only for the error
        parse, template, line, col = self.FILES[fmt]
        peak, exc = peak_of(parse, template.format("a " * 500_000))
        assert str(exc) == (f"word longer than {MAX_WORD_LETTERS} letters after expanding "
                            f"powers (line {line}, col {col + 2 * MAX_WORD_LETTERS})")
        assert peak <= 26.5e6, f"{peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("fmt", ["pres", "cw"])
    def test_word_at_the_cap(self, fmt):
        # 100 000 one-letter tokens: 19 MB with a record per token
        parse, template, _, _ = self.FILES[fmt]
        peak, result = peak_of(parse, template.format("a b " * (MAX_WORD_LETTERS // 2)))
        word = result.relators[0] if fmt == "pres" else complex_records(result)[3][0][0][3]
        assert len(word) == MAX_WORD_LETTERS
        assert peak <= 10e6, f"{peak / 1e6:.1f} MB"
