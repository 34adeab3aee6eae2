"""Finite group presentations and their line-oriented text format.

Grammar (``#`` starts a comment, statements end with ``;``)::

    file       := header relator* peripheral?
    header     := "gens" name+ ";" ("wirtinger" ";")?
    relator    := "rel" word ";"
    peripheral := "meridian" word ";" "longitude" word ";"
    word       := (name ("^" integer)?)+

A letter may also be inverted by capitalizing its first character, so
``X1`` and ``x1^-1`` denote the same letter.  The canonical serialization
uses the ``name^exponent`` form with lowercase names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .freegroup import Word


class ParseError(ValueError):
    """Syntax or consistency error in an input file, with position info."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with abelianization data and peripheral words."""

    n_generators: int
    generator_names: tuple
    relators: tuple
    wirtinger: bool = False
    meridian: Word | None = None
    longitude: Word | None = None
    abelianization_degrees: tuple = field(default=())

    def __post_init__(self):
        if not self.abelianization_degrees:
            object.__setattr__(
                self, "abelianization_degrees", (1,) * self.n_generators
            )
        for r in self.relators:
            if r.max_generator() > self.n_generators:
                raise ParseError(
                    f"relator {r!r} uses a generator beyond the declared {self.n_generators}"
                )
        if self.wirtinger:
            if len(self.relators) != self.n_generators - 1:
                raise ParseError(
                    f"wirtinger presentation needs {self.n_generators - 1} relators, "
                    f"got {len(self.relators)}"
                )
            if any(d != 1 for d in self.abelianization_degrees):
                raise ParseError("wirtinger presentations have all degrees equal to 1")

    def word_degree(self, w):
        """Image exponent of a word under the abelianization map."""
        return sum(
            self.abelianization_degrees[i - 1] * w.exponent_sum(i)
            for i in range(1, self.n_generators + 1)
        )

    @property
    def has_peripheral(self):
        return self.meridian is not None and self.longitude is not None


# letters a word may hold once its powers are written out; checked before
# expanding, so a huge exponent is a ParseError rather than a memory blow-up
MAX_WORD_LETTERS = 100_000

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^|-?\d+|;|\S")


def _tokenize(text):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            tokens.append((m.group(0), lineno, m.start() + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, expected {expect or 'a token'}")
        self.pos += 1
        return tok

    def expect(self, text):
        tok, line, col = self.next(expect=repr(text))
        if tok != text:
            raise ParseError(f"expected {text!r}, got {tok!r}", line, col)


def parse_word(stream, name_to_index):
    """Parse a word up to (not including) the terminating ';'.

    Raises ParseError at the letter that takes the word past
    MAX_WORD_LETTERS letters.
    """
    letters = []
    saw_any = False
    while True:
        tok = stream.peek()
        if tok is None or tok[0] == ";":
            break
        name, line, col = stream.next()
        if name == "1":
            # the identity word; legal anywhere a word is expected
            saw_any = True
            continue
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ParseError(f"expected a generator name, got {name!r}", line, col)
        sign = 1
        lookup = name
        if name[0].isupper():
            sign = -1
            lookup = name[0].lower() + name[1:]
        if lookup not in name_to_index:
            raise ParseError(f"unknown generator {name!r}", line, col)
        exponent = sign
        if stream.peek() and stream.peek()[0] == "^":
            stream.next()
            etok, eline, ecol = stream.next(expect="an integer exponent")
            try:
                exponent = sign * int(etok)
            except ValueError:
                raise ParseError(f"bad exponent {etok!r}", eline, ecol) from None
        if len(letters) + abs(exponent) > MAX_WORD_LETTERS:
            raise ParseError(
                f"word longer than {MAX_WORD_LETTERS} letters after expanding powers",
                line,
                col,
            )
        idx = name_to_index[lookup]
        unit = 1 if exponent > 0 else -1
        letters.extend([(idx, unit)] * abs(exponent))
        saw_any = True
    if not saw_any:
        tok = stream.peek()
        line, col = (tok[1], tok[2]) if tok else (None, None)
        raise ParseError("empty word", line, col)
    return Word(tuple(letters))


def parse_presentation(text):
    """Parse the presentation file format into a Presentation."""
    stream = _TokenStream(_tokenize(text))
    tok, line, col = stream.next(expect="'gens'")
    if tok != "gens":
        raise ParseError(f"file must start with 'gens', got {tok!r}", line, col)
    names = []
    while True:
        tok, line, col = stream.next(expect="a generator name or ';'")
        if tok == ";":
            break
        if not re.fullmatch(r"[a-z_][A-Za-z0-9_]*", tok):
            raise ParseError(f"generator names must be lowercase, got {tok!r}", line, col)
        if tok in names:
            raise ParseError(f"duplicate generator {tok!r}", line, col)
        names.append(tok)
    if not names:
        raise ParseError("no generators declared", line, col)
    name_to_index = {nm: k + 1 for k, nm in enumerate(names)}

    wirtinger = False
    if stream.peek() and stream.peek()[0] == "wirtinger":
        stream.next()
        stream.expect(";")
        wirtinger = True

    relators = []
    meridian = longitude = None
    while stream.peek() is not None:
        tok, line, col = stream.next()
        if tok == "rel":
            relators.append(parse_word(stream, name_to_index))
            stream.expect(";")
        elif tok == "meridian":
            meridian = parse_word(stream, name_to_index)
            stream.expect(";")
            stream.expect("longitude")
            longitude = parse_word(stream, name_to_index)
            stream.expect(";")
        else:
            raise ParseError(f"expected 'rel' or 'meridian', got {tok!r}", line, col)

    return Presentation(
        n_generators=len(names),
        generator_names=tuple(names),
        relators=tuple(relators),
        wirtinger=wirtinger,
        meridian=meridian,
        longitude=longitude,
    )


def format_word(w, names):
    """Canonical serialization of a word over the given generator names."""
    if w.is_empty:
        return "1"
    parts = []
    for i, s in w.letters:
        parts.append(names[i - 1] if s > 0 else f"{names[i - 1]}^-1")
    return " ".join(parts)
