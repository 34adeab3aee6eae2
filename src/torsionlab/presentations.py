"""Finite group presentations, and the statement syntax they share with
complexes (``cwcomplex.parse_complex``).

``.pres`` and ``.cw`` files are read by one token stream under one set of
rules:

- ``#`` starts a comment that runs to the end of its line.
- A token is a name ``[A-Za-z_][A-Za-z0-9_]*``, ``^``, an integer
  ``-?[0-9]+`` or any other single non-space character.  Statements end
  with ``;``.
- The file starts with the header ``gens name+ ;``: at least one name, no
  name twice, each starting with a lowercase letter or ``_``.  The k-th
  name is the generator x_k.
- A word is ``(letter ("^" integer)? | "1")+``, read up to the token that
  ends its statement or field.  A letter is a declared name, or for its
  inverse the name with its first character capitalized, so ``X1`` and
  ``x1^-1`` denote the same letter; ``1`` is the identity.  A word holds
  at most MAX_WORD_LETTERS letters once its powers are written out, and it
  is never empty.

Grammar of a presentation::

    file       := header ("wirtinger" ";")? relator* peripheral?
    relator    := "rel" word ";"
    peripheral := "meridian" word ";" "longitude" word ";"
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    """A finite presentation with optional peripheral words."""

    generator_names: tuple
    relators: tuple
    wirtinger: bool = False
    meridian: Word | None = None
    longitude: Word | None = None

    def __post_init__(self):
        for r in self.relators:
            if r.max_generator() > self.n_generators:
                raise ParseError(
                    f"relator {r!r} uses a generator beyond the declared {self.n_generators}"
                )
        if self.wirtinger and len(self.relators) != self.n_generators - 1:
            raise ParseError(
                f"wirtinger presentation needs {self.n_generators - 1} relators, "
                f"got {len(self.relators)}"
            )
        for k, r in enumerate(self.relators, start=1):
            # every generator abelianizes to t only if each relator maps to 0 in Z
            if self.wirtinger and (s := r.exponent_sum()):
                raise ParseError(f"wirtinger relator {k} has exponent sum {s}, not 0")

    @property
    def n_generators(self):
        return len(self.generator_names)

    @property
    def has_peripheral(self):
        return self.meridian is not None and self.longitude is not None


# letters a word may hold once its powers are written out; checked before
# expanding, so a huge exponent is a ParseError rather than a memory blow-up
MAX_WORD_LETTERS = 100_000

# a number of the .rep and .spec files and of the CLI's numeric flags; \d as
# [0-9\d], so that sre tests the ASCII range before the Unicode category
NUM = r"[-+]?(?:[0-9\d]+\.?[0-9\d]*|\.[0-9\d]+)(?:[eE][-+]?[0-9\d]+)?"

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^|-?\d+|;|\S")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _TokenStream:
    """The tokens of a ``.pres`` or ``.cw`` file, and the rules they share."""

    def __init__(self, text):
        self.tokens = [
            (m.group(0), lineno, m.start() + 1)
            for lineno, line in enumerate(text.splitlines(), start=1)
            for m in _TOKEN.finditer(line.split("#", 1)[0])
        ]
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

    def integer(self, what):
        """``(value, line, col)`` of an integer token."""
        tok, line, col = self.next(expect=f"an integer {what}")
        try:
            return int(tok), line, col
        except ValueError:
            raise ParseError(f"bad {what} {tok!r}", line, col) from None

    def generators(self):
        """The ``gens`` header: the names, and the table ``word`` reads letters
        from, which maps the k-th name to (k, 1) and the name capitalized to
        (k, -1)."""
        tok, line, col = self.next(expect="'gens'")
        if tok != "gens":
            raise ParseError(f"file must start with 'gens', got {tok!r}", line, col)
        names = []
        while True:
            tok, line, col = self.next(expect="a generator name or ';'")
            if tok == ";":
                break
            if not _NAME.fullmatch(tok) or tok[0].isupper():
                raise ParseError(f"generator names must be lowercase, got {tok!r}", line, col)
            if tok in names:
                raise ParseError(f"duplicate generator {tok!r}", line, col)
            names.append(tok)
        if not names:
            raise ParseError("no generators declared", line, col)
        letters = {}
        for k, name in enumerate(names, start=1):
            letters[name] = (k, 1)
            if name[0] != "_":
                letters[name[0].upper() + name[1:]] = (k, -1)
        return tuple(names), letters

    def word(self, letters, stop=";"):
        """The word up to the ``stop`` token, which is left unread.

        Raises ParseError at the letter that takes the word past
        MAX_WORD_LETTERS letters, and at the stop token if the word is empty.
        """
        tokens = self.tokens
        start = pos = self.pos
        out = []
        while pos < len(tokens) and tokens[pos][0] != stop:
            name, line, col = tokens[pos]
            pos += 1
            if name == "1":
                # the identity word; legal anywhere a word is expected
                continue
            letter = letters.get(name)
            if letter is None:
                if _NAME.fullmatch(name):
                    raise ParseError(f"unknown generator {name!r}", line, col)
                raise ParseError(f"expected a generator name, got {name!r}", line, col)
            count = 1
            if pos < len(tokens) and tokens[pos][0] == "^":
                self.pos = pos + 1
                count = self.integer("exponent")[0]
                pos = self.pos
                if count < 0:
                    letter, count = (letter[0], -letter[1]), -count
            if len(out) + count > MAX_WORD_LETTERS:
                raise ParseError(
                    f"word longer than {MAX_WORD_LETTERS} letters after expanding powers",
                    line,
                    col,
                )
            out += [letter] * count
        if pos == start:
            raise ParseError("empty word", *(tokens[pos][1:] if pos < len(tokens) else ()))
        self.pos = pos
        return Word(tuple(out))


def parse_presentation(text):
    """Parse the presentation file format into a Presentation."""
    stream = _TokenStream(text)
    names, letters = stream.generators()

    wirtinger = False
    if stream.peek() and stream.peek()[0] == "wirtinger":
        stream.next()
        stream.expect(";")
        wirtinger = True

    relators = []
    meridian = longitude = None
    while stream.peek() is not None:
        tok, line, col = stream.next()
        if meridian is not None:
            # the peripheral pair ends the file
            raise ParseError(f"expected end of input, got {tok!r}", line, col)
        if tok == "rel":
            relators.append(stream.word(letters))
            stream.expect(";")
        elif tok == "meridian":
            meridian = stream.word(letters)
            stream.expect(";")
            stream.expect("longitude")
            longitude = stream.word(letters)
            stream.expect(";")
        else:
            raise ParseError(f"expected 'rel' or 'meridian', got {tok!r}", line, col)

    return Presentation(
        generator_names=names,
        relators=tuple(relators),
        wirtinger=wirtinger,
        meridian=meridian,
        longitude=longitude,
    )

