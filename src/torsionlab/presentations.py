"""Finite group presentations, and the statement syntax they share with
complexes (``cwcomplex.parse_complex``).

``.pres`` and ``.cw`` files are read by one token stream under one set of
rules:

- ``#`` starts a comment that runs to the end of its line.
- A token is a name ``[A-Za-z_][A-Za-z0-9_]*``, ``^``, an integer
  ``-?[0-9]+`` or any other single non-space character.  Statements end
  with ``;``.  Tokens are held as plain strings; the line and column of a
  token are found only for the error that names it, by a scan of the text
  up to that token (lines end where ``str.splitlines`` ends them).
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

A Presentation derives the Fox terms of its relators (``fox_terms``) once,
on first read; the Fox and CW routes both read them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

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

    @cached_property
    def fox_terms(self):
        """The ``FoxTerms`` of each relator, derived on first read and kept."""
        return tuple(map(FoxTerms.of, self.relators))


class FoxTerms(NamedTuple):
    """The Fox terms of a word by every generator, one per letter in letter
    order, as read-only arrays.

    Letter k, x_i^s, adds the term s * (prefix) to d w / d x_i: the prefix
    before it (``length`` k) when s = +1, through it (k + 1) when s = -1.
    ``degree`` is that prefix's exponent sum; ``low`` and ``high`` bound the
    exponent sums of all prefixes of the word, the empty one and the word
    itself included.
    """

    generator: np.ndarray
    sign: np.ndarray
    length: np.ndarray
    degree: np.ndarray
    low: int
    high: int

    @classmethod
    def of(cls, w):
        n = len(w)
        table = np.empty((4, n), dtype=np.intp)
        table[:2] = np.fromiter(chain.from_iterable(w.letters), np.intp, 2 * n).reshape(n, 2).T
        _, sign, length, degree = table
        np.add(np.arange(n), sign < 0, out=length)
        prefix = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(sign, out=prefix[1:])
        np.take(prefix, length, out=degree)
        table.flags.writeable = False
        return cls(*table, int(prefix.min()), int(prefix.max()))


# letters a word may hold once its powers are written out; checked before
# expanding, so a huge exponent is a ParseError rather than a memory blow-up
MAX_WORD_LETTERS = 100_000

# a number of the .rep and .spec files and of the CLI's numeric flags; \d as
# [0-9\d], so that sre tests the ASCII range before the Unicode category
NUM = r"[-+]?(?:[0-9\d]+\.?[0-9\d]*|\.[0-9\d]+)(?:[eE][-+]?[0-9\d]+)?"

# str.splitlines() ends a line at \r\n or at any of _BREAKS
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_COMMENT = re.compile(rf"#[^{_BREAKS}]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^|-?\d+|;|\S")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the positional scan's items: a comment (group 1), a line break (group 2)
# or a token; no token holds a line break, so none spans two lines.  Only an
# error compiles it
_SCAN = rf"({_COMMENT.pattern})|(\r\n|[{_BREAKS}])|{_TOKEN.pattern}"


class _TokenStream:
    """The tokens of a ``.pres`` or ``.cw`` file, and the rules they share.

    ``tokens`` holds the token strings of the comment-stripped text, from one
    ``findall``.  A token's line and column are found only when an error
    names it, by ``position``.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.findall(_COMMENT.sub("", text) if "#" in text else text)
        self.pos = 0

    def position(self, index):
        """``(line, col)`` of token ``index``, by a scan of the text that
        counts tokens up to it, line by line."""
        line, line_start, seen = 1, 0, 0
        for m in re.finditer(_SCAN, self.text):
            if m.lastindex == 2:
                line, line_start = line + 1, m.end()
            elif m.lastindex is None:
                if seen == index:
                    return line, m.start() - line_start + 1
                seen += 1
        raise IndexError(f"no token {index}")

    def error(self, message, index=None):
        """A ParseError at token ``index``, by default the last one read."""
        return ParseError(message, *self.position(self.pos - 1 if index is None else index))

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, expected {expect or 'a token'}")
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next(expect=repr(text))
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}")

    def integer(self, what):
        """The value of an integer token."""
        tok = self.next(expect=f"an integer {what}")
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"bad {what} {tok!r}") from None

    def generators(self):
        """The ``gens`` header: the names, and the table ``word`` reads letters
        from, which maps the k-th name to the letters ((k, 1), (k, -1)) and the
        name capitalized to ((k, -1), (k, 1)): a letter and its inverse."""
        tok = self.next(expect="'gens'")
        if tok != "gens":
            raise self.error(f"file must start with 'gens', got {tok!r}")
        names = []
        while (tok := self.next(expect="a generator name or ';'")) != ";":
            if not _NAME.fullmatch(tok) or tok[0].isupper():
                raise self.error(f"generator names must be lowercase, got {tok!r}")
            if tok in names:
                raise self.error(f"duplicate generator {tok!r}")
            names.append(tok)
        if not names:
            raise self.error("no generators declared")
        letters = {}
        for k, name in enumerate(names, start=1):
            letters[name] = (k, 1), (k, -1)
            if name[0] != "_":
                letters[name[0].upper() + name[1:]] = letters[name][::-1]
        return tuple(names), letters

    def word(self, letters, stop=";"):
        """The word up to the ``stop`` token, which is left unread.

        Raises ParseError at the letter that takes the word past
        MAX_WORD_LETTERS letters, and at the stop token if the word is empty.
        """
        tokens, end = self.tokens, len(self.tokens)
        start = pos = self.pos
        out = []
        while pos < end and (name := tokens[pos]) != stop:
            at, pos = pos, pos + 1
            if name == "1":
                # the identity word; legal anywhere a word is expected
                continue
            pair = letters.get(name)
            if pair is None:
                if _NAME.fullmatch(name):
                    raise self.error(f"unknown generator {name!r}", at)
                raise self.error(f"expected a generator name, got {name!r}", at)
            count = 1
            if pos < end and tokens[pos] == "^":
                try:
                    count = int(tokens[pos + 1])
                except (IndexError, ValueError):
                    self.pos = pos + 1
                    self.integer("exponent")  # raises the error at that token
                pos += 2
            if len(out) + abs(count) > MAX_WORD_LETTERS:
                raise self.error(
                    f"word longer than {MAX_WORD_LETTERS} letters after expanding powers", at
                )
            if count == 1:
                out.append(pair[0])
            else:
                out += [pair[count < 0]] * abs(count)
        if pos == start:
            if pos < end:
                raise self.error("empty word", pos)
            raise ParseError("empty word")
        self.pos = pos
        return Word(tuple(out))


def parse_presentation(text):
    """Parse the presentation file format into a Presentation."""
    stream = _TokenStream(text)
    names, letters = stream.generators()

    wirtinger = False
    if stream.peek() == "wirtinger":
        stream.next()
        stream.expect(";")
        wirtinger = True

    relators = []
    meridian = longitude = None
    while stream.peek() is not None:
        tok = stream.next()
        if meridian is not None:
            # the peripheral pair ends the file
            raise stream.error(f"expected end of input, got {tok!r}")
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
            raise stream.error(f"expected 'rel' or 'meridian', got {tok!r}")

    return Presentation(
        generator_names=names,
        relators=tuple(relators),
        wirtinger=wirtinger,
        meridian=meridian,
        longitude=longitude,
    )

