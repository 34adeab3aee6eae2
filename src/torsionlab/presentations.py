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
  at most MAX_WORD_LETTERS letters once its powers are written out, the
  words of a file at most MAX_FILE_LETTERS together, and a word is never
  empty.  It is read into the ``freegroup`` form, a freely reduced
  tuple of signed generator indices: ``i`` for x_i and ``-i`` for x_i^-1.

Grammar of a presentation::

    file       := header ("wirtinger" ";")? relator* peripheral?
    relator    := "rel" word ";"
    peripheral := "meridian" word ";" "longitude" word ";"

A Presentation converts its relators once, at construction, to one int32
letter array with relator offsets and the array's prefix exponent sums
(``letter_array``).  Its checks read that array, and so, once each on first
read, do the prefix degree bounds of its relators (``degree_bounds``) and
their table of Fox terms (``fox_terms``, by ``fox_table``); the Fox and CW
routes read both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .freegroup import reduce


class ParseError(ValueError):
    """Syntax or consistency error in an input file, with position info."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


def stray_letter(word, n):
    """The first letter of ``word`` that is 0 or names a generator past the
    n-th, or None: a letter k is read at k + n in tables of 2n + 1 entries,
    where any other index would wrap around or fail."""
    if word and (min(word) < -n or max(word) > n or 0 in word):
        return next(k for k in word if not 0 < abs(k) <= n)
    return None


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with optional peripheral words."""

    generator_names: tuple
    relators: tuple
    wirtinger: bool = False
    meridian: tuple | None = None
    longitude: tuple | None = None

    def __post_init__(self):
        n = self.n_generators
        _, offsets, prefix = self.letter_array  # checks the relators' letters
        for what, w in (("meridian", self.meridian), ("longitude", self.longitude)):
            if w is not None and stray_letter(w, n) is not None:
                raise ParseError(f"{what} {w} uses a generator beyond the declared {n}")
        if self.wirtinger and len(self.relators) != n - 1:
            raise ParseError(
                f"wirtinger presentation needs {n - 1} relators, got {len(self.relators)}"
            )
        # every generator abelianizes to t only if each relator maps to 0 in Z
        sums = prefix[offsets[1:]] - prefix[offsets[:-1]]
        if self.wirtinger and (bad := np.flatnonzero(sums)).size:
            k = int(bad[0])
            raise ParseError(f"wirtinger relator {k + 1} has exponent sum {sums[k]}, not 0")

    @property
    def n_generators(self):
        return len(self.generator_names)

    @property
    def has_peripheral(self):
        return self.meridian is not None and self.longitude is not None

    @cached_property
    def letter_array(self):
        """``(letters, offsets, prefix)``: the relators' letters in one int32
        array, relator j being ``letters[offsets[j]:offsets[j + 1]]``, and the
        exponent sum ``prefix[k]`` of the first k letters, ``prefix[0] = 0``;
        8 bytes a letter, read-only.  Each relator tuple is read once.  A
        ParseError names the first relator with a stray letter."""
        relators, n = self.relators, self.n_generators
        offsets = np.zeros(len(relators) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, relators), dtype=np.intp, count=len(relators)),
                  out=offsets[1:])
        try:
            # int64 first: numpy < 2 wraps an int32 overflow instead of raising
            wide = np.fromiter(chain.from_iterable(relators), dtype=np.int64, count=offsets[-1])
        except OverflowError:  # a letter past int64
            wide = None
        if wide is None or wide.size and (wide.min() < -n or wide.max() > n or not wide.all()):
            word = next(r for r in relators if stray_letter(r, n) is not None)
            raise ParseError(f"relator {word} uses a generator beyond the declared {n}")
        letters = wide.astype(np.int32)
        prefix = np.zeros(len(letters) + 1, dtype=np.int32)
        np.cumsum(np.sign(letters), out=prefix[1:])
        for a in (letters, offsets, prefix):
            a.flags.writeable = False
        return letters, offsets, prefix

    @cached_property
    def degree_bounds(self):
        """``(low, high)`` of each relator: the least and greatest exponent sum
        of its prefixes, the empty one and the relator itself included, read
        off ``letter_array``'s prefix sums, so the Fox Jacobian's degree span
        is known before any ``fox_terms`` table is derived."""
        _, offsets, prefix = self.letter_array
        # relator j's segment of reduceat stops short of its last prefix sum,
        # the first of relator j + 1, so that one is taken on its own
        starts, ends = offsets[:-1], offsets[1:]
        low = np.minimum(np.minimum.reduceat(prefix, starts), prefix[ends]) - prefix[starts]
        high = np.maximum(np.maximum.reduceat(prefix, starts), prefix[ends]) - prefix[starts]
        return tuple(zip(low.tolist(), high.tolist()))

    @cached_property
    def fox_terms(self):
        """``fox_table(*self.letter_array)``, derived on first read and kept."""
        return fox_table(*self.letter_array)


def fox_table(letters, offsets, prefix):
    """The Fox terms of the relators of ``Presentation.letter_array`` by every
    generator, one per letter in relator and then letter order, as one
    read-only int32 table of shape (5, letters) with rows ``relator,
    generator, sign, length, degree``.

    The letter at position k of its relator, x_i^s, adds s * (prefix) to
    d r / d x_i: the prefix before it (``length`` k) if s = +1, through it
    (k + 1) if s = -1.  ``degree`` is that prefix's exponent sum, the lower
    of the two around the letter.
    """
    table = np.empty((5, len(letters)), dtype=np.int32)
    relator, generator, sign, length, degree = table
    relator[:] = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
    np.abs(letters, out=generator)
    np.sign(letters, out=sign)
    # each letter's relator's first position
    start = offsets[:-1].astype(np.int32)[relator]
    np.subtract(np.arange(len(letters), dtype=np.int32), start, out=length)
    length += letters < 0
    np.minimum(prefix[:-1], prefix[1:], out=degree)
    degree -= prefix[start]
    table.flags.writeable = False
    return table


# letters a word may hold once its powers are written out; checked before
# expanding, so a huge exponent is a ParseError rather than a memory blow-up
MAX_WORD_LETTERS = 100_000
# letters all the words of one .pres or .cw file may hold together, counted
# the same way, so a short file of large powers cannot ask for gigabytes:
# parsed words hold 8 bytes a letter as tuples and relators 8 more in the
# letter array (12.8 MB at the budget); verify-knot and talex at --xi=0,1
# peak at 112 MiB RSS on 8 relators [x_k, x_{k+1}]^24990 over 9 generators
# written out in full, with meridian x1 and longitude x2
MAX_FILE_LETTERS = 8 * MAX_WORD_LETTERS

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
    names it, by ``position``.  ``letters`` counts the letters of the words
    read so far, for MAX_FILE_LETTERS.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.findall(_COMMENT.sub("", text) if "#" in text else text)
        self.pos = 0
        self.letters = 0

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
        from, which maps the k-th name to the letter k and the name capitalized
        to its inverse -k."""
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
            letters[name] = k
            if name[0] != "_":
                letters[name[0].upper() + name[1:]] = -k
        return tuple(names), letters

    def word(self, letters, stop=";"):
        """The word up to the ``stop`` token, which is left unread.

        Raises ParseError at the letter that takes the word past
        MAX_WORD_LETTERS letters or the file past MAX_FILE_LETTERS, and at
        the stop token if the word is empty.
        """
        tokens, end = self.tokens, len(self.tokens)
        start = pos = self.pos
        budget = MAX_FILE_LETTERS - self.letters
        out = []
        while pos < end and (name := tokens[pos]) != stop:
            at, pos = pos, pos + 1
            if name == "1":
                # the identity word; legal anywhere a word is expected
                continue
            letter = letters.get(name)
            if letter is None:
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
            if len(out) + abs(count) > budget:
                raise self.error(
                    f"file longer than {MAX_FILE_LETTERS} letters after expanding powers", at
                )
            if count == 1:
                out.append(letter)
            else:
                out += [letter if count > 0 else -letter] * abs(count)
        if pos == start:
            if pos < end:
                raise self.error("empty word", pos)
            raise ParseError("empty word")
        self.pos = pos
        self.letters += len(out)
        return reduce(out)


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

    del stream  # its token list, before the relators are converted
    return Presentation(
        generator_names=names,
        relators=tuple(relators),
        wirtinger=wirtinger,
        meridian=meridian,
        longitude=longitude,
    )

