"""Length spectra and truncated Euler products for the Ruelle L-function.

The product over prime geodesics det(I - rho(gamma) exp(-z l))^{-1} is
evaluated by summing per-factor log-determinants in increasing length
order; the product converges absolutely for Re z > 2, and the evaluator
reports a crude bound on the entries beyond the cutoff.  No extrapolation
toward z = 0 is performed: the special value at the origin comes from the
torsion routes, not from truncation.  A spectrum's one constructor takes
arrays and checks every entry; it holds them sorted by length, with the
z-independent holonomy eigenvalues: at rank 1 the holonomies themselves
(what LAPACK returns for a 1 x 1 matrix), at rank 2 a closed form within a
few ulps of LAPACK's, above that one batched LAPACK eigensolve; an
evaluation is one array expression over the factors plus a running sum in
length order, which equals a per-entry loop bit for bit.  A z at which some
factor is not finite (a pole, or an overflow of e^{-z l}) is refused with
ValueError.  The file reader's regex checks only where the numbers stand;
the float conversion checks the numbers, since over their characters it
accepts exactly what ``NUM`` full-matches.  An open file is read a piece of
whole lines at a time, so a parse holds the parsed arrays and one piece,
not the text.
"""

from __future__ import annotations

import functools
import re
import warnings
from array import array
from typing import NamedTuple

import numpy as np

from .presentations import _BREAKS, _COMMENT, NUM, ParseError
from .reps import unitarity_defects


class SpectrumWarning(UserWarning):
    pass


class GeodesicEntry(NamedTuple):
    """One prime closed geodesic of a LengthSpectrum: its length and holonomy."""

    length: float
    holonomy: np.ndarray


def _eigenvalues(h):
    """(E, r) eigenvalues of an (E, r, r) stack h, by its rank r.

    Rank 1: the entries, a view.  Rank 2: m +- s with m = (a + d)/2 and
    s = sqrt(q^2 + bc), q = (a - d)/2, for h = [[a, b], [c, d]], in row slices
    whose two temporaries take PIECE_CHARS bytes.  For a normal h with
    eigenvalues m +- g/2, the Frobenius norm of h - mI gives
    |q|^2 + |bc| <= |g/2|^2 = |q^2 + bc|: the sum does not cancel, so s keeps a
    few ulps of 1 even as the eigenvalues meet, where tr^2 - 4 det loses half
    the digits.  Rank >= 3 and the (0, 0, 0) empty stack: one batched LAPACK
    eigensolve."""
    n, rank = h.shape[:2]
    if rank == 1:
        return h.reshape(-1, 1)
    if rank != 2:
        return np.linalg.eigvals(h)
    out = np.empty((n, 2), dtype=complex)
    rows = max(1, PIECE_CHARS // 32)
    for start in range(0, n, rows):
        a, b, c, d = (h[start:start + rows, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        # numpy may round a complex product with FMA or without, by the
        # operands' length and overlap (one element in place goes without):
        # each product goes to a new array, so the bits do not depend on the
        # stack's length or layout; halving and sums round alike either way
        m, q = out[start:start + rows].T
        np.subtract(a, d, out=q)
        q *= 0.5
        s = np.multiply(q, q)
        s += np.multiply(b, c)
        np.sqrt(s, out=s)
        np.add(a, d, out=m)
        m *= 0.5
        np.subtract(m, s, out=q)
        m += s
    return out


class LengthSpectrum:
    """Prime geodesics of rank r from ``lengths`` (E,) and ``holonomies`` (E, r, r),
    in any order (an empty spectrum may give any empty holonomies).  A wrong
    shape or a rank below 1 is a ValueError; so is the first entry, in the
    given order, whose length is not finite and positive or whose holonomy
    fails ``unitarity_defects``, with its index as ``entry``.  Entries are
    checked in slices of about PIECE_CHARS numbers.  The spectrum keeps them
    stably sorted by length, with ``eigenvalues`` (E, r; ``_eigenvalues``); an
    empty one holds (0, 0, 0) and (0, 0) arrays, whatever its rank."""

    def __init__(self, rank, lengths, holonomies):
        lengths = np.asarray(lengths, dtype=float)
        holonomies = np.asarray(holonomies, dtype=complex)
        if rank < 1 or lengths.ndim != 1 or (holonomies.shape != (len(lengths), rank, rank)
                                             and (len(lengths) or holonomies.size)):
            raise ValueError(f"a spectrum needs a rank r >= 1, lengths (E,) and holonomies "
                             f"(E, r, r), got {rank}, {lengths.shape} and {holonomies.shape}")
        rows = max(1, PIECE_CHARS // (1 + 2 * rank * rank))
        for start in range(0, len(lengths), rows):
            ls = lengths[start:start + rows]
            defects, unitary = unitarity_defects(holonomies[start:start + rows])
            length_ok = np.isfinite(ls) & (ls > 0)
            if (bad := np.flatnonzero(~length_ok | ~unitary)).size:
                i = bad[0]
                exc = ValueError(
                    f"holonomy is not unitary (defect {defects[i]:.2e})" if length_ok[i]
                    else f"geodesic length must be finite and positive, got {ls[i]}")
                exc.entry = start + int(i)
                raise exc
        order = np.argsort(lengths, kind="stable")
        self.rank = rank
        self.lengths = lengths[order]
        self.holonomies = holonomies[order] if len(order) else np.empty((0, 0, 0), dtype=complex)
        self.eigenvalues = _eigenvalues(self.holonomies)

    @property
    def entries(self):
        """The spectrum as GeodesicEntry records, built on each access."""
        return tuple(GeodesicEntry(float(l), h) for l, h in zip(self.lengths, self.holonomies))


def _log_prefix(spec, z, n):
    """(n + 1,) running sums of -log det(I - rho(gamma) e^{-z l}) over the n
    shortest entries, in length order from 0j as a per-entry loop adds them
    (principal log of 1 - mu per eigenvalue mu).  Raises ValueError naming the
    first length whose term is not finite: z is a pole there (mu = 1) or
    e^{-z l} overflows.  Warns at most once, if any of these factors has
    spectral radius >= 1."""
    with np.errstate(all="ignore"):
        mus = spec.eigenvalues[:n] * np.exp(-z * spec.lengths[:n])[:, None]
        terms = -np.sum(np.log(1.0 - mus), axis=1)
        divergent = np.flatnonzero(np.abs(mus).max(axis=1, initial=0.0) >= 1.0)
    if (bad := np.flatnonzero(~np.isfinite(terms))).size:
        raise ValueError(f"the Euler factor at length {spec.lengths[bad[0]]} is not finite "
                         f"at z = {z.real!r},{z.imag!r}")
    if divergent.size:
        warnings.warn(f"{divergent.size} factor(s), the first at length "
                      f"{spec.lengths[divergent[0]]}, have spectral radius >= 1; the Euler "
                      "product diverges there", SpectrumWarning, stacklevel=3)
    return np.concatenate(([0j], 0j + np.cumsum(terms)))


def _warn_outside_region(spec, z):
    """Warn, for the caller of a public evaluator, when Re z <= 2 or spec is empty."""
    if z.real <= 2.0:
        warnings.warn(f"Re z = {z.real} is outside the certified convergence region Re z > 2",
                      SpectrumWarning, stacklevel=3)
    if not len(spec.lengths):
        warnings.warn("empty length spectrum: the product is 1", SpectrumWarning, stacklevel=3)


def truncated_ruelle(spec, z, cutoff=None):
    """Truncated Euler product and a bound on the file's remaining entries.

    Returns (value, tail_bound).  The value multiplies the factors with
    length <= cutoff (all entries when cutoff is None); the tail bound sums
    r e^{-x l} / (1 - e^{-x l}) with x = Re z over the skipped entries, a
    report on the data beyond the cutoff, not a mathematical tail bound
    beyond the file's horizon.
    """
    z = complex(z)
    _warn_outside_region(spec, z)
    n = len(spec.lengths) if cutoff is None else np.searchsorted(spec.lengths, cutoff, "right")
    return complex(np.exp(_log_prefix(spec, z, n)[-1])), _tail_bound(spec, z, n)


def _tail_bound(spec, z, n):
    """truncated_ruelle's tail bound over the entries after the n shortest,
    summed in order (np.sum is pairwise)."""
    with np.errstate(over="ignore"):  # q = inf at Re z < 0: the entry adds inf
        q = np.exp(-z.real * spec.lengths[n:])
    skipped = np.full(q.shape, np.inf)
    np.divide(spec.rank * q, 1.0 - q, out=skipped, where=q < 1.0)
    return float(np.cumsum(skipped)[-1]) if skipped.size else 0.0


def _report_rows(cutoffs, used, prefix):
    """convergence_report's rows at sorted cutoffs keeping ``used`` entries each."""
    rows, prev = [], None
    for L, k in zip(cutoffs, used):
        rows.append((L, prefix[k], k, None if prev is None else abs(prefix[k] - prev)))
        prev = prefix[k]
    return rows


def convergence_report(spec, z, cutoffs):
    """Partial log-products at increasing cutoffs, for stabilization checks.

    Returns rows (cutoff, log_value, entries_used, delta_from_prev), all read
    off one running sum up to the largest cutoff."""
    cutoffs = sorted(cutoffs)
    used = np.searchsorted(spec.lengths, cutoffs, side="right").tolist()
    return _report_rows(cutoffs, used, _log_prefix(spec, complex(z), max(used, default=0)))


def ruelle_eval(spec, z, cutoffs=()):
    """``(convergence_report(spec, z, cutoffs), (value, tail))``, bit for bit and with their
    warnings, read off one running sum over all entries: the value of ``truncated_ruelle(spec,
    z)`` and the tail of ``truncated_ruelle(spec, z, max(cutoffs))``, 0 without cutoffs."""
    z = complex(z)
    _warn_outside_region(spec, z)
    cutoffs = sorted(cutoffs)
    used = np.searchsorted(spec.lengths, cutoffs, side="right").tolist()
    prefix = _log_prefix(spec, z, len(spec.lengths))
    tail = _tail_bound(spec, z, used[-1] if used else len(spec.lengths))
    return _report_rows(cutoffs, used, prefix), (complex(np.exp(prefix[-1])), tail)


# _BLANK is the rest of \s beside the line breaks of str.splitlines
_BLANK = rf"[^\S{_BREAKS}]"
# trailing blanks, an optional comment and the line's end
_LINE_END = rf"{_BLANK}*(?:{_COMMENT.pattern})?(?:\r\n|[{_BREAKS}]|\Z)"
_RANK = re.compile(rf"{_BLANK}*rank{_BLANK}+(\d+){_BLANK}*;{_LINE_END}")
# a number of the block reader: any run of NUM's characters, which the float
# conversion accepts exactly when it full-matches NUM; sre keeps about a
# quarter of NUM's state per holonomy pair for it
_TOKEN = r"[-+.eE0-9\d]+"
# the line reader's geo line, each number a _TOKEN run that is then checked
# against NUM on its own: the same lines as with NUM in place of each run,
# without sre's state for NUM at every number
_GEO = re.compile(rf"geo\s+{_TOKEN}\s*;(\s*(?:{_TOKEN},{_TOKEN}(?:\s+{_TOKEN},{_TOKEN})*)?\s*);")
# sre keeps backtracking state for every number of a match until the match
# ends, so a block is sized by the numbers it holds, not by its lines
BLOCK_NUMBERS = 1024


@functools.lru_cache(maxsize=8)
def _block(pairs):
    """Blank, comment or geo lines as the line reader accepts them, with
    ``pairs`` holonomy pairs per geo line (no geo line when pairs is 0) and
    any _TOKEN where the line reader has a NUM: as many lines as hold
    BLOCK_NUMBERS numbers, and at least one."""
    line = f"{_BLANK}*"
    if pairs:
        pair = f"{_TOKEN},{_TOKEN}"
        line += (rf"(?:geo{_BLANK}+{_TOKEN}{_BLANK}*;{_BLANK}*{pair}"
                 rf"(?:{_BLANK}+{pair}){{{pairs - 1}}}{_BLANK}*;)?")
    lines = max(1, BLOCK_NUMBERS // (1 + 2 * pairs))
    return re.compile(rf"(?:{line}{_LINE_END}){{1,{lines}}}")


def _raise_first_error(source, invalid=None):
    """The line-by-line reader, run only once a faster check has failed.

    Raises the ParseError of the first line that breaks the grammar, or,
    when every line parses, ``invalid = (entry, message)`` from the
    LengthSpectrum constructor on the line of that geo entry.  A file is
    first read to its end, so that a byte that does not decode is raised
    wherever it stands, as by a whole read; then its lines are read again
    from its start a piece at a time.  A piece ends at a line break, so its
    lines are those that str.splitlines() finds in the whole text."""
    for _ in _pieces(source):
        pass
    source.seek(0)
    rank, entry = None, 0
    runs, number = re.compile(_TOKEN), re.compile(NUM)
    lines = (line for piece in _pieces(source) for line in piece.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # the runs after "geo" are the line's numbers
        if not ((m := _GEO.fullmatch(line))
                and all(number.fullmatch(run[0]) for run in runs.finditer(line, 3))):
            if m := re.fullmatch(r"rank\s+(\d+)\s*;", line):
                if rank is not None:
                    raise ParseError("duplicate 'rank' header", lineno)
                rank = int(m.group(1))
                if rank < 1:
                    raise ParseError("rank must be positive", lineno)
                continue
            if m := re.fullmatch(rf"geo\s+{NUM}\s*;(.*);", line):
                raise ParseError(f"malformed holonomy {m.group(1).strip()!r}", lineno)
            raise ParseError(f"malformed spectrum line: {line!r}", lineno)
        if rank is None:
            raise ParseError("'geo' before 'rank r;'", lineno)
        if (count := 2 * m.group(1).count(",")) != 2 * rank * rank:
            raise ParseError(f"expected {2 * rank * rank} numbers for a rank-{rank} "
                             f"holonomy, got {count}", lineno)
        if invalid is not None and entry == invalid[0]:
            raise ParseError(invalid[1], lineno)
        entry += 1
    if rank is None:
        raise ParseError("missing 'rank r;' header")
    raise AssertionError("the block reader rejected a spectrum the line reader accepts")


# a text file is read this many characters at a time, a spectrum's entries
# are checked in slices of about this many numbers, and _eigenvalues' rank-2
# temporaries take this many bytes
PIECE_CHARS = 1 << 16


class _Text:
    """A str read as a text file is, by ``read`` and ``seek``, without the
    copy io.StringIO makes of it at 4 bytes a character."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def read(self, size):
        self.pos += size
        return self.text[self.pos - size : self.pos]

    def seek(self, pos):
        self.pos = pos


def _pieces(source):
    """The text of an open text file in pieces of whole lines: it is read
    PIECE_CHARS characters at a time, and a piece ends after the last "\\n"
    of a read, so a line longer than a read is held whole."""
    held = []
    while True:
        try:
            chunk = source.read(PIECE_CHARS)
        except UnicodeDecodeError:
            source.seek(0)
            source.read()  # raises the error of reading the file whole, at its position
            raise
        if not chunk:
            break
        if cut := chunk.rfind("\n") + 1:
            held.append(chunk[:cut])
            yield "".join(held)
            held = [chunk[cut:]]
        else:
            held.append(chunk)
    if tail := "".join(held):
        yield tail


def parse_spectrum(source):
    """Parse the spectrum file format from its text or from an open text file.

    ``rank r;`` then one ``geo <length> ; <re,im re,im ...> ;`` line per
    prime geodesic: the holonomy row major as r*r pairs ``re,im`` separated
    by whitespace; ``#`` starts a comment.  The error names the line of the
    first entry whose length or holonomy is invalid, unless some line breaks
    the grammar, which is reported first.

    A str is read as a file is (``_Text``).  A file is parsed a piece of
    whole lines at a time (``_pieces``), so the run holds the parsed numbers
    and one piece, never the whole text.  A block regex checks where the
    numbers stand, each a run of NUM's characters (_TOKEN), and one numpy
    conversion per block checks and reads them.  The LengthSpectrum
    constructor checks the table after the last line.  Any failure is
    reported by the line reader, which reads the file again a piece at a
    time.  At ranks 1 and 2 no eigensolve runs (``_eigenvalues``)."""
    if isinstance(source, str):
        source = _Text(source)
    rank, nums = None, array("d")
    for piece in _pieces(source):
        pos = 0
        if rank is None:
            while pos < len(piece) and (m := _block(0).match(piece, pos)):
                pos = m.end()
            if pos == len(piece):
                continue
            if not (header := _RANK.match(piece, pos)) or (rank := int(header[1])) < 1:
                _raise_first_error(source)
            pos = header.end()
        # a pair takes at least three characters, so no geo line of the piece
        # can hold more pairs than it has characters: such a rank is never compiled
        block = _block(rank * rank if rank * rank <= len(piece) else 0)
        while pos < len(piece):
            if not (m := block.match(piece, pos)):
                _raise_first_error(source)
            lines = m[0]
            if "#" in lines:
                lines = _COMMENT.sub("", lines)
            try:
                block_nums = np.array(lines.replace("geo", " ").replace(";", " ")
                                      .replace(",", " ").split(), dtype=float)
            except ValueError:
                _raise_first_error(source)
            nums.frombytes(block_nums.tobytes())
            pos = m.end()
    if rank is None:
        _raise_first_error(source)
    if not nums:
        return LengthSpectrum(rank, (), ())
    # one row per entry: the length, then the holonomy as re,im pairs
    table = np.frombuffer(nums).reshape(-1, 1 + 2 * rank * rank)
    try:
        return LengthSpectrum(rank, table[:, 0],
                              table[:, 1:].view(complex).reshape(-1, rank, rank))
    except ValueError as exc:
        invalid = exc.entry, str(exc)
    _raise_first_error(source, invalid)


def format_spectrum(spec):
    """Serialize a LengthSpectrum in the file format, with repr-exact floats."""
    lines = [f"rank {spec.rank};"]
    for length, h in zip(spec.lengths.tolist(), spec.holonomies.tolist()):
        nums = " ".join(f"{c.real!r},{c.imag!r}" for row in h for c in row)
        lines.append(f"geo {length!r} ; {nums} ;")
    return "\n".join(lines) + "\n"
