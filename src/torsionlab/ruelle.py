"""Length spectra and truncated Euler products for the Ruelle L-function.

The product over prime geodesics det(I - rho(gamma) exp(-z l))^{-1} is
evaluated by summing per-factor log-determinants in increasing length
order; the product converges absolutely for Re z > 2, and the evaluator
reports a crude bound on the entries beyond the cutoff.  No extrapolation
toward z = 0 is performed: the special value at the origin comes from the
torsion routes, not from truncation.  A spectrum is held as arrays
sorted by length, with the z-independent holonomy eigenvalues from one
batched eigensolve (at rank 1 the holonomies themselves, which is what
LAPACK returns for a 1 x 1 matrix); an evaluation is one array expression
over the factors plus a running sum in length order, which equals a
per-entry loop bit for bit.  A z at which some factor is not finite (a
pole, or an overflow of e^{-z l}) is refused with ValueError.  The file
reader's regex checks only where the numbers stand; the float conversion
checks the numbers, since over their characters it accepts exactly what
``NUM`` full-matches.  An open file is read a piece of whole lines at a
time, so a parse holds the parsed arrays and one piece, not the text.
"""

from __future__ import annotations

import functools
import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .presentations import _BREAKS, _COMMENT, NUM, ParseError
from .reps import unitarity_defects


class SpectrumWarning(UserWarning):
    pass


def _first_invalid(lengths, holonomies):
    """(index, reason) of the first entry with a length that is not finite and
    positive, or a holonomy that fails ``unitarity_defects``, else None."""
    defects, unitary = unitarity_defects(holonomies)
    length_ok = np.isfinite(lengths) & (lengths > 0)
    if not (bad := np.flatnonzero(~length_ok | ~unitary)).size:
        return None
    i = bad[0]
    return i, (f"holonomy is not unitary (defect {defects[i]:.2e})" if length_ok[i]
               else f"geodesic length must be finite and positive, got {lengths[i]}")


@dataclass(frozen=True)
class GeodesicEntry:
    """One prime closed geodesic: its length and unitary holonomy image."""

    length: float
    holonomy: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.holonomy, dtype=complex)
        if h.ndim != 2 or not 0 < h.shape[0] == h.shape[1]:
            raise ValueError("holonomy must be a square matrix, at least 1x1")
        if bad := _first_invalid(np.array([self.length], dtype=float), h[None]):
            raise ValueError(bad[1])
        object.__setattr__(self, "holonomy", h)


class LengthSpectrum:
    """Prime geodesics of rank r: ``lengths`` (E,), ``holonomies`` (E, r, r) and
    ``eigenvalues`` (E, r, one batched eigensolve; at rank 1 a view of the
    holonomies, bit for bit what the eigensolve returns), stably sorted by
    length.  An empty spectrum holds (0, 0, 0) and (0, 0) arrays whatever its rank."""

    def __init__(self, rank, entries):
        if any(e.holonomy.shape != (rank, rank) for e in entries):
            raise ValueError("all holonomies must share the declared rank")
        self._store(rank, np.array([e.length for e in entries], dtype=float),
                    np.array([e.holonomy for e in entries], dtype=complex))

    def _store(self, rank, lengths, holonomies):
        """Sort unchecked arrays (holonomies flat or stacked) and take their eigenvalues."""
        order = np.argsort(lengths, kind="stable")
        self.rank = rank
        self.lengths = lengths[order]
        self.holonomies = (holonomies.reshape(len(order), rank, rank)[order] if len(order)
                           else np.empty((0, 0, 0), dtype=complex))
        self.eigenvalues = (self.holonomies.reshape(-1, 1) if rank == 1 and len(order)
                            else np.linalg.eigvals(self.holonomies))
        return self

    @property
    def entries(self):
        """The spectrum as GeodesicEntry objects, built on each access."""
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


def _raise_first_error(text, invalid=None):
    """The line-by-line reader, run only once a faster check has failed.

    Raises the ParseError of the first line that breaks the grammar, or,
    when every line parses, ``invalid = (entry, message)`` from the batched
    check on the line of that geo entry."""
    rank, entry = None, 0
    runs, number = re.compile(_TOKEN), re.compile(NUM)
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


# a text file is read this many characters at a time, and the parsed table
# is checked in slices of about this many numbers
PIECE_CHARS = 1 << 16


def _whole(source):
    """The whole text of ``source``, a str or a seekable text file, for the line reader."""
    if isinstance(source, str):
        return source
    source.seek(0)
    return source.read()


def _pieces(source):
    """The text of ``source`` in pieces of whole lines.  A str is one piece; a
    text file is read PIECE_CHARS characters at a time, and a piece ends after
    the last "\\n" of a read, so a line longer than a read is held whole."""
    if isinstance(source, str):
        yield source
        return
    held = []
    while True:
        try:
            chunk = source.read(PIECE_CHARS)
        except UnicodeDecodeError:
            _whole(source)  # raises the error of reading the file whole, at its position
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

    A file is parsed a piece of whole lines at a time (``_pieces``), so the
    run holds the parsed numbers and one piece, never the whole text; a str is
    one piece.  A block regex checks where the numbers stand, each a run of
    NUM's characters (_TOKEN), and one numpy conversion per block checks and
    reads them.  Lengths and unitarity are checked after the last line, in
    slices of the table of about PIECE_CHARS numbers.  Any failure is
    reported by the line reader on the whole text, which a file is read again
    for.  At rank 1 the holonomies are their own eigenvalues, so no
    eigensolve runs."""
    rank, nums = None, array("d")
    for piece in _pieces(source):
        pos = 0
        if rank is None:
            while pos < len(piece) and (m := _block(0).match(piece, pos)):
                pos = m.end()
            if pos == len(piece):
                continue
            if not (header := _RANK.match(piece, pos)) or (rank := int(header[1])) < 1:
                _raise_first_error(_whole(source))
            pos = header.end()
        # a pair takes at least three characters, so no geo line of the piece
        # can hold more pairs than it has characters: such a rank is never compiled
        block = _block(rank * rank if rank * rank <= len(piece) else 0)
        while pos < len(piece):
            if not (m := block.match(piece, pos)):
                _raise_first_error(_whole(source))
            lines = m[0]
            if "#" in lines:
                lines = _COMMENT.sub("", lines)
            try:
                block_nums = np.array(lines.replace("geo", " ").replace(";", " ")
                                      .replace(",", " ").split(), dtype=float)
            except ValueError:
                _raise_first_error(_whole(source))
            nums.frombytes(block_nums.tobytes())
            pos = m.end()
    if rank is None:
        _raise_first_error(_whole(source))
    if not nums:
        return LengthSpectrum(rank, ())
    # one row per entry: the length, then the holonomy as re,im pairs
    table = np.frombuffer(nums).reshape(-1, 1 + 2 * rank * rank)
    lengths, holonomies = table[:, 0], table[:, 1:].view(complex).reshape(-1, rank, rank)
    rows = max(1, PIECE_CHARS // table.shape[1])
    for start in range(0, len(table), rows):
        if bad := _first_invalid(lengths[start:start + rows], holonomies[start:start + rows]):
            _raise_first_error(_whole(source), (start + bad[0], bad[1]))
    return LengthSpectrum.__new__(LengthSpectrum)._store(rank, lengths, holonomies)


def format_spectrum(spec):
    """Serialize a LengthSpectrum in the file format, with repr-exact floats."""
    lines = [f"rank {spec.rank};"]
    for length, h in zip(spec.lengths.tolist(), spec.holonomies.tolist()):
        nums = " ".join(f"{c.real!r},{c.imag!r}" for row in h for c in row)
        lines.append(f"geo {length!r} ; {nums} ;")
    return "\n".join(lines) + "\n"
