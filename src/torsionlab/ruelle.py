"""Length spectra and truncated Euler products for the Ruelle L-function.

The product over prime geodesics det(I - rho(gamma) exp(-z l))^{-1} is
evaluated by summing per-factor log-determinants in increasing length
order; the product converges absolutely for Re z > 2, and the evaluator
reports a crude bound on the entries beyond the cutoff.  No extrapolation
toward z = 0 is performed: the special value at the origin comes from the
torsion routes, not from truncation.  A spectrum is held as arrays
sorted by length, with the z-independent holonomy eigenvalues from one
batched eigensolve; an evaluation is one array expression over the factors
plus a running sum in length order, which equals a per-entry loop bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .presentations import ParseError

HOLONOMY_UNITARITY_TOL = 1e-10


class NotLoxodromicError(ValueError):
    """Trace of a non-loxodromic (elliptic or parabolic) element."""


class SpectrumWarning(UserWarning):
    pass


def _first_invalid(lengths, holonomies):
    """(index, reason) of the first entry with a length that is not finite and
    positive, or a holonomy h with ||h^H h - I||_F > HOLONOMY_UNITARITY_TOL,
    else None."""
    # a huge or infinite entry gives an inf or nan defect, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.conj(np.swapaxes(holonomies, 1, 2)) @ holonomies
        defects = np.linalg.norm(gram - np.eye(holonomies.shape[1]), axis=(1, 2))
    length_ok = np.isfinite(lengths) & (lengths > 0)
    bad = np.flatnonzero(~length_ok | ~(defects <= HOLONOMY_UNITARITY_TOL))
    if not bad.size:
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
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("holonomy must be a square matrix")
        if bad := _first_invalid(np.array([self.length], dtype=float), h[None]):
            raise ValueError(bad[1])
        object.__setattr__(self, "holonomy", h)


class LengthSpectrum:
    """Prime geodesics of rank r: ``lengths`` (E,), ``holonomies`` (E, r, r) and
    ``eigenvalues`` (E, r, one batched eigensolve), stably sorted by length.
    An empty spectrum holds (0, 0, 0) and (0, 0) arrays whatever its rank."""

    def __init__(self, rank, entries):
        if any(e.holonomy.shape != (rank, rank) for e in entries):
            raise ValueError("all holonomies must share the declared rank")
        self._store(rank, np.array([e.length for e in entries], dtype=float),
                    np.array([e.holonomy for e in entries], dtype=complex))

    def _store(self, rank, lengths, holonomies):
        """Sort unchecked arrays (holonomies flat or stacked) and solve for eigenvalues."""
        order = np.argsort(lengths, kind="stable")
        self.rank = rank
        self.lengths = lengths[order]
        self.holonomies = (holonomies.reshape(len(order), rank, rank)[order] if len(order)
                           else np.empty((0, 0, 0), dtype=complex))
        self.eigenvalues = np.linalg.eigvals(self.holonomies)
        return self

    @property
    def entries(self):
        """The spectrum as GeodesicEntry objects, built on each access."""
        return tuple(GeodesicEntry(float(l), h) for l, h in zip(self.lengths, self.holonomies))


def complex_length_from_trace(tr):
    """Complex length (l, theta) of a loxodromic element from its trace.

    Solves 2 cosh((l + i theta)/2) = +-tr with l > 0 (the sign ambiguity of
    PSL(2, C) is resolved by folding theta into (-pi, pi]).  Real traces in
    [-2, 2] are elliptic or parabolic and rejected.
    """
    tr = complex(tr)
    if abs(tr.imag) < 1e-14 and abs(tr.real) <= 2.0:
        raise NotLoxodromicError(f"trace {tr} lies in [-2, 2]: not loxodromic")
    w = cmath.acosh(tr / 2.0)  # principal branch: Re w >= 0
    length = 2.0 * w.real
    theta = 2.0 * w.imag
    # fold into (-pi, pi]: theta -> theta - 2 pi k, the +-tr ambiguity shifts by 2 pi
    theta = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if theta <= -np.pi + 1e-15:
        theta = np.pi
    if length <= 1e-14:
        raise NotLoxodromicError(f"trace {tr} gives zero translation length")
    return length, theta


def _log_prefix(spec, z, n):
    """(n + 1,) running sums of -log det(I - rho(gamma) e^{-z l}) over the n
    shortest entries, in length order from 0j as a per-entry loop adds them
    (principal log of 1 - mu per eigenvalue mu).  Warns at most once, if any
    of these factors has spectral radius >= 1."""
    mus = spec.eigenvalues[:n] * np.exp(-z * spec.lengths[:n])[:, None]
    divergent = np.flatnonzero(np.abs(mus).max(axis=1, initial=0.0) >= 1.0)
    if divergent.size:
        warnings.warn(f"{divergent.size} factor(s), the first at length "
                      f"{spec.lengths[divergent[0]]}, have spectral radius >= 1; the Euler "
                      "product diverges there", SpectrumWarning, stacklevel=3)
    return np.concatenate(([0j], 0j + np.cumsum(-np.sum(np.log(1.0 - mus), axis=1))))


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
    beyond the file's horizon.  The tail is summed in order (np.sum is pairwise).
    """
    z = complex(z)
    _warn_outside_region(spec, z)
    if not len(spec.lengths):
        return 1.0 + 0j, 0.0
    n = len(spec.lengths) if cutoff is None else np.searchsorted(spec.lengths, cutoff, "right")
    q = np.exp(-z.real * spec.lengths[n:])
    skipped = np.full(q.shape, np.inf)
    np.divide(spec.rank * q, 1.0 - q, out=skipped, where=q < 1.0)
    tail = np.cumsum(skipped)[-1] if skipped.size else 0.0
    return complex(np.exp(_log_prefix(spec, z, n)[-1])), float(tail)


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
    """``(convergence_report(spec, z, cutoffs), truncated_ruelle(spec, z))``, bit
    for bit and with their warnings, read off one running sum over all entries."""
    z = complex(z)
    _warn_outside_region(spec, z)
    cutoffs = sorted(cutoffs)
    used = np.searchsorted(spec.lengths, cutoffs, side="right").tolist()
    prefix = _log_prefix(spec, z, len(spec.lengths))
    return _report_rows(cutoffs, used, prefix), (complex(np.exp(prefix[-1])), 0.0)


# \d, as [0-9\d] so that sre tests the ASCII range before the Unicode category
_DIGIT = r"[0-9\d]"
_NUM = rf"[-+]?(?:{_DIGIT}+\.?{_DIGIT}*|\.{_DIGIT}+)(?:[eE][-+]?{_DIGIT}+)?"
_GEO = re.compile(rf"geo\s+{_NUM}\s*;(\s*(?:{_NUM},{_NUM}(?:\s+{_NUM},{_NUM})*)?\s*);")

# str.splitlines() ends a line at \r\n or at any of _BREAKS; _BLANK is the rest of \s
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_BLANK = rf"[^\S{_BREAKS}]"
_COMMENT = re.compile(rf"#[^{_BREAKS}]*")
# trailing blanks, an optional comment and the line's end
_LINE_END = rf"{_BLANK}*(?:{_COMMENT.pattern})?(?:\r\n|[{_BREAKS}]|\Z)"
_RANK = re.compile(rf"{_BLANK}*rank{_BLANK}+(\d+){_BLANK}*;{_LINE_END}")
# sre keeps backtracking state for every number of a match until the match
# ends, so a block is sized by the numbers it holds, not by its lines
BLOCK_NUMBERS = 1024


@functools.lru_cache(maxsize=8)
def _block(pairs):
    """Blank, comment or geo lines as the line reader accepts them, with
    ``pairs`` holonomy pairs per geo line (no geo line when pairs is 0): as
    many lines as hold BLOCK_NUMBERS numbers, and at least one."""
    line = f"{_BLANK}*"
    if pairs:
        pair = f"{_NUM},{_NUM}"
        line += (rf"(?:geo{_BLANK}+{_NUM}{_BLANK}*;{_BLANK}*{pair}"
                 rf"(?:{_BLANK}+{pair}){{{pairs - 1}}}{_BLANK}*;)?")
    lines = max(1, BLOCK_NUMBERS // (1 + 2 * pairs))
    return re.compile(rf"(?:{line}{_LINE_END}){{1,{lines}}}")


def _raise_first_error(text, invalid=None):
    """The line-by-line reader, run only once a faster check has failed.

    Raises the ParseError of the first line that breaks the grammar, or,
    when every line parses, ``invalid = (entry, message)`` from the batched
    check on the line of that geo entry."""
    rank, entry = None, 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not (m := _GEO.fullmatch(line)):
            if m := re.fullmatch(r"rank\s+(\d+)\s*;", line):
                if rank is not None:
                    raise ParseError("duplicate 'rank' header", lineno)
                rank = int(m.group(1))
                if rank < 1:
                    raise ParseError("rank must be positive", lineno)
                continue
            if m := re.fullmatch(rf"geo\s+{_NUM}\s*;(.*);", line):
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


def parse_spectrum(text):
    """Parse the spectrum file format.

    ``rank r;`` then one ``geo <length> ; <re,im re,im ...> ;`` line per
    prime geodesic: the holonomy row major as r*r pairs ``re,im`` separated
    by whitespace; ``#`` starts a comment.  Lengths and unitarity are checked
    after the last line; the error names the line of the first entry that
    fails.  Blocks of lines that all parse are converted with one float()
    pass each; any failure is reported by the line reader."""
    pos = 0
    while pos < len(text) and (m := _block(0).match(text, pos)):
        pos = m.end()
    if not (header := _RANK.match(text, pos)) or (rank := int(header[1])) < 1:
        _raise_first_error(text)
    # a pair takes at least three characters, so no geo line can hold more
    # pairs than the text has characters: such a rank is never compiled
    block = _block(rank * rank if rank * rank <= len(text) else 0)
    nums, pos = array("d"), header.end()
    while pos < len(text):
        if not (m := block.match(text, pos)):
            _raise_first_error(text)
        lines = m[0]
        if "#" in lines:
            lines = _COMMENT.sub("", lines)
        nums.extend(map(float, lines.replace("geo", " ").replace(";", " ").replace(",", " ").split()))
        pos = m.end()
    if not nums:
        return LengthSpectrum(rank, ())
    # one row per entry: the length, then the holonomy as re,im pairs
    table = np.frombuffer(nums).reshape(-1, 1 + 2 * rank * rank)
    lengths, holonomies = table[:, 0], np.ascontiguousarray(table[:, 1:]).view(complex)
    if bad := _first_invalid(lengths, holonomies.reshape(-1, rank, rank)):
        _raise_first_error(text, bad)
    return LengthSpectrum.__new__(LengthSpectrum)._store(rank, lengths, holonomies)


def format_spectrum(spec):
    """Serialize a LengthSpectrum in the file format, with repr-exact floats."""
    lines = [f"rank {spec.rank};"]
    for length, h in zip(spec.lengths.tolist(), spec.holonomies.tolist()):
        nums = " ".join(f"{c.real!r},{c.imag!r}" for row in h for c in row)
        lines.append(f"geo {length!r} ; {nums} ;")
    return "\n".join(lines) + "\n"
