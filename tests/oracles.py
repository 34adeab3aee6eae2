"""Reference implementations the tests compare the package against.

None of this is on a command-line path: the ``.pres`` and ``.cw`` readers on
a table of every token's line and column, Laurent polynomial arithmetic and
matrices packed from entries, group-ring arithmetic on {Word: coefficient}
dicts, rho of a word one matmul per letter, the first and second boundary
matrices of a presentation by a letter-by-letter walk, the cuspidality rule
on both peripheral words, pivot candidates, the circle complex, the knot
complex's 2-cells from Fox derivatives and the combinatorial Laplacian of a
degree.
"""

import functools
import re

import numpy as np

from torsionlab.cwcomplex import (
    MAX_CELLS,
    Incidence,
    TwistedCWComplex,
    _laplacian,
    twisted_boundary,
)
from torsionlab.freegroup import Word, fox_derivative
from torsionlab.laurent import TRIM_TOL, LaurentMatrix, LaurentPoly
from torsionlab.presentations import MAX_WORD_LETTERS, ParseError, Presentation
from torsionlab.twisted import CUSPIDAL_TOL, _generator_block, phi_apply

ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))


# -- the .pres and .cw readers on a positional token table ------------------------

class PositionalTokenStream:
    """The token stream as the readers first had it: one (token, line, col)
    record per token of the whole file, from a tokenization line by line of
    ``str.splitlines``, with the comment of each line cut off."""

    TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^|-?\d+|;|\S")
    NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

    def __init__(self, text):
        self.tokens = [
            (m.group(0), lineno, m.start() + 1)
            for lineno, line in enumerate(text.splitlines(), start=1)
            for m in self.TOKEN.finditer(line.split("#", 1)[0])
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
        tok, line, col = self.next(expect=f"an integer {what}")
        try:
            return int(tok), line, col
        except ValueError:
            raise ParseError(f"bad {what} {tok!r}", line, col) from None

    def generators(self):
        tok, line, col = self.next(expect="'gens'")
        if tok != "gens":
            raise ParseError(f"file must start with 'gens', got {tok!r}", line, col)
        names = []
        while True:
            tok, line, col = self.next(expect="a generator name or ';'")
            if tok == ";":
                break
            if not self.NAME.fullmatch(tok) or tok[0].isupper():
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
        tokens = self.tokens
        start = pos = self.pos
        out = []
        while pos < len(tokens) and tokens[pos][0] != stop:
            name, line, col = tokens[pos]
            pos += 1
            if name == "1":
                continue
            letter = letters.get(name)
            if letter is None:
                if self.NAME.fullmatch(name):
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


def parse_presentation_positional(text):
    """``parse_presentation`` on a ``PositionalTokenStream``."""
    stream = PositionalTokenStream(text)
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
    return Presentation(generator_names=names, relators=tuple(relators), wirtinger=wirtinger,
                        meridian=meridian, longitude=longitude)


def parse_complex_positional(text):
    """``parse_complex`` on a ``PositionalTokenStream``."""
    stream = PositionalTokenStream(text)
    names, letters = stream.generators()
    relations = []
    cells = {}
    bd_statements = []
    while stream.peek() is not None:
        tok, line, col = stream.next()
        if tok == "rel":
            relations.append(stream.word(letters))
            stream.expect(";")
        elif tok == "cells":
            p, pl, pc = stream.integer("degree")
            count, cl, cc = stream.integer("cell count")
            if p < 0:
                raise ParseError(f"cell degree must be >= 0, got {p}", pl, pc)
            if p in cells:
                raise ParseError(f"duplicate 'cells {p}'", pl, pc)
            if not 0 <= count <= MAX_CELLS:
                raise ParseError(f"cell count must lie in 0..{MAX_CELLS}, got {count}", cl, cc)
            cells[p] = count
            stream.expect(";")
        elif tok == "bd":
            p = stream.integer("degree")[0]
            i = stream.integer("cell index")[0]
            stream.expect("-")
            stream.expect(">")
            recs = []
            while stream.peek() and stream.peek()[0] == "(":
                stream.next()
                stok, sl, sc = stream.next(expect="a sign")
                if stok not in ("+", "-"):
                    raise ParseError(f"expected '+' or '-', got {stok!r}", sl, sc)
                stream.expect(",")
                word = stream.word(letters, stop=",")
                stream.expect(",")
                target, tl, tc = stream.integer("target index")
                stream.expect(")")
                recs.append((Incidence(target, 1 if stok == "+" else -1, word), tl, tc))
            stream.expect(";")
            bd_statements.append((p, i, line, col, recs))
        else:
            raise ParseError(f"expected 'rel', 'cells' or 'bd', got {tok!r}", line, col)
    if not cells:
        raise ParseError("no 'cells' statements")
    top = max(cells)
    dims = []
    for p in range(top + 1):
        if p not in cells:
            raise ParseError(f"missing 'cells {p}' (degrees must be contiguous from 0)")
        dims.append(cells[p])
    bd = {}
    for p, i, line, col, recs in bd_statements:
        if not 1 <= p <= top:
            raise ParseError(f"'bd' degree {p} is outside 1..{top}", line, col)
        if not 0 <= i < dims[p]:
            raise ParseError(f"'bd {p}' cell index {i} is outside 0..{dims[p] - 1}", line, col)
        for rec, tl, tc in recs:
            if not 0 <= rec.target < dims[p - 1]:
                raise ParseError(
                    f"target index {rec.target} is outside 0..{dims[p - 1] - 1}", tl, tc
                )
            bd.setdefault((p, i), []).append(rec)
    incidences = [
        tuple(tuple(bd.get((p, i), ())) for i in range(dims[p])) for p in range(1, top + 1)
    ]
    return TwistedCWComplex(cells_per_degree=tuple(dims), incidences=tuple(incidences),
                            relations=tuple(relations), generator_names=names)


# -- Laurent polynomials -----------------------------------------------------


def normalized(low, coeffs):
    """(low, coeffs) of LaurentPoly(low, coeffs) by its rule, one Python
    complex at a time: drop |c| <= TRIM_TOL * max|c|, then the zeros at both ends."""
    coeffs = [complex(c) for c in coeffs]
    top = max(map(abs, coeffs), default=0.0)
    if top > 0.0:
        coeffs = [c if abs(c) > TRIM_TOL * top else 0j for c in coeffs]
    i, j = 0, len(coeffs)
    while i < j and coeffs[i] == 0:
        i += 1
    while j > i and coeffs[j - 1] == 0:
        j -= 1
    return (low + i, tuple(coeffs[i:j])) if i < j else (0, ())


def add(p, q):
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    low = min(p.low, q.low)
    out = np.zeros(max(p.high, q.high) - low + 1, dtype=complex)
    out[p.low - low : p.high - low + 1] += p.coeffs
    out[q.low - low : q.high - low + 1] += q.coeffs
    return LaurentPoly(low, out)


def neg(p):
    return LaurentPoly(p.low, [-c for c in p.coeffs])


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if p.is_zero or q.is_zero:
        return ZERO
    return LaurentPoly(p.low + q.low, np.convolve(p.coeffs, q.coeffs))


def scale(p, c):
    return LaurentPoly(p.low, [c * x for x in p.coeffs])


def close_to(p, q, rtol=1e-9):
    """Coefficientwise comparison relative to the larger coefficient norm."""
    norm = max(p.max_abs_coeff(), q.max_abs_coeff(), 1e-300)
    return sub(p, q).max_abs_coeff() <= rtol * norm


# -- matrices of them ----------------------------------------------------------


def matrix(rows):
    """The LaurentMatrix with the given rows of LaurentPoly entries."""
    cols = len(rows[0]) if rows else 0
    lows = [min((e.low for e in row if not e.is_zero), default=0) for row in rows]
    width = max((e.high - lw + 1 for lw, row in zip(lows, rows) for e in row if not e.is_zero),
                default=1)
    coef = np.zeros((len(rows), cols, width), dtype=complex)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if not e.is_zero:
                coef[i, j, e.low - lows[i] : e.high - lows[i] + 1] = e.coeffs
    return LaurentMatrix(lows, coef)


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return matrix([[functools.reduce(add, (mul(a[i, k], b[k, j]) for k in range(a.cols)), ZERO)
                    for j in range(b.cols)] for i in range(a.rows)])


def eval_at(m, z):
    """Entrywise numeric evaluation, as a complex numpy array."""
    out = [[m[i, j](z) for j in range(m.cols)] for i in range(m.rows)]
    return np.array(out, dtype=complex).reshape(m.rows, m.cols)


def max_abs_coeff(m):
    return float(np.abs(m.coef).max(initial=0.0))


# -- the group ring --------------------------------------------------------------


class GroupRingElement(dict):
    """A finite combination {Word: coefficient} of free-group words, zero terms dropped."""

    def __init__(self, terms=()):
        super().__init__((w, c) for w, c in dict(terms).items() if c != 0)

    @staticmethod
    def of_word(w, coeff=1):
        return GroupRingElement({w: coeff})

    @property
    def is_zero(self):
        return not self

    def __add__(self, other):
        out = dict(self)
        for w, c in other.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.items()})

    def __sub__(self, other):
        return self + -GroupRingElement(other)

    def __mul__(self, other):
        out = {}
        for u, a in self.items():
            for v, b in other.items():
                out[u * v] = out.get(u * v, 0) + a * b
        return GroupRingElement(out)


def fundamental_identity_residual(w, n_generators=None):
    """sum_i (dw/dx_i) (x_i - 1) - (w - 1): the zero element for every word."""
    if n_generators is None:
        n_generators = w.max_generator()
    one = GroupRingElement.of_word(Word())
    acc = one - GroupRingElement.of_word(w)
    for i in range(1, n_generators + 1):
        xi = GroupRingElement.of_word(Word.generator(i))
        acc = acc + GroupRingElement(fox_derivative(w, i)) * (xi - one)
    return acc


# -- the Fox route ---------------------------------------------------------------


def of_word_sequential(rep, letters):
    """rho of a word from the identity, one matmul per letter, left to right."""
    out = np.eye(rep.rank, dtype=complex)
    for i, s in letters:
        if i > len(rep.images):
            raise ValueError(f"word uses generator {i}, rep has {len(rep.images)}")
        out = out @ (rep.images[i - 1] if s > 0 else rep.inverses[i - 1])
    return out


def boundary2_sequential(pres, rep, skip_generator=None):
    """The coefficient tensor of ``boundary2``, one relator letter at a time:
    a running product extended by one matmul per letter, and each Fox term
    added to (or, for an inverse letter, subtracted from) its block on the
    spot, in word order."""
    r = rep.rank
    cols = [i for i in range(1, pres.n_generators + 1) if i != skip_generator]
    block = {i: c for c, i in enumerate(cols)}
    degs = [[0] + list(np.cumsum([s for _, s in rel.letters])) for rel in pres.relators]
    lows = [min(d) for d in degs]
    width = max((max(d) - low + 1 for d, low in zip(degs, lows)), default=1)
    coef = np.zeros((len(lows), r, len(cols), r, width), dtype=complex)
    for rel, deg, low, out in zip(pres.relators, degs, lows, coef):
        prefix = np.eye(r, dtype=complex)
        for k, (j, s) in enumerate(rel.letters):
            c = block.get(j)
            if s > 0:
                if c is not None:
                    out[:, c, :, deg[k] - low] += prefix
                prefix = prefix @ rep.images[j - 1]
            else:
                prefix = prefix @ rep.inverses[j - 1]
                if c is not None:
                    out[:, c, :, deg[k + 1] - low] -= prefix
    return coef.reshape(len(lows) * r, len(cols) * r, width)


def cuspidal_stacked(rep, pres):
    """The cuspidality rule on the stacked matrix alone: every singular value of
    [rho(meridian) - I; rho(longitude) - I] above CUSPIDAL_TOL, both words walked."""
    eye = np.eye(rep.rank)
    stacked = np.vstack([rep.of_word(pres.meridian) - eye, rep.of_word(pres.longitude) - eye])
    return int(np.sum(np.linalg.svd(stacked, compute_uv=False) > CUSPIDAL_TOL)) == rep.rank


def boundary1(pres, rep):
    """The nr x r block column with i-th block Phi(x_i - 1)."""
    blocks = [phi_apply({Word.generator(i): 1, Word(): -1}, rep)
              for i in range(1, pres.n_generators + 1)]
    return matrix([[blk[a, b] for b in range(rep.rank)] for blk in blocks for a in range(rep.rank)])


# where a candidate pivot determinant is tested for vanishing identically
PIVOT_TEST_POINTS = 2.0 * np.exp(2j * np.pi * (np.arange(8) + 0.37) / 8)


def pivot_candidates(pres, rep):
    """Generator indices whose Phi(x_i - 1) block determinant is above 1e-9
    in modulus at one of 8 fixed points on the circle |t| = 2."""
    dets = [_generator_block(rep, i).det() for i in range(1, pres.n_generators + 1)]
    return [i for i, det in enumerate(dets, start=1)
            if any(abs(det(z)) > 1e-9 for z in PIVOT_TEST_POINTS)]


# -- the CW route ----------------------------------------------------------------


def circle_complex():
    """One 0-cell and one 1-cell glued along (x1 - 1)."""
    return TwistedCWComplex(
        cells_per_degree=(1, 1),
        incidences=(((Incidence(0, 1, Word.generator(1)), Incidence(0, -1, Word())),),),
        generator_names=("a",),
    )


def fox_knot_incidences(pres):
    """The (target, sign, word) triples of each 2-cell of ``knot_complex(pres)``,
    one per term of ``fox_derivative(rel, i)``, generator by generator."""
    return [
        [(i - 1, c, w) for i in range(1, pres.n_generators + 1)
         for w, c in fox_derivative(rel, i).items()]
        for rel in pres.relators
    ]


def comb_laplacian(cx, rep, p):
    """The combinatorial Laplacian B_p^* B_p + B_{p+1} B_{p+1}^* in degree p."""
    dim = cx.cells_per_degree[p] * rep.rank if p <= cx.top_degree else 0
    bds = [None] + [twisted_boundary(cx, rep, q) for q in range(1, cx.top_degree + 1)]
    return _laplacian(bds, p, dim)
