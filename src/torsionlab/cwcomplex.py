"""Twisted chain complexes of finite CW complexes and zeta-regularized torsion.

Cells carry incidence records (target cell, sign, deck-group word).  A word
may be held as a prefix of a longer one, as the Fox terms of a 2-cell are
prefixes of its relator, so a complex built from a presentation, its
validation and its boundary matrices stay linear in the relator lengths.
Tensoring with a unitary representation of the deck group gives
finite-dimensional boundary matrices.  The combinatorial Laplacian in each
degree is B_p^* B_p + B_{p+1} B_{p+1}^*; its positive spectrum, weighted by
(-1)^p * p, defines the zeta-regularized torsion
exp( (1/2) * sum_p (-1)^p p sum_{lambda>0} log lambda ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .freegroup import Word
from .presentations import ParseError, parse_word, _TokenStream, _tokenize

# eigenvalues below 1e-8 * (1 + spectral max) count as kernel
ZERO_EIG_REL_TOL = 1e-8

# cells a complex file may declare in one degree; checked at the count, so a
# huge count is a ParseError rather than a loop building empty cell tables.
# Boundary matrices and Laplacians are dense: at the cap one of them holds
# 4096^2 complex entries (268 MB) at rank 1.
MAX_CELLS = 4096


class EigensolverError(RuntimeError):
    """The dense Hermitian eigensolver failed to converge."""


@dataclass(frozen=True)
class Incidence:
    """``sign`` times the deck-group word ``word`` on cell ``target`` of the
    degree below.

    ``Incidence(target, sign, word)`` holds the word itself.  With a length
    the word is the prefix of that many letters of ``base``: the Fox terms
    of a 2-cell all share their relator this way instead of each holding a
    copy.  ``word`` builds the prefix only when read.
    """

    target: int
    sign: int
    base: Word
    length: int | None = None  # None: all of base

    def __post_init__(self):
        if self.length is None:
            object.__setattr__(self, "length", len(self.base))

    @property
    def word(self):
        if self.length == len(self.base):
            return self.base
        return Word._of_reduced(self.base.letters[: self.length])


@dataclass(frozen=True)
class TwistedCWComplex:
    """A finite CW complex with group-word-labeled incidence data.

    ``incidences[p][i]`` lists the records of the boundary of the i-th
    p-cell, for p >= 1.  ``relations`` (optional) are deck-group relators
    used when validating the untwisted boundary condition.
    """

    cells_per_degree: tuple
    incidences: tuple  # indexed by degree p >= 1: tuple (per cell) of Incidence tuples
    n_generators: int
    relations: tuple = field(default=())
    generator_names: tuple = field(default=())

    def names(self):
        if self.generator_names:
            return self.generator_names
        return tuple(f"x{k + 1}" for k in range(self.n_generators))

    def __post_init__(self):
        dims = self.cells_per_degree
        if not dims or any(c < 0 for c in dims):
            raise ValueError("cell counts must be nonnegative, degree 0 present")
        if len(self.incidences) != max(len(dims) - 1, 0):
            raise ValueError("need one incidence table per degree >= 1")
        for p, table in enumerate(self.incidences, start=1):
            if len(table) != dims[p]:
                raise ValueError(f"degree {p}: expected {dims[p]} cells, got {len(table)}")
            for recs in table:
                for rec in recs:
                    if not (0 <= rec.target < dims[p - 1]):
                        raise ValueError(f"degree {p}: target {rec.target} out of range")
                    if rec.sign not in (1, -1):
                        raise ValueError("incidence signs must be +1 or -1")
                    if not (0 <= rec.length <= len(rec.base)):
                        raise ValueError(
                            f"degree {p}: prefix length {rec.length} outside 0..{len(rec.base)}"
                        )
        self.validate_boundary()

    @property
    def top_degree(self):
        return len(self.cells_per_degree) - 1

    def validate_boundary(self):
        """Check that the composite boundary vanishes over the deck-group ring.

        Words are compared after free reduction; when relators are declared,
        occurrences of relators (any cyclic rotation, either orientation) are
        deleted iteratively first.  This is a sound but incomplete word
        problem check; it covers complexes built from group presentations.

        The composite is keyed by reduced words interned as integer nodes of
        the free group's Cayley tree (``_CayleyTree``): the words of a cell's
        incidences come from one walk along each base word, and each product
        with a lower incidence walks that incidence's letters on from there.
        Only keys with a nonzero coefficient are turned back into words for
        relator deletion, so a Fox 2-cell costs time linear in its relator.
        """
        bases = tuple(ls for r in self.relations for ls in (r.letters, r.inverse().letters))
        tree = _CayleyTree()
        for p in range(2, self.top_degree + 1):
            lower = [
                [(rec.target, rec.sign, rec.word.letters) for rec in cell]
                for cell in self.incidences[p - 2]
            ]
            for i, recs in enumerate(self.incidences[p - 1]):
                # (target, node) -> integer coefficient of the composite boundary
                residual = {}
                paths = {}  # id(base) -> the node of each prefix of base
                for rec in recs:
                    if id(rec.base) not in paths:
                        paths[id(rec.base)] = tree.prefixes(rec.base.letters)
                    node = paths[id(rec.base)][rec.length]
                    for target, sign, letters in lower[rec.target]:
                        key = (target, tree.walk(node, letters))
                        residual[key] = residual.get(key, 0) + rec.sign * sign
                collapsed = {}
                for (target, node), c in residual.items():
                    if c:
                        key = (target, _delete_relators(tree.word(node), bases))
                        collapsed[key] = collapsed.get(key, 0) + c
                if any(collapsed.values()):
                    raise ValueError(
                        f"untwisted boundary composition is nonzero on {p}-cell {i}"
                    )


class _CayleyTree:
    """Reduced words of a free group interned as integer nodes.

    Node 0 is the empty word.  A node times a letter is its parent when the
    letter inverts the node's last letter, and otherwise its child along
    that letter, made on first use; so equal reduced words get equal nodes.
    """

    def __init__(self):
        self.parent = [0]
        self.last = [None]  # the letter that leads to each node
        self.children = {}  # (node, letter) -> node

    def step(self, node, letter):
        i, s = letter
        if self.last[node] == (i, -s):
            return self.parent[node]
        child = self.children.get((node, letter))
        if child is None:
            child = self.children[node, letter] = len(self.parent)
            self.parent.append(node)
            self.last.append(letter)
        return child

    def walk(self, node, letters):
        for letter in letters:
            node = self.step(node, letter)
        return node

    def prefixes(self, letters):
        """The nodes of the prefixes of a word, from one walk along it."""
        nodes = [0]
        for letter in letters:
            nodes.append(self.step(nodes[-1], letter))
        return nodes

    def word(self, node):
        letters = []
        while node:
            letters.append(self.last[node])
            node = self.parent[node]
        return Word._of_reduced(tuple(reversed(letters)))


def _delete_relators(w, bases):
    """Normalize a word by deleting relator occurrences until stable.

    ``bases`` holds the letters of each relator and of its inverse; their
    cyclic rotations are the patterns, tried base by base and rotation by
    rotation.  Each step deletes the leftmost occurrence of the first
    pattern that occurs and freely reduces.  Rotations are formed as they
    are tried, and none for a base longer than the word, so deleting the
    first relator from a word equal to it forms one rotation, not one per
    letter.
    """
    while (shorter := _delete_first(w.letters, bases)) is not None:
        w = shorter
    return w


def _delete_first(ls, bases):
    for base in bases:
        m = len(base)
        for k in range(m if m <= len(ls) else 0):
            pat = base[k:] + base[:k]
            for start in range(len(ls) - m + 1):
                if ls[start : start + m] == pat:
                    return Word(ls[:start] + ls[start + m :])
    return None


def twisted_boundary(cx, rep, p):
    """Boundary matrix of degree p under rep, shape (c_{p-1} r, c_p r).

    Chains form a right module over the deck-group ring (row-vector
    convention), so the operator on column vectors carries rho(word)
    transposed in each block; composites then multiply in word order and
    the chain condition holds for non-abelian representations too.

    rho(word) is computed base word by base word: the incidences sharing a
    base are taken in order of prefix length, and each extends the running
    product of the one before it (every word of a Fox 2-cell is a prefix of
    its relator, so a relator is walked once).  Each product runs the
    matmuls of ``rep.of_word`` in the same order, and the blocks are added
    in incidence order, so the matrix is bitwise equal to one built from
    ``rep.of_word`` per incidence.
    """
    if not (1 <= p <= cx.top_degree):
        raise ValueError(f"degree {p} out of range for this complex")
    r = rep.rank
    rows = cx.cells_per_degree[p - 1] * r
    cols = cx.cells_per_degree[p] * r
    out = np.zeros((rows, cols), dtype=complex)
    recs = [(i, rec) for i, cell in enumerate(cx.incidences[p - 1]) for rec in cell]
    by_base = {}  # id(base) -> indices into recs
    for k, (_, rec) in enumerate(recs):
        by_base.setdefault(id(rec.base), []).append(k)
    images = [None] * len(recs)
    for ks in by_base.values():
        ks.sort(key=lambda k: recs[k][1].length)
        letters = recs[ks[0]][1].base.letters
        done, mat = 0, np.eye(r, dtype=complex)
        for k in ks:
            length = recs[k][1].length
            mat = rep.extend(mat, letters[done:length])
            done = length
            images[k] = mat
    for (i, rec), image in zip(recs, images):
        out[rec.target * r : (rec.target + 1) * r, i * r : (i + 1) * r] += rec.sign * image.T
    return out


def _laplacian(bds, p, dim):
    """B_p^* B_p + B_{p+1} B_{p+1}^*, a dim x dim matrix, from bds = [None, B_1, ..., B_top]."""
    lap = np.zeros((dim, dim), dtype=complex)
    if p >= 1:
        B = bds[p]
        lap += B.conj().T @ B
    if p + 1 < len(bds):
        B = bds[p + 1]
        lap += B @ B.conj().T
    return lap


@dataclass(frozen=True)
class TorsionReport:
    betti: tuple
    log_torsion: float
    torsion: float
    spectra: tuple  # per degree, sorted eigenvalue tuples


def torsion_report(cx, rep):
    """Twisted Betti numbers and the zeta-regularized torsion of a complex."""
    betti = []
    spectra = []
    log_torsion = 0.0
    # each B_p is built once and serves the Laplacians of degrees p - 1 and p
    bds = [None] + [twisted_boundary(cx, rep, p) for p in range(1, cx.top_degree + 1)]
    for p in range(cx.top_degree + 1):
        lap = _laplacian(bds, p, cx.cells_per_degree[p] * rep.rank)
        if lap.shape[0] == 0:
            betti.append(0)
            spectra.append(())
            continue
        try:
            eigs = np.linalg.eigvalsh(lap)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver failed in degree {p}: {exc}") from exc
        eigs = np.sort(eigs.real)
        cutoff = ZERO_EIG_REL_TOL * (1.0 + float(eigs[-1]))
        kernel = int(np.sum(eigs < cutoff))
        positive = eigs[eigs >= cutoff]
        betti.append(kernel)
        spectra.append(tuple(float(x) for x in eigs))
        # closed-form zeta'(0): d/ds lambda^-s at 0 is -log(lambda)
        log_torsion += 0.5 * ((-1) ** p) * p * float(np.sum(np.log(positive)))
    return TorsionReport(
        betti=tuple(betti),
        log_torsion=log_torsion,
        torsion=float(np.exp(log_torsion)),
        spectra=tuple(spectra),
    )


def knot_complex(pres):
    """The 2-complex of a Wirtinger presentation: one 0-cell, n 1-cells,
    n-1 2-cells attached along the relators via Fox derivatives.

    The boundary of a 2-cell lists, generator by generator, one incidence
    on 1-cell i per term of the relator's Fox derivative by x_i, with the
    term's coefficient (+1 or -1) as its sign, in letter order.  The term
    of a letter x_i is the prefix of the relator before it, of x_i^-1 the
    prefix through it; each incidence holds the relator and that prefix
    length, so a relator is walked once and no prefix word is built.
    """
    if not pres.wirtinger:
        raise ValueError("knot_complex requires a Wirtinger presentation")
    n = pres.n_generators
    one_cells = []
    for i in range(1, n + 1):
        one_cells.append(
            (
                Incidence(0, 1, Word.generator(i)),
                Incidence(0, -1, Word()),
            )
        )
    two_cells = []
    for rel in pres.relators:
        by_generator = [[] for _ in range(n)]
        for k, (j, s) in enumerate(rel.letters):
            by_generator[j - 1].append(Incidence(j - 1, s, rel, k if s > 0 else k + 1))
        two_cells.append(tuple(rec for recs in by_generator for rec in recs))
    if pres.relators:
        return TwistedCWComplex(
            cells_per_degree=(1, n, len(pres.relators)),
            incidences=(tuple(one_cells), tuple(two_cells)),
            n_generators=n,
            relations=tuple(pres.relators),
            generator_names=pres.generator_names,
        )
    return TwistedCWComplex(
        cells_per_degree=(1, n),
        incidences=(tuple(one_cells),),
        n_generators=n,
        generator_names=pres.generator_names,
    )


def parse_complex(text):
    """Parse the complex file format.

    Grammar (``#`` comments, statements end with ``;``)::

        gens name+ ;
        rels? ( "rel" word ";" )*          # optional deck-group relators
        cells p count ;                    # one per degree, contiguous from 0
        bd p cell_index -> (sign, word, target_index)* ;

    Signs are ``+`` or ``-``; words use the presentation word syntax with
    ``1`` for the identity.  A count must lie in 0..MAX_CELLS; a ``bd``
    degree in 1..top, its cell index and its target indices among the cells
    of their degree.  Anything else is a ParseError with its position.
    """
    stream = _TokenStream(_tokenize(text))
    tok, line, col = stream.next(expect="'gens'")
    if tok != "gens":
        raise ParseError(f"complex file must start with 'gens', got {tok!r}", line, col)
    names = []
    while True:
        tok, line, col = stream.next(expect="a generator name or ';'")
        if tok == ";":
            break
        names.append(tok)
    name_to_index = {nm: k + 1 for k, nm in enumerate(names)}

    relations = []
    cells = {}
    bd_statements = []  # (p, i, line, col, [(Incidence, target line, target col)])
    while stream.peek() is not None:
        tok, line, col = stream.next()
        if tok == "rel":
            relations.append(parse_word(stream, name_to_index))
            stream.expect(";")
        elif tok == "cells":
            ptok, pl, pc = stream.next(expect="a degree")
            ctok, cl, cc = stream.next(expect="a cell count")
            try:
                p, count = int(ptok), int(ctok)
            except ValueError:
                raise ParseError("cells takes two integers", pl, pc) from None
            if p < 0:
                raise ParseError(f"cell degree must be >= 0, got {p}", pl, pc)
            if p in cells:
                raise ParseError(f"duplicate 'cells {p}'", pl, pc)
            if not 0 <= count <= MAX_CELLS:
                raise ParseError(f"cell count must lie in 0..{MAX_CELLS}, got {count}", cl, cc)
            cells[p] = count
            stream.expect(";")
        elif tok == "bd":
            ptok, pl, pc = stream.next(expect="a degree")
            itok, il, ic = stream.next(expect="a cell index")
            try:
                p, i = int(ptok), int(itok)
            except ValueError:
                raise ParseError("bd takes two integers", pl, pc) from None
            stream.expect("-")
            stream.expect(">")
            recs = []
            while stream.peek() and stream.peek()[0] == "(":
                stream.next()
                stok, sl, sc = stream.next(expect="a sign")
                if stok not in ("+", "-"):
                    raise ParseError(f"expected '+' or '-', got {stok!r}", sl, sc)
                stream.expect(",")
                word = _parse_word_until(stream, name_to_index, ",")
                ttok, tl, tc = stream.next(expect="a target index")
                try:
                    target = int(ttok)
                except ValueError:
                    raise ParseError(f"bad target index {ttok!r}", tl, tc) from None
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
    return TwistedCWComplex(
        cells_per_degree=tuple(dims),
        incidences=tuple(incidences),
        n_generators=len(names),
        relations=tuple(relations),
        generator_names=tuple(names),
    )


def _parse_word_until(stream, name_to_index, stop):
    """Parse a word whose end is marked by the given token (consumed)."""
    toks = []
    while True:
        tok = stream.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input inside a word, expected {stop!r}")
        if tok[0] == stop:
            stream.next()
            break
        toks.append(stream.next())
    sub = _TokenStream(toks + [(";", 0, 0)])
    word = parse_word(sub, name_to_index)
    return word
