"""Twisted chain complexes of finite CW complexes and zeta-regularized torsion.

Cells carry incidence records (target cell, sign, deck-group word), a word
being a tuple of signed generator indices (``freegroup``).  A word may be
held as a prefix of a longer one, as the Fox terms of a 2-cell are prefixes
of its relator, so a complex built from a presentation, its validation and
its boundary matrices stay linear in the relator lengths.  The constructor
checks structure; that the boundary squares to zero is checked by
``validate_boundary``, which ``parse_complex`` runs on every file, and is a
theorem for ``knot_complex`` (Fox's fundamental formula).
Tensoring with a unitary representation of the deck group gives
finite-dimensional boundary matrices.  The combinatorial Laplacian in each
degree is B_p^* B_p + B_{p+1} B_{p+1}^*; its positive spectrum, weighted by
(-1)^p * p, defines the zeta-regularized torsion
exp( (1/2) * sum_p (-1)^p p sum_{lambda>0} log lambda ).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .freegroup import inverse, reduce
from .presentations import ParseError, _TokenStream, stray_letter

# eigenvalues below 1e-8 * (1 + spectral max) count as kernel
ZERO_EIG_REL_TOL = 1e-8

# cells a complex file may declare in one degree; checked at the count, so a
# huge count is a ParseError rather than a loop building empty cell tables.
# Laplacians are dense, of side cells x rank: torsion_report rejects a degree
# whose side exceeds the cap, where one holds 4096^2 complex entries (268 MB).
# twisted.boundary2 holds the Fox Jacobian's coefficient tensor to that budget.
MAX_CELLS = 4096


class _IncidenceFields(NamedTuple):
    target: int
    sign: int
    base: tuple
    length: int


class Incidence(_IncidenceFields):
    """``sign`` times the deck-group word ``word`` on cell ``target`` of the
    degree below: an immutable named tuple ``(target, sign, base, length)``.

    ``Incidence(target, sign, word)`` holds the word itself.  With a length
    the word is the prefix of that many letters of ``base``: the Fox terms
    of a 2-cell all share their relator this way instead of each holding a
    copy.  ``word`` builds the prefix only when read.
    """

    __slots__ = ()

    def __new__(cls, target, sign, base, length=None):
        return tuple.__new__(cls, (target, sign, base, len(base) if length is None else length))

    @property
    def word(self):
        return self.base[: self.length]


@dataclass(frozen=True)
class TwistedCWComplex:
    """A finite CW complex with group-word-labeled incidence data.

    ``incidences[p][i]`` lists the records of the boundary of the i-th
    p-cell, for p >= 1.  ``generator_names`` name the deck-group
    generators x_1, x_2, ...  ``relations`` (optional) are deck-group
    relators, read by ``validate_boundary``.  Construction checks structure
    only: cell counts, target range, signs, prefix lengths and letters.
    """

    cells_per_degree: tuple
    incidences: tuple  # indexed by degree p >= 1: tuple (per cell) of Incidence tuples
    generator_names: tuple
    relations: tuple = field(default=())

    def __post_init__(self):
        dims = self.cells_per_degree
        if not dims or any(c < 0 for c in dims):
            raise ValueError("cell counts must be nonnegative, degree 0 present")
        if len(self.incidences) != max(len(dims) - 1, 0):
            raise ValueError("need one incidence table per degree >= 1")
        n, checked = len(self.generator_names), set()
        for p, table in enumerate(self.incidences, start=1):
            if len(table) != dims[p]:
                raise ValueError(f"degree {p}: expected {dims[p]} cells, got {len(table)}")
            for recs in table:
                for target, sign, base, length in recs:
                    if not (0 <= target < dims[p - 1]):
                        raise ValueError(f"degree {p}: target {target} out of range")
                    if sign not in (1, -1):
                        raise ValueError("incidence signs must be +1 or -1")
                    if not (0 <= length <= len(base)):
                        raise ValueError(
                            f"degree {p}: prefix length {length} outside 0..{len(base)}"
                        )
                    if id(base) not in checked and stray_letter(base, n) is not None:
                        raise ValueError(
                            f"degree {p}: {base} uses a generator beyond the declared {n}")
                    checked.add(id(base))

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
        bases = tuple(b for r in self.relations for b in (r, inverse(r)))
        tree = _CayleyTree()
        step = tree.step
        for p in range(2, self.top_degree + 1):
            lower = [
                [(target, sign, base[:length]) for target, sign, base, length in cell]
                for cell in self.incidences[p - 2]
            ]
            for i, recs in enumerate(self.incidences[p - 1]):
                # (target, node) -> integer coefficient of the composite boundary
                residual = {}
                paths = {}  # id(base) -> the node of each prefix of base
                for target, sign, base, length in recs:
                    if (nodes := paths.get(id(base))) is None:
                        nodes = paths[id(base)] = tree.prefixes(base)
                    for low_target, low_sign, letters in lower[target]:
                        node = nodes[length]
                        for letter in letters:
                            node = step(node, letter)
                        key = low_target, node
                        residual[key] = residual.get(key, 0) + sign * low_sign
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
        self.last = [0]  # the letter that leads to each node, none (0) to the root
        self.children = {}  # (node, letter) -> node

    def step(self, node, letter):
        if self.last[node] == -letter:
            return self.parent[node]
        child = self.children.get((node, letter))
        if child is None:
            child = self.children[node, letter] = len(self.parent)
            self.parent.append(node)
            self.last.append(letter)
        return child

    def prefixes(self, letters):
        """The nodes of the prefixes of a word, from one walk along it."""
        nodes, node, step = [0], 0, self.step
        for letter in letters:
            nodes.append(node := step(node, letter))
        return nodes

    def word(self, node):
        letters = []
        while node:
            letters.append(self.last[node])
            node = self.parent[node]
        return tuple(reversed(letters))


def _delete_relators(w, bases):
    """Normalize a word by deleting relator occurrences until stable.

    ``bases`` holds each relator and its inverse; their
    cyclic rotations are the patterns, tried base by base and rotation by
    rotation.  Each step deletes the leftmost occurrence of the first
    pattern that occurs and freely reduces.  Rotations are formed as they
    are tried, and none for a base longer than the word, so deleting the
    first relator from a word equal to it forms one rotation, not one per
    letter.
    """
    while (shorter := _delete_first(w, bases)) is not None:
        w = shorter
    return w


def _delete_first(ls, bases):
    for base in bases:
        m = len(base)
        for k in range(m if m <= len(ls) else 0):
            pat = base[k:] + base[:k]
            for start in range(len(ls) - m + 1):
                if ls[start : start + m] == pat:
                    return reduce(ls[:start] + ls[start + m :])
    return None


def twisted_boundary(cx, rep, p):
    """Boundary matrix of degree p under rep, shape (c_{p-1} r, c_p r).

    Chains form a right module over the deck-group ring (row-vector
    convention), so the operator on column vectors carries rho(word)
    transposed in each block; composites then multiply in word order and
    the chain condition holds for non-abelian representations too.

    The incidences sharing a base word take rho(word) from one
    ``rep.prefix_products`` walk (a Fox 2-cell's words are prefixes of its
    relator, so a relator is walked once).  One ``np.add.at`` on the flat
    matrix adds the blocks, sign times transposed product, unbuffered and in
    incidence order: bitwise the matrix of a matmul walk per incidence.
    """
    if not (1 <= p <= cx.top_degree):
        raise ValueError(f"degree {p} out of range for this complex")
    r = rep.rank
    rows = cx.cells_per_degree[p - 1] * r
    cols = cx.cells_per_degree[p] * r
    out = np.zeros((rows, cols), dtype=complex)
    table = cx.incidences[p - 1]
    recs = [rec for cell in table for rec in cell]
    if not recs:
        return out
    targets, signs, bases, lengths = zip(*recs)
    lengths = np.array(lengths, dtype=int)
    # the records by base word (each keyed by its first record), then by
    # prefix length: one walk along each base
    first_of = {}
    group = np.array([first_of.setdefault(id(base), k) for k, base in enumerate(bases)])
    order = np.lexsort((lengths, group))
    ends = [*(np.flatnonzero(np.diff(group[order])) + 1).tolist(), len(order)]
    images = np.empty((len(recs), r, r), dtype=complex)
    for start, end in zip([0, *ends], ends):
        ks = order[start:end]
        images[ks] = rep.prefix_products(bases[ks[0]], lengths[ks])
    # block k adds sign_k * image_k[b, a] to entry (target_k r + a, cell_k r + b)
    cells = np.repeat(np.arange(len(table)), [len(cell) for cell in table])
    first = (np.array(targets, dtype=int) * cols + cells)[:, None, None] * r
    index = first + np.add.outer(np.arange(r) * cols, np.arange(r))
    signs = np.array(signs, dtype=int)[:, None, None]
    np.add.at(out.reshape(-1), index.ravel(), (signs * images.transpose(0, 2, 1)).ravel())
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
    if (side := max(cx.cells_per_degree) * rep.rank) > MAX_CELLS:
        raise ValueError(f"Laplacian side {side} (cells x rank) exceeds MAX_CELLS = {MAX_CELLS}")
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
            raise ValueError(f"eigensolver failed in degree {p}: {exc}") from exc
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
    length, read from ``pres.fox_terms``, so no prefix word is built.

    The boundary squares to zero by Fox's fundamental formula
    sum_i (d r / d x_i)(x_i - 1) = r - 1, which vanishes modulo the
    relators (Fox, "Free differential calculus I", Ann. of Math. 57, 1953);
    so ``validate_boundary`` is not run here, and
    ``tests/test_cwcomplex.py::TestFoxFormula`` runs it on torus and
    two-bridge knots.
    """
    if not pres.wirtinger:
        raise ValueError("knot_complex requires a Wirtinger presentation")
    n = pres.n_generators
    one_cells = tuple((Incidence(0, 1, (i,)), Incidence(0, -1, ())) for i in range(1, n + 1))
    two_cells = []
    for rel, t in zip(pres.relators, pres.fox_terms):
        by_generator = np.argsort(t.generator, kind="stable")
        columns = (t.generator[by_generator] - 1, t.sign[by_generator], t.length[by_generator])
        target, sign, length = (c.tolist() for c in columns)
        two_cells.append(tuple(map(Incidence._make, zip(target, sign, repeat(rel), length))))
    tables = (one_cells, tuple(two_cells)) if two_cells else (one_cells,)
    return TwistedCWComplex(
        cells_per_degree=(1, *map(len, tables)),
        incidences=tables,
        relations=tuple(pres.relators),
        generator_names=pres.generator_names,
    )


def parse_complex(text):
    """Parse the complex file format.

    Tokens, comments, the ``gens`` header and words follow the rules of the
    ``presentations`` module.  Grammar::

        gens name+ ;
        ( "rel" word ";" )*                # optional deck-group relators
        cells p count ;                    # one per degree, contiguous from 0
        bd p cell_index -> (sign, word, target_index)* ;

    Signs are ``+`` or ``-``.  A count must lie in 0..MAX_CELLS; a ``bd``
    degree in 1..top, its cell index and its target indices among the cells
    of their degree.  Anything else is a ParseError with its position, as is
    a cell whose composite boundary ``validate_boundary`` finds nonzero: at
    the cell's first ``bd`` statement.
    """
    stream = _TokenStream(text)
    names, letters = stream.generators()

    relations = []
    cells = {}
    # (p, i, token of 'bd', [(Incidence, token of its target)])
    bd_statements = []
    while stream.peek() is not None:
        tok = stream.next()
        if tok == "rel":
            relations.append(stream.word(letters))
            stream.expect(";")
        elif tok == "cells":
            p = stream.integer("degree")
            count = stream.integer("cell count")
            if p < 0:
                raise stream.error(f"cell degree must be >= 0, got {p}", stream.pos - 2)
            if p in cells:
                raise stream.error(f"duplicate 'cells {p}'", stream.pos - 2)
            if not 0 <= count <= MAX_CELLS:
                raise stream.error(f"cell count must lie in 0..{MAX_CELLS}, got {count}")
            cells[p] = count
            stream.expect(";")
        elif tok == "bd":
            at = stream.pos - 1
            p = stream.integer("degree")
            i = stream.integer("cell index")
            stream.expect("-")
            stream.expect(">")
            recs = []
            while stream.peek() == "(":
                stream.next()
                sign = stream.next(expect="a sign")
                if sign not in ("+", "-"):
                    raise stream.error(f"expected '+' or '-', got {sign!r}")
                stream.expect(",")
                word = stream.word(letters, stop=",")
                stream.expect(",")
                target = stream.integer("target index")
                recs.append((Incidence(target, 1 if sign == "+" else -1, word), stream.pos - 1))
                stream.expect(")")
            stream.expect(";")
            bd_statements.append((p, i, at, recs))
        else:
            raise stream.error(f"expected 'rel', 'cells' or 'bd', got {tok!r}")

    if not cells:
        raise ParseError("no 'cells' statements")
    top = max(cells)
    dims = []
    for p in range(top + 1):
        if p not in cells:
            raise ParseError(f"missing 'cells {p}' (degrees must be contiguous from 0)")
        dims.append(cells[p])
    bd = {}
    first_bd = {}  # (p, i) -> the token of the cell's first 'bd'
    for p, i, at, recs in bd_statements:
        if not 1 <= p <= top:
            raise stream.error(f"'bd' degree {p} is outside 1..{top}", at)
        if not 0 <= i < dims[p]:
            raise stream.error(f"'bd {p}' cell index {i} is outside 0..{dims[p] - 1}", at)
        first_bd.setdefault((p, i), at)
        for rec, target_at in recs:
            if not 0 <= rec.target < dims[p - 1]:
                raise stream.error(
                    f"target index {rec.target} is outside 0..{dims[p - 1] - 1}", target_at
                )
            bd.setdefault((p, i), []).append(rec)
    incidences = [
        tuple(tuple(bd.get((p, i), ())) for i in range(dims[p])) for p in range(1, top + 1)
    ]
    cx = TwistedCWComplex(
        cells_per_degree=tuple(dims),
        incidences=tuple(incidences),
        relations=tuple(relations),
        generator_names=names,
    )
    try:
        cx.validate_boundary()
    except ValueError as exc:
        # the message ends with the cell, "<p>-cell <i>"
        cell = tuple(map(int, re.search(r"(\d+)-cell (\d+)$", str(exc)).groups()))
        raise stream.error(str(exc), first_bd[cell]) from None
    return cx

