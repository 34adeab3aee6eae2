"""Twisted chain complexes of finite CW complexes and zeta-regularized torsion.

A complex holds its deck-group words once, a word being a tuple of signed
generator indices (``freegroup``), and in each degree one integer table of
incidence records, a record being a sign times a prefix of one of those
words (``TwistedCWComplex``).  The Fox terms of a 2-cell are prefixes of
its relator, so a complex built from a presentation, its validation and
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

from dataclasses import dataclass, field
from itertools import groupby

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


@dataclass(frozen=True, eq=False)
class TwistedCWComplex:
    """A finite CW complex with group-word-labeled incidence data.

    ``bases`` holds its words.  ``incidences[p - 1]`` is the table of
    degree p >= 1: an integer array of shape (5, m) whose rows ``cell,
    target, sign, base, length`` hold one record per column, meaning
    ``sign`` times the prefix of ``length`` letters of ``bases[base]`` on
    cell ``target`` of the boundary of p-cell ``cell``.  Records are in
    cell order, and within a cell in the order they were given: the order
    in which ``twisted_boundary`` adds them.  ``generator_names`` name the
    deck-group generators x_1, x_2, ...  ``relations`` (optional) are
    deck-group relators, read by ``validate_boundary``.  Construction checks
    structure only: cell counts, cell order, cell and target ranges, signs,
    base indices, prefix lengths and letters; it makes each table
    read-only, so the checks keep holding.
    """

    cells_per_degree: tuple
    bases: tuple
    incidences: tuple
    generator_names: tuple
    relations: tuple = field(default=())

    def __post_init__(self):
        dims = self.cells_per_degree
        if not dims or any(c < 0 for c in dims):
            raise ValueError("cell counts must be nonnegative, degree 0 present")
        if len(self.incidences) != max(len(dims) - 1, 0):
            raise ValueError("need one incidence table per degree >= 1")
        n = len(self.generator_names)
        sizes = np.array([len(b) for b in self.bases], dtype=np.intp)
        for p, table in enumerate(self.incidences, start=1):
            table.flags.writeable = False
            cell, target, sign, base, length = table
            for what, values, end in (("cell", cell, dims[p]), ("target", target, dims[p - 1]),
                                      ("base index", base, len(self.bases))):
                if (bad := (values < 0) | (values >= end)).any():
                    raise ValueError(f"degree {p}: {what} {values[bad][0]} out of range")
            if (cell[1:] < cell[:-1]).any():
                raise ValueError(f"degree {p}: records not in cell order")
            if (np.abs(sign) != 1).any():
                raise ValueError("incidence signs must be +1 or -1")
            if (bad := (length < 0) | (length > sizes[base])).any():
                k = np.flatnonzero(bad)[0]
                raise ValueError(
                    f"degree {p}: prefix length {length[k]} outside 0..{sizes[base[k]]}")
            for b in np.flatnonzero(np.bincount(base, minlength=len(self.bases))).tolist():
                if stray_letter(self.bases[b], n) is not None:
                    raise ValueError(
                        f"degree {p}: {self.bases[b]} uses a generator beyond the declared {n}")

    @property
    def top_degree(self):
        return len(self.cells_per_degree) - 1

    def validate_boundary(self):
        """Check that the composite boundary vanishes over the deck-group ring.

        Words are compared after free reduction; when relators are declared,
        occurrences of relators (any cyclic rotation, either orientation) are
        deleted iteratively first.  This is a sound but incomplete word
        problem check; it covers complexes built from group presentations.
        A ValueError names the first cell, in degree and then cell order,
        where the composite is nonzero, and carries it as ``cell = (p, i)``.

        The composite is keyed by reduced words interned as integer nodes of
        the free group's Cayley tree (``_CayleyTree``): a cell's incidences
        come from one walk along each base word, and their products with the
        lower incidences on one base from one walk on along that base.  Only
        keys with a nonzero coefficient and at least as many letters as the
        shortest relator become words again for relator deletion, keyed
        again by the node of the result, so a Fox 2-cell, or a 3-cell on
        one, costs time and memory linear in the relator.
        """
        relators = tuple(b for r in self.relations for b in (r, inverse(r)))
        # a word shorter than every relator holds no rotation of one: its own normal form
        shortest = min(map(len, relators), default=float("inf"))
        tree = _CayleyTree()
        for p in range(2, self.top_degree + 1):
            # lower cell -> base index -> its records' (target, sign, length)
            lower = [{} for _ in range(self.cells_per_degree[p - 1])]
            for cell, target, sign, base, length in zip(*self.incidences[p - 2].tolist()):
                lower[cell].setdefault(base, []).append((target, sign, length))
            records = zip(*self.incidences[p - 1].tolist())
            for i, recs in groupby(records, key=lambda rec: rec[0]):
                # (target, node) -> integer coefficient of the composite boundary
                residual = {}
                paths = {}  # base index -> the node of each prefix of its word
                for _, target, sign, base, length in recs:
                    if (nodes := paths.get(base)) is None:
                        nodes = paths[base] = tree.prefixes(self.bases[base])
                    for low_base, low_recs in lower[target].items():
                        walk = tree.prefixes(self.bases[low_base], nodes[length])
                        for low_target, low_sign, low_length in low_recs:
                            key = low_target, walk[low_length]
                            residual[key] = residual.get(key, 0) + sign * low_sign
                collapsed = {}  # (target, node of the normalized word) -> coefficient
                for (target, node), c in residual.items():
                    if c:
                        if tree.depth[node] >= shortest:
                            node = tree.prefixes(_delete_relators(tree.word(node), relators))[-1]
                        collapsed[target, node] = collapsed.get((target, node), 0) + c
                if any(collapsed.values()):
                    err = ValueError(f"untwisted boundary composition is nonzero on {p}-cell {i}")
                    err.cell = p, i
                    raise err


class _CayleyTree:
    """Reduced words of a free group interned as integer nodes.

    Node 0 is the empty word.  A node times a letter is its parent when the
    letter inverts the node's last letter, and otherwise its child along
    that letter, made on first use; so equal reduced words get equal nodes.
    """

    def __init__(self):
        self.parent = [0]
        self.last = [0]  # the letter that leads to each node, none (0) to the root
        self.depth = [0]  # the length of each node's word
        self.children = {}  # (node, letter) -> node

    def step(self, node, letter):
        if self.last[node] == -letter:
            return self.parent[node]
        child = self.children.get((node, letter))
        if child is None:
            child = self.children[node, letter] = len(self.parent)
            self.parent.append(node)
            self.last.append(letter)
            self.depth.append(self.depth[node] + 1)
        return child

    def prefixes(self, letters, node=0):
        """The nodes of ``node`` times each prefix of a word, from one walk along it."""
        nodes, step = [node], self.step
        for letter in letters:
            nodes.append(node := step(node, letter))
        return nodes

    def word(self, node):
        letters = []
        while node:
            letters.append(self.last[node])
            node = self.parent[node]
        return tuple(reversed(letters))


def _delete_relators(w, relators):
    """Normalize a word by deleting relator occurrences until stable.

    ``relators`` holds each relator and its inverse; their cyclic rotations
    are the patterns, tried base by base and rotation by rotation.  Each
    step deletes the leftmost occurrence of the first pattern that occurs
    and freely reduces.  No rotation is formed: a step rolls a hash along
    the windows of the word as long as a base, looks each up among the
    hashes of the base's rotations, made once per base no longer than the
    word, and confirms a hit letter by letter.  So a step is linear in the
    word and the bases, and stops at the first window that is the base
    itself, as in a power of a relator.
    """
    mod, radix = (1 << 61) - 1, 1_000_003  # a polynomial hash modulo a prime
    tables = {}  # base index -> {hash of a rotation: its rotations k, ascending}

    def digest(letters):
        h = 0
        for x in letters:
            h = (h * radix + x) % mod
        return h

    while True:
        for b, base in enumerate(relators):
            m = len(base)
            if not 0 < m <= len(w):
                continue
            top = pow(radix, m - 1, mod)
            if (table := tables.get(b)) is None:
                table = tables[b] = {}
                h = digest(base)
                for k, x in enumerate(base):
                    table.setdefault(h, []).append(k)
                    h = ((h - x * top) * radix + x) % mod
            found = None  # (k, start): the first rotation that occurs, leftmost
            h = digest(w[:m])
            for start in range(len(w) - m + 1):
                if start:
                    h = ((h - w[start - 1] * top) * radix + w[start + m - 1]) % mod
                for k in table.get(h, ()):
                    if found is not None and k >= found[0]:
                        break
                    cut = start + m - k
                    if w[start:cut] == base[k:] and w[cut : start + m] == base[:k]:
                        found = k, start
                        break
                if found is not None and found[0] == 0:
                    break
            if found is not None:
                start = found[1]
                w = reduce(w[:start] + w[start + m :])
                break
        else:
            return w


def twisted_boundary(cx, rep, p):
    """Boundary matrix of degree p under rep, shape (c_{p-1} r, c_p r).

    Chains form a right module over the deck-group ring (row-vector
    convention), so the operator on column vectors carries rho(word)
    transposed in each block; composites then multiply in word order and
    the chain condition holds for non-abelian representations too.

    ``rep.prefix_images`` takes rho of every record's prefix from one walk
    along each base (a Fox 2-cell's words are prefixes of its relator, so a
    relator is walked once).  One ``np.add.at`` on the flat matrix adds the
    blocks, sign times transposed product, unbuffered and in record order:
    bitwise the matrix of a matmul walk per record.

    Memory: besides the output, at most 16 + 24 r^2 bytes a record: the
    signed images (16 r^2) and the walk's order (8 bytes), then the block
    offsets (8) and flat indices (8 r^2), plus one walk along a base.
    """
    if not (1 <= p <= cx.top_degree):
        raise ValueError(f"degree {p} out of range for this complex")
    r = rep.rank
    rows = cx.cells_per_degree[p - 1] * r
    cols = cx.cells_per_degree[p] * r
    out = np.zeros((rows, cols), dtype=complex)
    cell, target, sign, base, length = cx.incidences[p - 1]
    images = rep.prefix_images(cx.bases, base, length)
    np.multiply(sign[:, None, None], images, out=images)
    # record k adds sign_k * image_k[b, a] to entry (target_k r + a, cell_k r + b)
    first = (target.astype(np.intp) * cols + cell)[:, None, None] * r
    index = first + np.add.outer(np.arange(r), np.arange(r) * cols)
    np.add.at(out.reshape(-1), index.ravel(), images.ravel())
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

    The bases are the words x_1, ..., x_n and the relators.  The boundary
    of 1-cell i is x_i - 1: the prefixes of x_i of length 1 and 0.  The
    boundary of a 2-cell holds, in letter order, one record per letter x_i^s
    of its relator: its Fox term by x_i, on 1-cell i with sign s, the prefix
    before it if s = +1 and through it if s = -1.  The table is the rows
    ``relator, generator - 1, sign, relator + n, length`` of
    ``pres.fox_terms``, so no prefix word is built and no record moved.

    The boundary squares to zero by Fox's fundamental formula
    sum_i (d r / d x_i)(x_i - 1) = r - 1, which vanishes modulo the
    relators (Fox, "Free differential calculus I", Ann. of Math. 57, 1953);
    so ``validate_boundary`` is not run here, and
    ``tests/test_cwcomplex.py::TestFoxFormula`` runs it on torus and
    two-bridge knots.
    """
    if not pres.wirtinger:
        raise ValueError("knot_complex requires a Wirtinger presentation")
    n, m = pres.n_generators, len(pres.relators)
    one_cells = [(i, 0, sign, i, length) for i in range(n) for sign, length in ((1, 1), (-1, 0))]
    tables = [np.array(one_cells, dtype=np.int32).reshape(-1, 5).T]
    if m:
        relator, generator, sign, length, _ = pres.fox_terms
        tables.append(np.stack((relator, generator - 1, sign, relator + n, length)))
    return TwistedCWComplex(
        cells_per_degree=(1, n, m) if m else (1, n),
        bases=(*((i,) for i in range(1, n + 1)), *pres.relators),
        incidences=tuple(tables),
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
    the cell's first ``bd`` statement.  Equal words share one base.
    """
    stream = _TokenStream(text)
    names, letters = stream.generators()

    relations = []
    cells = {}
    bases = {}  # word -> its index in the complex's bases
    # (p, i, token of 'bd', [(target, sign, base, length, token of the target)])
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
                recs.append((target, 1 if sign == "+" else -1,
                             bases.setdefault(word, len(bases)), len(word), stream.pos - 1))
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
    rows = [[] for _ in range(top)]  # per degree: (cell, target, sign, base, length)
    first_bd = {}  # (p, i) -> the token of the cell's first 'bd'
    for p, i, at, recs in bd_statements:
        if not 1 <= p <= top:
            raise stream.error(f"'bd' degree {p} is outside 1..{top}", at)
        if not 0 <= i < dims[p]:
            raise stream.error(f"'bd {p}' cell index {i} is outside 0..{dims[p] - 1}", at)
        first_bd.setdefault((p, i), at)
        for target, sign, base, length, target_at in recs:
            if not 0 <= target < dims[p - 1]:
                raise stream.error(
                    f"target index {target} is outside 0..{dims[p - 1] - 1}", target_at
                )
            rows[p - 1].append((i, target, sign, base, length))
    # a stable sort: a cell's records stay in file order across its statements
    tables = (sorted(r, key=lambda rec: rec[0]) for r in rows)
    cx = TwistedCWComplex(
        cells_per_degree=tuple(dims),
        bases=tuple(bases),
        incidences=tuple(np.array(t, dtype=np.int32).reshape(-1, 5).T for t in tables),
        relations=tuple(relations),
        generator_names=names,
    )
    try:
        cx.validate_boundary()
    except ValueError as exc:
        raise stream.error(str(exc), first_bd[exc.cell]) from None
    return cx
