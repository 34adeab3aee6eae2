"""Unitary representations of finitely presented groups.

A representation assigns an r x r unitary matrix to each generator.  The
file format is::

    rank r;
    mat <name> = [ [re,im], [re,im], ... ];   # r*r entries, row major
    char <name> = re,im;                      # rank-1 shorthand

A ``mat`` body holds exactly r*r pairs with one comma between consecutive
pairs; any other text in it is a ParseError.  So is a second ``rank`` or a
second assignment to one generator.

Images, characters and holonomies are unitary to 1e-10 by ``unitarity_defects``;
when validated against a presentation, relator images must equal the identity to 1e-8.
"""

from __future__ import annotations

import re

import numpy as np

from .presentations import NUM, ParseError, stray_letter

UNITARITY_TOL = 1e-10
RELATOR_TOL = 1e-8


def unitarity_defects(mats):
    """``(||m^H m - I||_F, whether <= UNITARITY_TOL)`` for each m of a (k, r, r) stack.
    A huge, inf or nan entry gives an inf or nan defect, which fails, and no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.conj(np.swapaxes(mats, 1, 2)) @ mats
        defects = np.linalg.norm(gram - np.eye(mats.shape[1]), axis=(1, 2))
    return defects, defects <= UNITARITY_TOL


class UnitaryRep:
    """Unitary matrices assigned to the generators of a presentation.

    The letters' matrices are one (2n + 1, r, r) table, built at
    construction: the n inverses (conjugate transposes, last first), the
    identity and the n images, so letter k reads entry k + n.
    ``images[i - 1]``, rho(x_i), is a view into it; the walk reads the
    table's flat view at rank 1, else the list of its r x r entries.
    """

    def __init__(self, images):
        images = [np.asarray(m, dtype=complex) for m in images]
        if not images or not images[0].size:
            raise ValueError("a representation needs at least one generator image, at least 1x1")
        r = images[0].shape[0]
        for k, m in enumerate(images):
            if m.shape != (r, r):
                raise ValueError(f"generator image {k + 1} is not {r}x{r}")
        stack = np.array(images)
        defects, unitary = unitarity_defects(stack)
        if not unitary.all():
            k = np.argmin(unitary)
            raise ValueError(f"generator image {k + 1} is not unitary (defect {defects[k]:.2e})")
        table = np.concatenate((stack[::-1].conj().swapaxes(1, 2), np.eye(r)[None], stack))
        self.rank, self.images = r, list(table[len(images) + 1 :])
        self._letters = table.reshape(-1) if r == 1 else list(table)

    @staticmethod
    def character(n_generators, xi):
        """The rank-1 representation sending every generator to xi (one unitarity check)."""
        xi = complex(xi)
        try:
            return UnitaryRep([np.array([[xi]])] * n_generators)
        except ValueError:
            if n_generators < 1:
                raise
            raise ValueError(f"character value must have modulus 1, got |xi|={abs(xi)}") from None

    def of_word(self, w):
        """rho(w), the one-record ``prefix_images``: bitwise w's letter images
        multiplied left to right from the identity, one matmul per letter."""
        return self.prefix_images([w], [0], [len(w)])[0]

    def prefix_images(self, words, base, length):
        """rho of the prefix of ``length[k]`` letters of ``words[base[k]]`` for
        each record k, as a (len(base), r, r) array.

        One walk along each word that has records, over them in ascending
        length, multiplies the identity on the right by each letter's entry
        of the table, in word order, and writes each record's image into the
        output as it reaches its length.  It builds nothing from the images,
        so a write through ``images`` reaches it, and it reads no letter past
        a word's longest record.  At rank 1 the walk is one gather from the
        table's flat view, behind a leading 1, and one cumulative product,
        which runs the complex multiplications of the 1x1 matmuls in their
        order, so bitwise theirs."""
        n, letters = len(self.images), self._letters
        order = np.lexsort((length, base))
        ascending = np.asarray(length)[order]  # each word's lengths, ascending
        # where each word's records end in that order
        ends = np.bincount(base, minlength=len(words)).cumsum().tolist()
        out = np.empty((len(order), self.rank, self.rank), dtype=complex)
        for word, start, end in zip(words, [0, *ends], ends):
            if start == end:
                continue
            ks, lengths = order[start:end], ascending[start:end]
            word = word[: lengths[-1]]
            if (k := stray_letter(word, n)) is not None:
                raise ValueError(f"word uses generator {abs(k)}, rep has {n}")
            if self.rank == 1:
                walk = letters[np.array((0, *word), dtype=np.intp) + n]
                out.reshape(-1)[ks] = np.multiply.accumulate(walk, out=walk)[lengths]
                continue
            mat, done = letters[n], 0  # from the identity
            # Python ints, which slice the word faster than numpy's
            for k, stop in zip(ks.tolist(), lengths.tolist()):
                for x in word[done:stop]:
                    mat = mat @ letters[x + n]
                out[k], done = mat, stop
        return out

    def validate_against(self, pres, relator_images):
        """Check that each relator image, in ``pres``'s relator order, is I (well-definedness).

        ``pres`` presents the group by its ``generator_names`` and relators: a
        Presentation, or a TwistedCWComplex by its ``gens`` and ``rel`` lines."""
        if (n := len(pres.generator_names)) != len(self.images):
            raise ValueError(f"presentation has {n} generators, rep has {len(self.images)} images")
        for k, image in enumerate(relator_images):
            err = np.linalg.norm(image - np.eye(self.rank))
            if not err <= RELATOR_TOL:
                raise ValueError(
                    f"relator {k + 1} maps to a non-identity matrix (defect {err:.2e})"
                )


_PAIR = re.compile(rf"\[\s*({NUM})\s*,\s*({NUM})\s*\]")


def parse_representation(text, generator_names):
    """Parse a representation file for the given ordered generator names."""
    rank = None
    assigned = {}
    joined = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    *bodies, trailing = joined.split(";")
    if trailing.strip():
        raise ParseError("trailing text after the last ';'")
    lineno = 1  # the line of the ';' that ends the statement
    for stmt in bodies:
        lineno += stmt.count("\n")
        if not (stmt := stmt.strip()):
            continue
        if m := re.fullmatch(r"rank\s+(\d+)", stmt):
            if rank is not None:
                raise ParseError("duplicate 'rank' header", lineno)
            rank = int(m.group(1))
            if rank < 1:
                raise ParseError("rank must be positive", lineno)
            continue
        if m := re.fullmatch(rf"char\s+([a-z_][A-Za-z0-9_]*)\s*=\s*({NUM})\s*,\s*({NUM})", stmt):
            name, re_s, im_s = m.groups()
            if rank is None or rank != 1:
                raise ParseError("'char' requires 'rank 1;' first", lineno)
            image = np.array([[complex(float(re_s), float(im_s))]])
        elif m := re.fullmatch(r"mat\s+([a-z_][A-Za-z0-9_]*)\s*=\s*\[(.*)\]", stmt, re.DOTALL):
            name, body = m.groups()
            if rank is None:
                raise ParseError("'mat' requires 'rank r;' first", lineno)
            # pairs at 1::3 and 2::3, the text around them at 0::3
            parts = _PAIR.split(body)
            seps = parts[::3]
            between = set(map(str.strip, seps[1:-1]))
            if seps[0].strip() or seps[-1].strip() or not between <= {","}:
                raise ParseError(
                    f"matrix for {name!r} must hold [re,im] pairs with one comma between",
                    lineno,
                )
            n = len(seps) - 1
            if n != rank * rank:
                raise ParseError(
                    f"matrix for {name!r} needs {rank * rank} [re,im] pairs, got {n}",
                    lineno,
                )
            vals = [complex(float(a), float(b)) for a, b in zip(parts[1::3], parts[2::3])]
            image = np.array(vals, dtype=complex).reshape(rank, rank)
        else:
            raise ParseError(f"unrecognized statement {stmt.splitlines()[0]!r}", lineno)
        if name in assigned:
            raise ParseError(f"duplicate assignment to generator {name!r}", lineno)
        assigned[name] = image

    if rank is None:
        raise ParseError("missing 'rank r;' header")
    missing = [nm for nm in generator_names if nm not in assigned]
    if missing:
        raise ParseError(f"no matrix assigned to generator(s) {', '.join(missing)}")
    known = set(generator_names)
    extra = [nm for nm in assigned if nm not in known]
    if extra:
        raise ParseError(f"matrix assigned to unknown generator(s) {', '.join(extra)}")
    return UnitaryRep([assigned[nm] for nm in generator_names])
