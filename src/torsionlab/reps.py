"""Unitary representations of finitely presented groups.

A representation assigns an r x r unitary matrix to each generator.  The
file format is::

    rank r;
    mat <name> = [ [re,im], [re,im], ... ];   # r*r entries, row major
    char <name> = re,im;                      # rank-1 shorthand

Unitarity is enforced to 1e-10; when validated against a presentation,
relator images must equal the identity to 1e-8.
"""

from __future__ import annotations

import re

import numpy as np

from .presentations import ParseError

UNITARITY_TOL = 1e-10
RELATOR_TOL = 1e-8


class UnitaryRep:
    """Unitary matrices assigned to the generators of a presentation."""

    def __init__(self, images):
        images = [np.asarray(m, dtype=complex) for m in images]
        if not images:
            raise ValueError("a representation needs at least one generator image")
        r = images[0].shape[0]
        for k, m in enumerate(images):
            if m.shape != (r, r):
                raise ValueError(f"generator image {k + 1} is not {r}x{r}")
            err = np.linalg.norm(m.conj().T @ m - np.eye(r))
            if err > UNITARITY_TOL:
                raise ValueError(
                    f"generator image {k + 1} is not unitary (defect {err:.2e})"
                )
        self.rank = r
        self.images = images
        self._inverses = [m.conj().T for m in images]

    @staticmethod
    def character(n_generators, xi):
        """The rank-1 representation sending every generator to xi."""
        xi = complex(xi)
        if abs(abs(xi) - 1.0) > UNITARITY_TOL:
            raise ValueError(f"character value must have modulus 1, got |xi|={abs(xi)}")
        return UnitaryRep([np.array([[xi]])] * n_generators)

    def of_word(self, w):
        """Ordered product of generator images along a word."""
        return self.extend(np.eye(self.rank, dtype=complex), w.letters)

    def extend(self, out, letters):
        """``out`` multiplied on the right by each letter's image in turn, as
        ``of_word`` does from the identity: extending ``of_word(u)`` by the
        letters of v is bitwise equal to ``of_word`` of the letters u + v."""
        for i, s in letters:
            if i > len(self.images):
                raise ValueError(f"word uses generator {i}, rep has {len(self.images)}")
            out = out @ (self.images[i - 1] if s > 0 else self._inverses[i - 1])
        return out

    def validate_against(self, pres):
        """Check that every relator maps to the identity (well-definedness)."""
        if pres.n_generators != len(self.images):
            raise ValueError(
                f"presentation has {pres.n_generators} generators, "
                f"rep has {len(self.images)} images"
            )
        for k, r in enumerate(pres.relators):
            err = np.linalg.norm(self.of_word(r) - np.eye(self.rank))
            if err > RELATOR_TOL:
                raise ValueError(
                    f"relator {k + 1} maps to a non-identity matrix (defect {err:.2e})"
                )


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_PAIR = re.compile(rf"\[\s*({_NUM})\s*,\s*({_NUM})\s*\]")


def parse_representation(text, generator_names):
    """Parse a representation file for the given ordered generator names."""
    rank = None
    assigned = {}
    joined = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    *bodies, trailing = joined.split(";")
    statements = []
    lineno = 1  # the line of the ';' that ends the statement
    for stmt in bodies:
        lineno += stmt.count("\n")
        if stmt.strip():
            statements.append((stmt.strip(), lineno))
    if trailing.strip():
        raise ParseError("trailing text after the last ';'")

    for stmt, lineno in statements:
        if m := re.fullmatch(r"rank\s+(\d+)", stmt):
            rank = int(m.group(1))
            if rank < 1:
                raise ParseError("rank must be positive", lineno)
        elif m := re.fullmatch(r"char\s+([a-z_][A-Za-z0-9_]*)\s*=\s*(" + _NUM + r")\s*,\s*(" + _NUM + ")", stmt):
            name, re_s, im_s = m.groups()
            if rank is None or rank != 1:
                raise ParseError("'char' requires 'rank 1;' first", lineno)
            assigned[name] = np.array([[complex(float(re_s), float(im_s))]])
        elif m := re.fullmatch(r"mat\s+([a-z_][A-Za-z0-9_]*)\s*=\s*\[(.*)\]", stmt, re.DOTALL):
            name, body = m.groups()
            if rank is None:
                raise ParseError("'mat' requires 'rank r;' first", lineno)
            pairs = _PAIR.findall(body)
            if len(pairs) != rank * rank:
                raise ParseError(
                    f"matrix for {name!r} needs {rank * rank} [re,im] pairs, got {len(pairs)}",
                    lineno,
                )
            vals = [complex(float(a), float(b)) for a, b in pairs]
            assigned[name] = np.array(vals, dtype=complex).reshape(rank, rank)
        else:
            raise ParseError(f"unrecognized statement {stmt.splitlines()[0]!r}", lineno)

    if rank is None:
        raise ParseError("missing 'rank r;' header")
    missing = [nm for nm in generator_names if nm not in assigned]
    if missing:
        raise ParseError(f"no matrix assigned to generator(s) {', '.join(missing)}")
    extra = [nm for nm in assigned if nm not in generator_names]
    if extra:
        raise ParseError(f"matrix assigned to unknown generator(s) {', '.join(extra)}")
    return UnitaryRep([assigned[nm] for nm in generator_names])
