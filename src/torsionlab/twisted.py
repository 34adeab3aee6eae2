"""Twisted Alexander functions of knot groups and their special values.

Given a Wirtinger presentation and a unitary representation rho, the map
Phi sends a word with exponent sum d to rho(word) * t**d.  The
Fox Jacobian of the relators under Phi gives the boundary matrices; the
ratio of determinants delta1/delta0 is the twisted Alexander function,
whose modulus at t=1 is the torsion, and its square the Ruelle value at
the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cwcomplex import MAX_CELLS
from .laurent import LaurentMatrix, LaurentPoly

H1_TOL = 1e-9
CUSPIDAL_TOL = 1e-9


def phi_apply(elem, rep):
    """Apply Phi = (abelianization) tensor rho to a group-ring element.

    ``elem`` maps words to coefficients, as ``fox_derivative`` returns.
    Returns an r x r LaurentMatrix: each word w adds coeff * rho(w) at
    t**(exponent sum of w), with ``rep.of_word``, in the dict's order.  The
    pipeline does not call this: applied to ``fox_derivative`` of each
    relator, it is the reference that tests compare ``boundary2`` against.
    """
    degrees = [int(np.sign(w).sum()) for w in elem]
    low = min(degrees, default=0)
    coef = np.zeros((rep.rank, rep.rank, max(degrees, default=0) - low + 1), dtype=complex)
    for (w, c), d in zip(elem.items(), degrees):
        coef[:, :, d - low] += c * rep.of_word(w)
    return LaurentMatrix(np.full(rep.rank, low), coef)


def _generator_block(rep, i):
    """Phi(x_i - 1) = rho(x_i) * t - I, as an r x r LaurentMatrix."""
    r = rep.rank
    coef = np.zeros((r, r, 2), dtype=complex)
    coef[:, :, 1] = rep.images[i - 1]
    coef[range(r), range(r), 0] = -1
    return LaurentMatrix([0] * r, coef)


def boundary2(pres, rep, skip_generator=None):
    """The (n-1)r x nr Fox Jacobian under Phi, and the list of relator images.

    Block (j, i) is Phi(d r_j / d x_i); with ``skip_generator`` the
    corresponding block column is deleted (pivot removal).

    The Fox term of a letter x_i is +rho(prefix) t**deg(prefix) with the
    prefix before it, and of x_i^-1 it is -rho(prefix) t**deg(prefix) with
    the prefix through it; ``pres.fox_terms`` holds each term's generator,
    sign, prefix length and degree.  Each relator is walked once, by
    ``rep.prefix_products``; one ``np.add.at`` adds all terms, the negative
    ones negated exactly, into the flat coefficient tensor (relator j's rows
    start at its lowest degree), unbuffered and in word order.  As a - b is
    a + (-b), each entry is bitwise the sum phi_apply(fox_derivative) makes.
    The walk runs to the relator's last letter: that prefix is its image,
    bitwise ``rep.of_word``'s.

    A tensor of more than MAX_CELLS^2 coefficients, the budget of one capped
    Laplacian, is a ValueError before it is allocated, and before any Fox
    term is derived: its degree span comes from ``pres.degree_bounds``.
    """
    r = rep.rank
    cols = [i for i in range(1, pres.n_generators + 1) if i != skip_generator]
    bounds = pres.degree_bounds
    width = max((high - low + 1 for low, high in bounds), default=1)
    shape = (len(bounds) * r, len(cols) * r, width)
    if math.prod(shape) > MAX_CELLS**2:
        raise ValueError(f"Fox Jacobian of {' x '.join(map(str, shape))} coefficients (rows x "
                         f"columns x degrees) exceeds MAX_CELLS^2 = {MAX_CELLS**2}")
    coef = np.zeros(shape, dtype=complex)
    # block column of each generator, -1 for the skipped one
    column = np.full(pres.n_generators + 1, -1)
    column[cols] = range(len(cols))
    # offsets in the flat coef: entry (a, b) of a block
    entry = np.add.outer(np.arange(r) * coef.shape[1], np.arange(r)) * width
    firsts, signs = [np.empty(0, int)], [np.empty(0, int)]
    prods, images = [np.empty((0, r, r))], []
    for j, (rel, t, (low, _)) in enumerate(zip(pres.relators, pres.fox_terms, bounds)):
        c = column[t.generator]
        kept = c >= 0
        # each kept term's block's first entry, at its prefix degree in row j
        firsts.append((j * r * coef.shape[1] + c[kept] * r) * width - low + t.degree[kept])
        signs.append(t.sign[kept])
        walk = rep.prefix_products(rel, [*t.length[kept].tolist(), len(rel)])
        prods.append(walk[:-1])
        images.append(walk[-1])
    first, prods = np.concatenate(firsts), np.concatenate(prods)
    np.negative(prods, out=prods, where=(np.concatenate(signs) < 0)[:, None, None])
    np.add.at(coef.reshape(-1), (first[:, None, None] + entry).ravel(), prods.ravel())
    return LaurentMatrix(np.repeat([low for low, _ in bounds], r), coef), images


def choose_pivot(pres, rep, pivot=1):
    """The Wada pivot, generator 1 unless given, and the determinant of its
    Phi(x_pivot - 1) block (delta0).

    Every generator of a Wirtinger presentation has exponent sum 1, so its
    block is rho(x_i) t - I, whose determinant has leading coefficient
    det rho(x_i) and constant coefficient (-1)^r.  Both have modulus 1
    when rho is unitary, so the determinant never vanishes and every
    generator is a pivot.
    """
    if not 1 <= pivot <= pres.n_generators:
        raise ValueError(f"generator {pivot} is not a valid pivot")
    return pivot, _generator_block(rep, pivot).det()


def value_at_1(p):
    """``(p(1), |p(1)| > H1_TOL * max|c|)``: the one test that delta1(1) is nonzero (h1
    vanishes) and that delta0(1) is (rho fixes no vector of the pivot's image)."""
    value = p(1.0)
    return value, abs(value) > H1_TOL * p.max_abs_coeff()


def cuspidality_check(rep, pres):
    """True iff only the zero vector is fixed by both peripheral images, None
    (unknown) when the presentation has no meridian/longitude words.

    Full rank of [rho(meridian) - I; rho(longitude) - I]: singular values
    above CUSPIDAL_TOL.  Rows lower no singular value, so the meridian alone
    decides when those of rho(meridian) - I are above 2 CUSPIDAL_TOL.
    """
    if not pres.has_peripheral:
        return None
    eye = np.eye(rep.rank)
    meridian_minus_i = rep.of_word(pres.meridian) - eye
    if np.linalg.svd(meridian_minus_i, compute_uv=False).min() > 2 * CUSPIDAL_TOL:
        return True
    stacked = np.vstack([meridian_minus_i, rep.of_word(pres.longitude) - eye])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv > CUSPIDAL_TOL)) == rep.rank


def checked_square(x, name):
    """``x**2`` for a float x, or a ValueError naming ``name`` when a float
    cannot hold it (float ** raises OverflowError, which ``cli.main`` does
    not report as an input error)."""
    try:
        return x**2
    except OverflowError:
        raise ValueError(f"{name} = {x:.12g}^2 is too large for a float") from None


@dataclass(frozen=True)
class TwistedAlexanderResult:
    delta0: LaurentPoly
    delta1: LaurentPoly
    pivot_column: int
    h1_vanishes: bool
    cuspidal: bool | None  # None when no peripheral words are available
    torsion_at_1: float | None
    ruelle_at_0: float | None


def twisted_alexander(pres, rep, pivot=1):
    """Full pipeline: pivot choice, delta0/delta1, and special values.

    When delta1(1) and delta0(1) are nonzero (``value_at_1``) the torsion at
    t=1 is |delta1(1)/delta0(1)| and the Ruelle value at the origin its
    square; otherwise the polynomials are returned with the values withheld.
    A square that a float cannot hold is a ValueError (``checked_square``).
    """
    if not pres.wirtinger:
        raise ValueError("twisted_alexander requires a Wirtinger presentation")
    b2, relator_images = boundary2(pres, rep, skip_generator=pivot)
    rep.validate_against(pres, relator_images)
    pivot, delta0 = choose_pivot(pres, rep, pivot)
    delta1 = b2.det()

    value1, h1_vanishes = value_at_1(delta1)
    value0, delta0_nonzero = value_at_1(delta0)
    cuspidal = cuspidality_check(rep, pres)

    torsion = ruelle = None
    if h1_vanishes and delta0_nonzero:
        torsion = abs(value1 / value0)
        ruelle = checked_square(torsion, "ruelle_at_0")
    return TwistedAlexanderResult(
        delta0=delta0,
        delta1=delta1,
        pivot_column=pivot,
        h1_vanishes=h1_vanishes,
        cuspidal=cuspidal,
        torsion_at_1=torsion,
        ruelle_at_0=ruelle,
    )
