"""Seeded inputs and closed-form oracles for the benchmark.

Nothing here imports torsionlab: the generator writes plain input files,
and the oracles are computed from how the inputs were built (torus-knot
Alexander polynomials, eigenvalues chosen before the matrices were made),
so they are independent of the code under test.

Knots are braid closures: for the braid beta = (s_1 s_2 ... s_{p-1})^q on
p strands, the group of the closure of beta is
<x_1..x_p | beta(x_j) = x_j>, one relator dropped, with beta acting on the
free group by the Artin action s_i: x_i -> x_i x_{i+1} x_i^-1,
x_{i+1} -> x_i.  The closure is the torus knot T(p, q) when gcd(p, q) = 1.
"""

from __future__ import annotations

import math

import numpy as np

# eigenvalues stay this far (chord distance) from 1 and from the roots of A_K
MIN_ROOT_DIST = 0.05


def _reduce(letters):
    """Free reduction of a list of signed generator indices (+j, -j)."""
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return out


def _inverse(word):
    return [-a for a in reversed(word)]


def _artin(i, a):
    """Image of the signed letter a under the Artin generator s_i."""
    j = abs(a)
    img = [i, i + 1, -i] if j == i else [i] if j == i + 1 else [j]
    return img if a > 0 else _inverse(img)


def braid_images(p, q):
    """Images of x_1..x_p under the Artin action of (s_1 ... s_{p-1})^q."""
    images = [[j] for j in range(1, p + 1)]
    for _ in range(q):
        for i in range(1, p):
            images = [_reduce([b for a in w for b in _artin(i, a)]) for w in images]
    return images


def torus_relators(p, q):
    """Relators beta(x_j) x_j^-1 for j = 1..p-1 (the last one is dropped)."""
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a torus knot: need p, q >= 2 coprime")
    images = braid_images(p, q)
    return [_reduce(images[j - 1] + [-j]) for j in range(1, p)]


def _fmt_word(word):
    return " ".join(f"x{a}" if a > 0 else f"x{-a}^-1" for a in word)


def torus_presentation(p, q):
    """The .pres text of T(p, q) with meridian x1 and longitude (x1..xp)^q x1^-pq."""
    lines = [f"# torus knot T({p},{q}) as a braid closure", "gens " + " ".join(
        f"x{j}" for j in range(1, p + 1)) + " ;", "wirtinger ;"]
    for rel in torus_relators(p, q):
        lines.append(f"rel {_fmt_word(rel)} ;")
    lines.append("meridian x1 ;")
    lines.append(f"longitude {_fmt_word(list(range(1, p + 1)) * q)} x1^-{p * q} ;")
    return "\n".join(lines) + "\n"


def relator_letters(p, q):
    """Length of the longest relator of the T(p, q) presentation."""
    return max(len(r) for r in torus_relators(p, q))


def alexander_coeffs(p, q):
    """Integer coefficients (increasing degree) of
    A_K(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by exact division."""
    num = [0] * (p * q + 2)
    # (t^pq - 1)(t - 1) = t^(pq+1) - t^pq - t + 1
    num[p * q + 1] += 1
    num[p * q] -= 1
    num[1] -= 1
    num[0] += 1
    den = [0] * (p + q + 1)
    den[p + q] += 1
    den[p] -= 1
    den[q] -= 1
    den[0] += 1
    quot = [0] * (len(num) - len(den) + 1)
    rem = num[:]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1]  # den is monic
        quot[k] = c
        for j, d in enumerate(den):
            rem[k + j] -= c * d
    if any(rem):
        raise ArithmeticError("A_K division left a remainder")
    return quot


def alexander_roots(p, q):
    """Roots of A_K on the unit circle: pq-th roots of unity that are
    neither p-th nor q-th roots of unity."""
    ks = [k for k in range(p * q) if k % p and k % q]
    return np.exp(2j * np.pi * np.array(ks) / (p * q))


def alexander_at(p, q, t):
    return np.polyval(alexander_coeffs(p, q)[::-1], t)


def ruelle_oracle(p, q, xis):
    """prod_k (|A_K(xi_k)| / |1 - xi_k|)^2 for an abelian unitary rep with
    eigenvalues xi_k: the value of R(0) = |delta1(1)/delta0(1)|^2."""
    xis = np.asarray(xis, dtype=complex)
    return float(np.prod((np.abs(alexander_at(p, q, xis)) / np.abs(1.0 - xis)) ** 2))


def unit_away_from_roots(rng, p, q):
    """A random unit complex number at least MIN_ROOT_DIST from 1 and the roots of A_K."""
    bad = np.concatenate([[1.0 + 0j], alexander_roots(p, q)])
    while True:
        xi = np.exp(2j * np.pi * rng.random())
        if np.min(np.abs(bad - xi)) >= MIN_ROOT_DIST:
            return complex(xi)


def haar_unitary(rng, r):
    z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / math.sqrt(2)
    qm, rm = np.linalg.qr(z)
    d = np.diag(rm)
    return qm * (d / np.abs(d))


def abelian_rep(rng, p, q, rank):
    """(U, eigenvalues): U = V diag(xi) V*, every generator maps to U."""
    xis = np.array([unit_away_from_roots(rng, p, q) for _ in range(rank)])
    v = haar_unitary(rng, rank)
    return (v * xis) @ v.conj().T, xis


def rep_text(n_generators, u):
    """The representation file assigning the matrix u to x1..xn."""
    entries = ", ".join(f"[{float(c.real)!r},{float(c.imag)!r}]" for c in np.ravel(u))
    lines = [f"rank {u.shape[0]};"]
    lines += [f"mat x{j} = [ {entries} ];" for j in range(1, n_generators + 1)]
    return "\n".join(lines) + "\n"


def spectrum(rng, entries, rank, l_min=0.3, l_max=5.0):
    """(lengths, angles, holonomies) of a synthetic length spectrum.

    Lengths have density proportional to e^{2l} on [l_min, l_max], the
    growth of a hyperbolic 3-manifold's prime geodesics.  Holonomies are
    V diag(e^{i theta}) V* with Haar V, so the eigenvalue angles theta are
    known without an eigensolver.
    """
    a, b = math.exp(2 * l_min), math.exp(2 * l_max)
    lengths = np.sort(0.5 * np.log(a + (b - a) * rng.random(entries)))
    angles = rng.uniform(-np.pi, np.pi, size=(entries, rank))
    z = (rng.standard_normal((entries, rank, rank))
         + 1j * rng.standard_normal((entries, rank, rank))) / math.sqrt(2)
    qm, rm = np.linalg.qr(z)
    d = np.diagonal(rm, axis1=1, axis2=2)
    v = qm * (d / np.abs(d))[:, None, :]
    hol = (v * np.exp(1j * angles)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    return lengths, angles, hol


def spectrum_text(lengths, hol):
    """The .spec file: rank header, then one geo line per entry (17 digits)."""
    rank = hol.shape[1]
    lines = [f"rank {rank};"]
    for length, h in zip(lengths, hol):
        nums = " ".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in np.ravel(h))
        lines.append(f"geo {float(length)!r} ; {nums} ;")
    return "\n".join(lines) + "\n"


def ruelle_log_oracle(lengths, angles, z, cutoff=None):
    """-sum log(1 - e^{i theta} e^{-z l}) over entries with l <= cutoff."""
    keep = slice(None) if cutoff is None else lengths <= cutoff
    mus = np.exp(1j * angles[keep]) * np.exp(-complex(z) * lengths[keep])[:, None]
    return complex(-np.sum(np.log(1.0 - mus)))
