"""Shared fixtures: corpus access, oracle polynomials, random representations."""

import numpy as np
import pytest

from torsionlab import LaurentPoly, Presentation, UnitaryRep, parse_presentation
from torsionlab.cli import corpus_dir
from torsionlab.freegroup import inverse, reduce

from oracles import ONE, close_to, scale

KNOT_NAMES = ["unknot", "trefoil", "figure_eight", "knot_5_2"]

# Seifert matrices, independent of the Fox-calculus pipeline
SEIFERT = {
    "unknot": np.zeros((0, 0)),
    "trefoil": np.array([[-1, 1], [0, -1]], dtype=float),
    "figure_eight": np.array([[1, 1], [0, -1]], dtype=float),
    "knot_5_2": np.array([[-1, 1], [0, -2]], dtype=float),
}


def seifert_alexander(V):
    """Alexander polynomial det(V - t V^T) by direct expansion.

    Independent oracle: expands the determinant over permutations with
    numpy polynomial coefficient arithmetic, no Laurent machinery.
    """
    m = V.shape[0]
    if m == 0:
        return ONE
    import itertools

    # each entry is the degree-1 polynomial V[i][j] - t * V[j][i]
    acc = np.zeros(m + 1, dtype=complex)
    for perm in itertools.permutations(range(m)):
        sign = 1.0
        seen = [False] * m
        for start in range(m):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = np.array([1.0 + 0j])
        for i in range(m):
            j = perm[i]
            term = np.convolve(term, np.array([V[i][j], -V[j][i]], dtype=complex))
        padded = np.zeros(m + 1, dtype=complex)
        padded[: len(term)] = term
        acc += sign * padded
    return LaurentPoly(0, acc)


def load_corpus_presentation(name):
    return parse_presentation((corpus_dir() / f"{name}.pres").read_text())


def load_sidecar_alexander(name):
    """The pinned Alexander polynomial shipped next to a corpus presentation."""
    lines = [
        ln.strip()
        for ln in (corpus_dir() / f"{name}.alex").read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    low = int(lines[0])
    coeffs = [float(x) for x in lines[1].split()]
    return LaurentPoly(low, coeffs)


def torus_braid_closure(p, q):
    """Wirtinger presentation <x_j | beta(x_j) = x_j> of T(p,q), beta = (s_1...s_{p-1})^q.

    beta acts on words by the Artin action; the relator for j = p is
    redundant and dropped.
    """
    def artin(i, k):
        j = abs(k)
        img = (i, i + 1, -i) if j == i else (i,) if j == i + 1 else (j,)
        return img if k > 0 else inverse(img)

    images = [(j,) for j in range(1, p + 1)]
    for _ in range(q):
        for i in range(1, p):
            images = [reduce(sum((artin(i, k) for k in w), ())) for w in images]
    return Presentation(
        generator_names=tuple(f"x{j}" for j in range(1, p + 1)),
        relators=tuple(reduce(images[j - 1] + (-j,)) for j in range(1, p)),
        wirtinger=True,
    )


def two_bridge_signs(p, q):
    """eps_i = (-1)^floor(i q / p) for i = 1 .. p-1, the signs of K(p/q)."""
    return [(-1) ** (i * q // p) for i in range(1, p)]


def two_bridge(p, q):
    """Wirtinger presentation <a, b | a w = w b> of the two-bridge knot K(p/q),
    p odd and q prime to p, with w = b^eps_1 a^eps_2 b^eps_3 ... a^eps_{p-1}.

    K(p/q) is hyperbolic unless q = +-1 (mod p) (Menasco).  The presentation
    has no peripheral words.
    """
    w = tuple((2 if i % 2 else 1) * e for i, e in enumerate(two_bridge_signs(p, q), 1))
    return Presentation(
        generator_names=("a", "b"), relators=(reduce((1, *w, -2, *inverse(w))),), wirtinger=True
    )


def hartley_alexander(p, q):
    """Alexander polynomial of K(p/q) by Hartley's formula, with no Fox calculus:
    sum_{k=0}^{p-1} (-1)^k t^{sigma_k}, sigma_k = eps_1 + ... + eps_k."""
    sigma = [0]
    for e in two_bridge_signs(p, q):
        sigma.append(sigma[-1] + e)
    coeffs = np.zeros(max(sigma) - min(sigma) + 1)
    for k, s in enumerate(sigma):
        coeffs[s - min(sigma)] += (-1) ** k
    return LaurentPoly(min(sigma), coeffs)


def random_unitary(rng, r):
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rmat = np.linalg.qr(z)
    return q * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))


def random_abelian_rep(rng, n_generators, r, avoid_eigenvalue_one=False):
    """A representation sending every generator to one random unitary.

    Wirtinger relators have zero exponent sum, so any shared image defines
    a genuine representation of the knot group.
    """
    while True:
        u = random_unitary(rng, r)
        if not avoid_eigenvalue_one:
            break
        if np.min(np.abs(np.linalg.eigvals(u) - 1.0)) > 0.1:
            break
    return UnitaryRep([u] * n_generators)


def up_to_unit_monomial(p, q, tol=1e-9):
    """True if p == unit * t**k * q with |unit| = 1, coefficientwise to tol."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if len(p.coeffs) != len(q.coeffs):
        return False
    unit = p.coeffs[0] / q.coeffs[0]
    if abs(abs(unit) - 1.0) > tol:
        return False
    shifted = scale(LaurentPoly(p.low, q.coeffs), unit)
    return close_to(p, shifted, rtol=tol)


def float_edge(pred, lo, hi):
    """Adjacent positive floats (a, b) between lo and hi with pred(a) == pred(lo)
    and pred(b) == pred(hi) != pred(lo), by bisection on the float64 bit
    patterns, which order positive floats as their values."""
    assert pred(lo) != pred(hi)
    a, b = (np.float64(x).view(np.int64) for x in (lo, hi))
    want = pred(lo)
    while b - a > 1:
        mid = (a + b) // 2
        if pred(mid.view(np.float64)) == want:
            a = mid
        else:
            b = mid
    return float(a.view(np.float64)), float(b.view(np.float64))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
