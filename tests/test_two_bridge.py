"""Two-bridge knots K(p/q), hyperbolic unless q = +-1 (mod p): the Fox route
against Hartley's Fox-free Alexander polynomial, and against the CW route."""

import math

import numpy as np
import pytest

from torsionlab import UnitaryRep, knot_complex, torsion_report, twisted_alexander

from conftest import hartley_alexander, random_abelian_rep, two_bridge, up_to_unit_monomial
from oracles import ONE, mul

# hyperbolic knots with relators of 2p = 50 to 62 letters
LONG_KNOTS = [(25, 7), (27, 11), (29, 12), (31, 13)]

# verify-knot's default tolerance on the relative gap between routes
VERIFY_TOL = 1e-8


@pytest.mark.parametrize("p", range(3, 32, 2))
def test_trivial_character_is_hartley(p):
    # for the trivial character delta1 is the Alexander polynomial up to +-t^k
    for q in range(1, p):
        if math.gcd(p, q) == 1:
            delta1 = twisted_alexander(two_bridge(p, q), UnitaryRep.character(2, 1.0)).delta1
            assert up_to_unit_monomial(delta1, hartley_alexander(p, q)), (p, q)


def route_gap(pres, rep):
    """R(0) from the Fox route, and its relative gap to the CW route's."""
    fox = twisted_alexander(pres, rep).ruelle_at_0
    cw = torsion_report(knot_complex(pres), rep).torsion ** 2
    return fox, abs(fox - cw) / max(fox, cw)


@pytest.mark.parametrize("p,q", LONG_KNOTS)
def test_fox_and_cw_agree(rng, p, q):
    """At random characters R(0) is (|A_K(xi)| / |1 - xi|)^2 from Hartley's
    polynomial; on an abelian rep of rank 2 to 8 it is the product of that
    over the rep's eigenvalues, and delta1 is the product of the characters'
    delta1 up to a unit monomial.  Fox and CW agree to VERIFY_TOL throughout."""
    pres = two_bridge(p, q)
    alexander = hartley_alexander(p, q)
    gaps = []
    for xi in np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1, 4)):
        fox, gap = route_gap(pres, UnitaryRep.character(2, xi))
        assert fox == pytest.approx((abs(alexander(xi)) / abs(1 - xi)) ** 2, rel=VERIFY_TOL)
        gaps.append(gap)
    for r in range(2, 9):
        rep = random_abelian_rep(rng, 2, r, avoid_eigenvalue_one=True)
        fox, gap = route_gap(pres, rep)
        eigs = np.linalg.eigvals(rep.images[0])
        want = np.prod([(abs(alexander(xi)) / abs(1 - xi)) ** 2 for xi in eigs])
        assert fox == pytest.approx(want, rel=VERIFY_TOL)
        gaps.append(gap)
        product = ONE
        for xi in eigs:
            product = mul(product, twisted_alexander(pres, UnitaryRep.character(2, xi)).delta1)
        assert up_to_unit_monomial(twisted_alexander(pres, rep).delta1, product, tol=1e-9)
    assert max(gaps) <= VERIFY_TOL, f"worst Fox-CW gap {max(gaps):.2e}"
