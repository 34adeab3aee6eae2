"""Torsion invariants and Ruelle L-function special values for knot complements.

Two independent routes to the special value at the origin are provided:
Fox-calculus twisted Alexander functions of Wirtinger presentations, and
zeta-regularized combinatorial Laplacian torsion of twisted CW complexes,
plus a truncated Euler-product evaluator over geodesic length spectra.
The package exports what the command line and a library caller use; the
building blocks stay in their submodules.
"""

from .cwcomplex import (
    TorsionReport,
    TwistedCWComplex,
    knot_complex,
    parse_complex,
    torsion_report,
)
from .laurent import LaurentPoly
from .presentations import ParseError, Presentation, parse_presentation
from .reps import UnitaryRep, parse_representation
from .ruelle import LengthSpectrum, SpectrumWarning, format_spectrum, parse_spectrum, ruelle_eval
from .twisted import TwistedAlexanderResult, twisted_alexander

__version__ = "0.1.0"
