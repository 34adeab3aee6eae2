"""Torsion invariants and Ruelle L-function special values for knot complements.

Two independent routes to the special value at the origin are provided:
Fox-calculus twisted Alexander functions of Wirtinger presentations, and
zeta-regularized combinatorial Laplacian torsion of twisted CW complexes,
plus a truncated Euler-product evaluator over geodesic length spectra.
"""

from .cwcomplex import (
    Incidence,
    TorsionReport,
    TwistedCWComplex,
    circle_complex,
    comb_laplacian,
    knot_complex,
    parse_complex,
    torsion_report,
    twisted_boundary,
)
from .freegroup import (
    GroupRingElement,
    Word,
    fox_derivative,
    fundamental_identity_residual,
    word_reduce,
)
from .laurent import LaurentMatrix, LaurentPoly
from .presentations import ParseError, Presentation, parse_presentation
from .reps import UnitaryRep, parse_representation
from .ruelle import (
    GeodesicEntry,
    LengthSpectrum,
    NotLoxodromicError,
    SpectrumWarning,
    complex_length_from_trace,
    convergence_report,
    format_spectrum,
    parse_spectrum,
    ruelle_eval,
    truncated_ruelle,
)
from .twisted import (
    MissingPeripheralError,
    NoPivotError,
    TwistedAlexanderResult,
    boundary1,
    boundary2,
    choose_pivot,
    cuspidality_check,
    phi_apply,
    twisted_alexander,
)

__version__ = "0.1.0"
