"""Exact indices of vector fields tangent to complete-intersection curves.

Everything is computed in exact rational arithmetic: local standard bases
(Mora's tangent-cone algorithm), finite quotient algebras carried by their
variable multiplication matrices, annihilator quotients, and exact
signatures of the induced bilinear pairings.
"""

__version__ = "0.1.0"

from .errors import (
    C1ClassZeroError,
    DegreeCapExceededError,
    GsvError,
    InfiniteDimensionError,
    NormalizationError,
    ParseError,
    ShapeError,
    TangencyError,
    VerificationError,
)
from .poly import (
    Polynomial,
    PolyMatrix,
    jacobian,
    linear_substitute,
    minor_det,
    transform_vector_field,
)
from .localstd import (
    LocalOrder,
    MembershipWitness,
    Staircase,
    StandardBasis,
    ideal_membership,
    quotient_dimension,
    staircase,
    standard_basis,
)
from .algebra import (
    FiniteAlgebra,
    QuotientAlgebra,
    annihilator_quotient,
    build_algebra,
)
from .sigform import (
    SignatureResult,
    choose_linear_form,
    signature_of,
)
from .index import (
    CoordinateNormalization,
    GoodnessResult,
    IndexReport,
    Problem,
    c_coefficient,
    complex_gsv_index,
    construct_good_deformation,
    eisenbud_levine_index,
    ensure_regular_sequence,
    is_good_sufficient,
    poincare_hopf_complex,
    real_gsv_index,
    verify_tangency,
)
from .cli import ProblemFile, parse_poly, parse_problem_file

__all__ = [name for name in dir() if not name.startswith("_")]
