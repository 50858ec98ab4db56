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
    JacobianZeroClassError,
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
    INFINITE,
    LocalOrder,
    MembershipWitness,
    Staircase,
    StandardBasis,
    ideal_membership,
    negdeglex,
    negdegrevlex,
    normal_form,
    quotient_dimension,
    staircase,
    standard_basis,
)
from .algebra import (
    FiniteAlgebra,
    QuotientAlgebra,
    annihilator_quotient,
    build_algebra,
    socle,
    solve_multiplication,
)
from .sigform import (
    GramForm,
    SignatureResult,
    choose_linear_form,
    gram_of_form,
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
    coordinate_invariance_check,
    cramer_identity_check,
    eisenbud_levine_index,
    ensure_regular_sequence,
    gm_identity_check,
    gm_signature_index,
    is_good_sufficient,
    poincare_hopf_complex,
    real_gsv_index,
    verify_tangency,
)
from .cli import ProblemFile, ReportDocument, parse_poly, parse_problem_file

__all__ = [name for name in dir() if not name.startswith("_")]
