"""End-to-end index computations for vector fields tangent to curves.

Both GSV indices of a tangent field X on the curve {f_1 = ... = f_{n-1} = 0}
come from one construction, run by one driver. B0 is the local quotient by
(f_1, ..., f_{n-1}, X_1) in coordinates making that ideal zero-dimensional,
DF is the Jacobian minor on the trailing n-1 columns, C0 = B0 / ann(DF), and
c1 = trace(DX) - trace(C) is the degree-one coefficient of
det(1 + t DX) / det(1 + t C). The fields differ only where the index is read
off: the complex index is dim C0 = dim B0 - dim O/(f, X_1, DF) by
rank-nullity for multiplication by DF, so no C0 is built; the real index is
the signature of the pairing (a, b) -> l(ab) on C0 for any functional l
positive on the class of c1. A map germ g has its own driver, read the same
way off its local algebra Q: the Poincare-Hopf index is dim Q, and the
Eisenbud-Levine index is the signature on Q with l positive on det Dg.
Coordinate changes are applied by kind (LinearChange), and C is transformed
only for the change whose B0 is finite.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, permutations

from . import _linalg, localstd
from ._record import Record
from .algebra import (
    FiniteAlgebra,
    QuotientAlgebra,
    annihilator_quotient,
    build_algebra,
)
from .errors import (
    DegreeCapExceededError,
    InfiniteDimensionError,
    NormalizationError,
    ShapeError,
    TangencyError,
    VerificationError,
)
from .localstd import quotient_dimension
from .poly import (
    LinearChange,
    Polynomial,
    PolyMatrix,
    default_names,
    jacobian,
    linear_substitute,
    minor_det,
    quotient,
    transform_vector_field,
)
from .sigform import SignatureResult, _witt_signature, choose_linear_form


class Problem(Record):
    """A tangent vector-field problem: q equations, n field components, Xf = Cf."""

    vars: tuple
    f: tuple
    X: tuple
    C: PolyMatrix
    field: str  # "complex" | "real"

    def __post_init__(self):
        if self.field not in ("complex", "real"):
            raise ValueError(f"unknown field tag {self.field!r}")
        n = len(self.vars)
        if len(self.X) != n:
            raise ShapeError(
                f"vector field has {len(self.X)} components for {n} variables"
            )
        q = len(self.f)
        if self.C.rows != q or self.C.cols != q:
            raise ShapeError("tangency matrix must be q x q")

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def ncurve_eqs(self) -> int:
        return len(self.f)


class CoordinateNormalization(Record, hidden=("algebra",)):
    """A coordinate change z = A y making (f, X_1) zero-dimensional."""

    transform: tuple  # row tuples of ints (every candidate is integral)
    problem: Problem  # the transformed problem
    attempts_used: int
    algebra: FiniteAlgebra  # B0 of `problem`


class GoodnessResult(Record):
    """Outcome of the sufficient deformability criterion.

    status is "satisfied" or "unknown" (the criterion is sufficient only, so
    a failed membership never yields "false"). When satisfied, witnesses maps
    each C entry position (row, col) to a MembershipWitness over the maximal
    minors listed in `minors` (column index sets in `minor_columns`).
    """

    status: str
    minor_columns: tuple = ()
    minors: tuple = ()
    witnesses: "dict | None" = None


class IndexReport(Record):
    dim_B0: int
    dim_B0_mod_DF: int
    dim_C0: int
    index: int
    signature: "SignatureResult | None"
    c1: Polynomial
    normalization: CoordinateNormalization


def verify_tangency(f, X, C: PolyMatrix):
    """Check Xf = Cf exactly; returns (ok, residual polynomials)."""
    f = list(f)
    X = list(X)
    n = X[0].nvars
    residuals = []
    for l, fl in enumerate(f):
        acc = Polynomial.zero(n)
        for i in range(n):
            acc = acc + fl.diff(i) * X[i]
        for m, fm in enumerate(f):
            acc = acc - C.entry(l, m) * fm
        residuals.append(acc)
    return all(r.is_zero for r in residuals), residuals


def _substitute_curve(problem: Problem, change: LinearChange):
    """f, then X, of problem in the coordinates y of the change z = A y; a
    generator, so that a change refuted by f alone never transforms X."""
    identity = change.is_identity
    yield (problem.f if identity
           else tuple(linear_substitute(p, change) for p in problem.f))
    yield (problem.X if identity
           else tuple(transform_vector_field(problem.X, change)))


def random_unimodular(nvars: int, rng: random.Random):
    """Integer matrix with determinant +-1 (P * L * U with unit diagonals)."""
    L = _linalg.identity(nvars)
    U = _linalg.identity(nvars)
    for i in range(nvars):
        for j in range(i):
            L[i][j] = rng.randint(-2, 2)
            U[j][i] = rng.randint(-2, 2)
    perm = list(range(nvars))
    rng.shuffle(perm)
    P = [[int(j == perm[i]) for j in range(nvars)] for i in range(nvars)]
    return _linalg.matmul(P, _linalg.matmul(L, U))


def _candidate_transforms(nvars: int, seed: int, limit: int):
    """The first `limit` coordinate changes of the fixed search order."""

    def candidates():
        for perm in permutations(range(nvars)):  # the identity comes first
            yield tuple(tuple(int(j == perm[i]) for j in range(nvars))
                        for i in range(nvars))
        rng = random.Random(seed)
        while True:
            yield tuple(tuple(r) for r in random_unimodular(nvars, rng))

    return islice(candidates(), limit)


def _normalize_with(problem: Problem, A, attempts_used: int):
    """The normalization by A with its algebra B0.

    Raises InfiniteDimensionError when the section by y_1 = 0 is infinite,
    NormalizationError when only B0 is (see ensure_regular_sequence), and
    DegreeCapExceededError when a standard basis overruns the degree cap.
    """
    change = LinearChange(A)
    curve = _substitute_curve(problem, change)
    f = next(curve)
    if any(all(m[0] for m in p.terms) for p in f):  # y_1 | f_i: no basis
        raise InfiniteDimensionError("y_1 divides some f_i")
    X = next(curve)
    gens = list(f) + [X[0]]
    try:
        B0 = build_algebra(gens)
    except InfiniteDimensionError:
        gens[-1] = Polynomial.variable(problem.nvars, 0)
        quotient_dimension(gens)  # raises when the section is infinite
        raise NormalizationError(
            "the vector field vanishes on a branch of the curve, so its zero "
            f"on the curve is not isolated (coordinate change {attempts_used}:"
            " (f, X_1) is infinite and the section by y_1 = 0 is finite)"
        ) from None
    if not change.is_identity:  # C only for a change whose B0 is finite
        C = PolyMatrix(problem.C.rows, problem.C.cols,
                       [linear_substitute(e, change) for e in problem.C.entries])
        problem = Problem(vars=problem.vars, f=f, X=X, C=C, field=problem.field)
    return CoordinateNormalization(
        transform=A, problem=problem, attempts_used=attempts_used, algebra=B0,
    )


# Coordinate changes the normalization search tries before it gives up;
# read at each call.
MAX_ATTEMPTS = 25


def ensure_regular_sequence(problem: Problem,
                            seed: int = 0) -> CoordinateNormalization:
    """Find coordinates in which (f_1, ..., f_q, X_1) is zero-dimensional.

    Needs Xf = Cf, which _gsv_index checks first. Tries the identity, then
    all coordinate permutations, then seeded random unimodular integer
    matrices, MAX_ATTEMPTS changes in all; the search order is fixed so
    reports are reproducible. An attempt transforms only f and X (the
    identity neither); C is transformed once, for the accepted change.

    The section I(f, y_1) = dim O/(f, y_1) decides each attempt. As X(f)
    lies in (f), X preserves every minimal prime of (f) (A. Seidenberg,
    Differential ideals in rings of finitely generated type, Amer. J. Math.
    89, 1967), so on a branch gamma of the curve X = a gamma' and
    X_1 o gamma = a (y_1 o gamma)'. If I(f, y_1) is infinite, V(f) has a
    component of dimension 2 or more, which X_1 = 0 cuts in dimension 1 or
    more, or a branch in {y_1 = 0}, on which X_1 vanishes: B0 is infinite,
    and the search moves on. Otherwise X_1 vanishes on a branch exactly
    when X does, so B0 is infinite exactly when X vanishes on a branch, in
    any coordinates, and the search stops with that verdict. The section
    is computed only for an infinite B0; y_1 dividing some f_i makes it
    infinite with no standard basis. A degree cap on either basis is a
    limit: the attempt is counted and skipped.
    """
    capped = 0
    for attempts, A in enumerate(
        _candidate_transforms(problem.nvars, seed, MAX_ATTEMPTS), start=1
    ):
        try:
            return _normalize_with(problem, A, attempts)
        except InfiniteDimensionError:
            pass
        except DegreeCapExceededError:
            capped += 1
    verdict = ("no hyperplane y_1 = 0 tried cuts the curve in a finite "
               "section" if not capped else
               f"{capped} hit the degree cap, a limit, and the hyperplanes "
               "y_1 = 0 of the others cut the curve in infinite sections")
    raise NormalizationError(
        f"no coordinate change out of {attempts} made (f, X_1) "
        f"zero-dimensional: {verdict}"
    )


def c_coefficient(DX: PolyMatrix, C: PolyMatrix) -> Polynomial:
    """c1, the coefficient of t in det(1 + t DX) / det(1 + t C).

    Each determinant is 1 + t trace + O(t^2), so c1 = trace(DX) - trace(C).
    Only c1 enters the index formulas, which apply to curves alone.
    """
    zero = Polynomial.zero(DX.entries[0].nvars)
    return (sum((DX.entry(i, i) for i in range(DX.rows)), zero)
            - sum((C.entry(i, i) for i in range(C.rows)), zero))


def _require_curve(problem: Problem):
    n, q = problem.nvars, problem.ncurve_eqs
    if q != n - 1:
        raise ShapeError(
            f"index formulas apply to curves only (need q = n-1, got q={q}, "
            f"n={n}); they are known to fail for deeper complete intersections"
        )
    if any(fi.constant_term != 0 for fi in problem.f):
        raise ShapeError(
            "the curve does not pass through the origin: some f_i(0) != 0"
        )


def _check_tangency(f, X, C: PolyMatrix):
    ok, residuals = verify_tangency(f, X, C)
    if not ok:
        raise TangencyError(residuals)


def _jacobian_minor(problem: Problem) -> Polynomial:
    """DF, the minor of the Jacobian of f on the trailing n-1 columns."""
    n, q = problem.nvars, problem.ncurve_eqs
    return minor_det(jacobian(list(problem.f), n), range(q), range(1, n))


def _c0_algebra(norm: CoordinateNormalization) -> QuotientAlgebra:
    """C0 = B0 / ann(DF) for the normalized problem."""
    return annihilator_quotient(norm.algebra, _jacobian_minor(norm.problem))


def _c0_dimension(norm: CoordinateNormalization) -> int:
    """dim C0 = dim B0 - dim O/(f, X_1, DF), by rank-nullity for the map
    B0 -> B0 of multiplication by DF; its default degree cap is at least
    that of (f, X_1). No C0 is built."""
    P = norm.problem
    return norm.algebra.dim - quotient_dimension(
        list(P.f) + [P.X[0], _jacobian_minor(P)])


def _pairing_signature(algebra, element: Polynomial, seed) -> SignatureResult:
    """Signature of (a, b) -> l(ab) for a functional l positive on element.

    The zero algebra has signature 0; a zero class of element raises
    C1ClassZeroError (from choose_linear_form).
    """
    if algebra.dim == 0:
        return SignatureResult(p_plus=0, p_minus=0, rank=0)
    l, _ = choose_linear_form(algebra, element, seed=seed)
    return _witt_signature(algebra.scaled_gram_matrix(l),
                           [sum(m) for m in algebra.basis])


def _gsv_index(problem: Problem, real: bool, seed) -> IndexReport:
    """The GSV pipeline; the field decides only how the index is read off C0.

    seed drives the normalization search (None means 0) and, for the real
    index, the choice of functional (None means the default policy).
    """
    _require_curve(problem)
    _check_tangency(problem.f, problem.X, problem.C)
    norm = ensure_regular_sequence(problem,
                                   seed=seed if seed is not None else 0)
    B0, P = norm.algebra, norm.problem
    C0 = _c0_algebra(norm) if real else None  # the functional needs C0
    dim_C0 = C0.dim if real else _c0_dimension(norm)
    c1 = c_coefficient(jacobian(list(P.X), P.nvars), P.C)
    sig = _pairing_signature(C0, c1, seed) if real else None
    return IndexReport(
        dim_B0=B0.dim,
        dim_B0_mod_DF=B0.dim - dim_C0,
        dim_C0=dim_C0,
        index=sig.signature if real else dim_C0,
        signature=sig,
        c1=c1,
        normalization=norm,
    )


def complex_gsv_index(problem: Problem, seed: int = 0) -> IndexReport:
    """Complex index = dim C0 = dim B0 - dim O/(f, X_1, DF); no C0 is built."""
    return _gsv_index(problem, False, seed)


def real_gsv_index(problem: Problem, seed: "int | None" = None) -> IndexReport:
    """Real index = signature of the pairing on C0 induced by an admissible l."""
    return _gsv_index(problem, True, seed)


def _map_report(g, real: bool, seed) -> IndexReport:
    """The index of the square map germ g, read off its local algebra Q.

    The complex (Poincare-Hopf) index is dim Q, by one standard basis and no
    algebra; the real (Eisenbud-Levine) index is the signature of the
    pairing on Q positive on det Dg, with seed as for real_gsv_index. Q is
    zero where g does not vanish, with index 0. det Dg spans the socle of a
    nonzero Q (Eisenbud-Levine), so a zero class of it is C1ClassZeroError.
    """
    g = list(g)
    n = len(g)
    if not g or g[0].nvars != n:
        raise ShapeError(f"map has {n} components"
                         + (f" for {g[0].nvars} variables" if g else ""))
    try:
        Q = build_algebra(g) if real else None
        dim = Q.dim if real else quotient_dimension(g)
    except InfiniteDimensionError:
        raise InfiniteDimensionError(
            "the zero of the map is not isolated") from None
    sig = None
    if real:
        Jg = minor_det(jacobian(g, n), range(n), range(n))
        sig = _pairing_signature(Q, Jg, seed)
    return IndexReport(dim_B0=dim, dim_B0_mod_DF=None, dim_C0=None,
                       index=sig.signature if real else dim, signature=sig,
                       c1=None, normalization=None)


def poincare_hopf_complex(g) -> int:
    """dim of the local quotient by the map components."""
    return _map_report(g, False, None).index


def eisenbud_levine_index(g, seed: "int | None" = None):
    """Signature index of a finite real map germ; returns (index, SignatureResult)."""
    rep = _map_report(g, True, seed)
    return rep.index, rep.signature


def is_good_sufficient(f, C: PolyMatrix) -> GoodnessResult:
    """Sufficient deformability criterion: C entries in the minor ideal.

    Enumerates the maximal minors of the Jacobian of f and tests localized
    membership of every entry of C. All memberships succeeding yields
    "satisfied" with retained witnesses; anything else yields "unknown"
    (the criterion is one-sided).
    """
    f = list(f)
    n = f[0].nvars
    q = len(f)
    Df = jacobian(f, n)
    columns = tuple(combinations(range(n), q))
    minors = tuple(
        minor_det(Df, list(range(q)), list(cols)) for cols in columns
    )
    sb = localstd.standard_basis(minors)  # one basis serves every entry
    witnesses = {}
    for lrow in range(C.rows):
        for m in range(C.cols):
            ok, witness = localstd.ideal_membership(C.entry(lrow, m), sb)
            if not ok:
                return GoodnessResult(status="unknown")
            witnesses[(lrow, m)] = witness
    return GoodnessResult(
        status="satisfied",
        minor_columns=columns,
        minors=minors,
        witnesses=witnesses,
    )


def _deformation_names(var_names, q):
    names = list(var_names)
    tnames = []
    for m in range(q):
        base = "t" if q == 1 else f"t{m + 1}"
        while base in names or base in tnames:
            base = "t" + base
        tnames.append(base)
    return tuple(tnames)


def construct_good_deformation(f, X, C: PolyMatrix, goodness: GoodnessResult,
                               var_names=None):
    """Deformation X_t with X_t(f - t) = C(f - t), from criterion witnesses.

    Built in adjugate form: for a column set I and row l, the vector
    supported on columns I whose I-part is adj(Df|_I) e_l satisfies
    Df . v = f_I e_l; the witness decompositions of the C entries then
    assemble the t-linear correction. A witness reads u c = sum a_I f_I
    with u(0) != 0; for U the product of the distinct u / u(0), the
    correction is assembled from (U / u) a_I, so that Df . (U X - sum t_m
    v_m) = U C(f - t): X_t is the components over the unit U, and U = 1
    when every witness denominator is constant. The defining identity is
    verified symbolically before anything is returned.

    Returns (components, names, U), the components in the extended ring
    with q extra deformation variables appended after the original ones.
    """
    f = list(f)
    X = list(X)
    n = f[0].nvars
    q = len(f)
    if goodness.status != "satisfied":
        raise VerificationError(
            "deformation construction needs a satisfied goodness criterion"
        )
    if var_names is None:
        var_names = default_names(n)
    tnames = _deformation_names(var_names, q)
    N = n + q
    lift = lambda p: p.extend(N)
    tvar = [Polynomial.variable(N, n + m) for m in range(q)]

    Df = jacobian(f, n)
    units = []  # the distinct non-constant denominators, each 1 at 0
    for witness in goodness.witnesses.values():
        den = witness.denominator
        u = den.scale(quotient(1, den.constant_term))
        if not u.is_constant() and u not in units:
            units.append(u)
    U = Polynomial.one(n)
    for u in units:
        U = U * u
    # correction[m][i]: coefficient of t_m subtracted from U X_i
    correction = [[Polynomial.zero(n) for _ in range(n)] for _ in range(q)]
    if goodness.witnesses:
        adjugates = {}
        for cols in goodness.minor_columns:
            adj = [[None] * q for _ in range(q)]
            for jrow in range(q):
                for lcol in range(q):
                    rows_sel = [r for r in range(q) if r != lcol]
                    cols_sel = [c for i, c in enumerate(cols) if i != jrow]
                    cof = minor_det(Df, rows_sel, cols_sel)
                    adj[jrow][lcol] = cof if (jrow + lcol) % 2 == 0 else -cof
            adjugates[cols] = adj
        for (lrow, m), witness in goodness.witnesses.items():
            den = witness.denominator
            scale = quotient(1, den.constant_term)
            # U / u is the product of the other units over u(0)
            others = [w for w in units if w != den.scale(scale)]
            for cols, coeff in zip(goodness.minor_columns, witness.coefficients):
                if coeff.is_zero:
                    continue
                coeff = coeff.scale(scale)
                for w in others:
                    coeff = coeff * w
                adj = adjugates[cols]
                for jpos, col in enumerate(cols):
                    piece = coeff * adj[jpos][lrow]
                    correction[m][col] = correction[m][col] + piece
    components = []
    for i in range(n):
        comp = lift(U * X[i])
        for m in range(q):
            if not correction[m][i].is_zero:
                comp = comp - tvar[m] * lift(correction[m][i])
        components.append(comp)
    # mandatory symbolic post-check: X_t (f - t) = U C (f - t)
    ok, _ = verify_tangency(
        [lift(fm) - tm for fm, tm in zip(f, tvar)],
        components + [Polynomial.zero(N)] * q,
        PolyMatrix(q, q, [lift(U * c) for c in C.entries]),
    )
    if not ok:
        raise VerificationError(
            "constructed deformation failed the symbolic tangency identity"
        )
    return tuple(components), tuple(var_names) + tnames, U

