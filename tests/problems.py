"""Shared problem builders for the test suite, and the paper's identities
as oracles on the public API.

The Fraction references for socles and division in a finite algebra, and
Gomez-Mont's signature-difference formula built on them, live here too: no
code path of the package needs them, and the tests cross-check the real
index against them. So does normal_form, the staircase representative of a
class as a Polynomial, which the coordinate tests read.
"""

import random
from fractions import Fraction
from math import comb
from pathlib import Path

from gsvindex import (
    Polynomial,
    PolyMatrix,
    Problem,
    annihilator_quotient,
    build_algebra,
    c_coefficient,
    choose_linear_form,
    complex_gsv_index,
    ideal_membership,
    jacobian,
    linear_substitute,
    minor_det,
    signature_of,
    staircase,
    standard_basis,
    transform_vector_field,
    verify_tangency,
)
from gsvindex import _linalg
from gsvindex.index import random_unimodular
from gsvindex.localstd import CanonicalQuotient

from reference_linalg import _ref_nullspace, _ref_rref, _ref_solve

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

X2 = Polynomial.variable(2, 0)
Y2 = Polynomial.variable(2, 1)


def normal_form(sb):
    """The normal form modulo the ideal of the standard basis sb, as a
    function p -> the staircase representative of the class of p, a
    Polynomial: the coordinates of one CanonicalQuotient, built here once,
    on the staircase monomials. Raises InfiniteDimensionError when the
    quotient is infinite."""
    stairs = staircase(sb)
    canonical = CanonicalQuotient(sb, stairs)

    def reduce(p):
        ints, den = canonical.integer_coordinates(p)
        return Polynomial(p.nvars, {m: Fraction(c, den) for m, c
                                    in zip(stairs.basis_monomials, ints)})
    return reduce


def dk_problem(k, m, field="complex"):
    """Plane D-type family: f = x^2 y + y^(k-1), X = ((k-2) x^(m+1), 2 x^m y)."""
    f = X2 * X2 * Y2 + Y2 ** (k - 1)
    X = ((k - 2) * X2 ** (m + 1), 2 * (X2 ** m) * Y2)
    C = PolyMatrix(1, 1, [2 * (k - 1) * X2 ** m])
    return Problem(vars=("x", "y"), f=(f,), X=X, C=C, field=field)


def substitute_problem(problem, A):
    """problem in the coordinates y of the change z = A y."""
    C = problem.C
    entries = [linear_substitute(e, A) for e in C.entries]
    return Problem(
        vars=problem.vars,
        f=tuple(linear_substitute(p, A) for p in problem.f),
        X=tuple(transform_vector_field(problem.X, A)),
        C=PolyMatrix(C.rows, C.cols, entries),
        field=problem.field,
    )


def zk_map(k):
    """(Re z^k, Im z^k) for z = x + i y: local degree k, multiplicity k^2."""
    re, im = Polynomial.zero(2), Polynomial.zero(2)
    for j in range(k + 1):
        term = comb(k, j) * X2 ** (k - j) * Y2 ** j  # times i^j
        if j % 2:
            im = im + (term if j % 4 == 1 else -term)
        else:
            re = re + (term if j % 4 == 0 else -term)
    return [re, im]


# square maps in x, y, z with their Poincare-Hopf and Eisenbud-Levine
# indices. Each is a product of germs in fewer variables, whose indices
# multiply: t^a has indices a and a mod 2, and (x^2 - y^2, 2xy), the real
# and imaginary parts of (x + iy)^2, has 4 and 2. The second map is the
# first composed with a linear change of determinant 1.
THREE_VARIABLE_MAPS = [
    ("x^3; y^5; z^3", 45, 1),
    ("(x + y)^3; (y + z)^5; z^3", 45, 1),
    ("x^2 - y^2; 2*x*y; z", 4, 2),
    ("x^3; y; z^2", 6, 0),
]


def hyperbola_problem():
    f = X2 * X2 - Y2 * Y2
    return Problem(
        vars=("x", "y"),
        f=(f,),
        X=(X2 * X2, X2 * Y2),
        C=PolyMatrix(1, 1, [2 * X2]),
        field="real",
    )


def space_curve_problem(l=1):
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    w = (z ** l) * (x - y)
    zero = Polynomial.zero(3)
    return Problem(
        vars=("x", "y", "z"),
        f=(x * x + y * y + z * z, x * y),
        X=(w * x, w * y, w * z),
        C=PolyMatrix(2, 2, [2 * w, zero, zero, 2 * w]),
        field="complex",
    )


def smooth_line_problem(field="complex", multiplicity=1):
    zero = Polynomial.zero(2)
    return Problem(
        vars=("x", "y"),
        f=(Y2,),
        X=(X2 ** multiplicity, zero),
        C=PolyMatrix(1, 1, [zero]),
        field=field,
    )


def gm_family(k, l):
    """Plane fields with ambient isolated zero: (f, X, c) with Xf = c f."""
    f = X2 * X2 + Y2 ** (k + 1)
    f1, f2 = f.diff(0), f.diff(1)
    gamma = Y2
    d1 = Polynomial.constant(2, -(k + 1))
    d2 = Y2 ** l
    X = (gamma * f2 + d1 * f, -gamma * f1 + d2 * f)
    c = d1 * f1 + d2 * f2
    return f, X, c


def cusp_instance():
    """f = x^2 - y^3 with the rotated-gradient tangent field."""
    f = X2 * X2 - Y2 ** 3
    f1, f2 = f.diff(0), f.diff(1)
    X = (Y2 * f2 + f, -Y2 * f1 + f)
    c = f1 + f2
    return f, X, c


def as_problem(f, X, c, field="real"):
    return Problem(
        vars=("x", "y"), f=(f,), X=tuple(X), C=PolyMatrix(1, 1, [c]), field=field
    )


def cramer_identity_check(problem):
    """(-1)^i m_i X_1 + DF X_i = 0 modulo (f_1, ..., f_{n-1}) for every i.

    m_i is the maximal minor of Df without column i, and DF = m_1.
    """
    n, f = problem.nvars, list(problem.f)
    assert verify_tangency(f, problem.X, problem.C)[0]
    Df = jacobian(f, n)
    rows = range(len(f))
    DF = minor_det(Df, rows, range(1, n))
    for i in range(1, n + 1):
        mi = minor_det(Df, rows, [c for c in range(n) if c != i - 1])
        residual = mi.scale((-1) ** i) * problem.X[0] + DF * problem.X[i - 1]
        if not residual.is_zero and not ideal_membership(
                residual, standard_basis(f))[0]:
            return False
    return True


def gm_identity_check(f, X, c):
    """Positive rational r with r (c c1) = det DX in the local algebra of the
    plane field X, or None (Gomez-Mont's comparison for Xf = cf)."""
    C = PolyMatrix(1, 1, [c])
    assert verify_tangency([f], X, C)[0]
    B = build_algebra(X)
    DX = jacobian(list(X), 2)
    lhs = B.coords(c * c_coefficient(DX, C))
    rhs = B.coords(minor_det(DX, [0, 1], [0, 1]))
    k = next((i for i, v in enumerate(lhs) if v != 0), None)
    if k is None:
        return None
    r = rhs[k] / lhs[k]
    if r <= 0 or any(r * a != b for a, b in zip(lhs, rhs)):
        return None
    return r


def coordinate_invariance_check(problem, seed=0, trials=5):
    """The complex index is unchanged by `trials` seeded unimodular changes
    of f, X and C."""
    base = complex_gsv_index(problem, seed=seed).index
    rng = random.Random(seed)
    return all(
        complex_gsv_index(substitute_problem(
            problem, random_unimodular(problem.nvars, rng))).index == base
        for _ in range(trials))


def product_columns(A, g):
    """[coords(g * b_1), ..., coords(g * b_d)] from the integer walk, as
    Fractions."""
    return [_linalg.fractions(*col) for col in A._product_columns(g)]


def mult_matrix(A, g):
    """The matrix of [h] -> [g*h]: its columns are the images of the basis."""
    return [list(row) for row in zip(*product_columns(A, g))]


def socle(A):
    """The socle {a : a m = 0 for every m in the maximal ideal} of A as RREF
    coordinate rows, by the Fraction route: the stacked mult_matrix of each
    variable, its nullspace and that nullspace's RREF."""
    if A.dim == 0:
        return []
    stacked = []
    for k in range(A.nvars):
        stacked.extend(mult_matrix(A, Polynomial.variable(A.nvars, k)))
    rows, _ = _ref_rref(_ref_nullspace(stacked, ncols=A.dim))
    return [tuple(r) for r in rows]


def solve_multiplication(A, g, v):
    """One coordinate solution h of g h = v in A, its free coordinates 0, or
    None, by the Fraction route: mult_matrix and coords."""
    if A.dim == 0:
        return []
    return _ref_solve(mult_matrix(A, g), A.coords(v))


def gm_signature_index(f, X, c, seed=None):
    """Gomez-Mont's signature-difference formula for a plane field X with an
    ambient isolated zero and Xf = cf (J. Algebraic Geom. 7, 1998).

    For A = O/(f_x, f_y) with target hess f, and B = O/(X) with target
    det DX, each side is the signature of the pairing on A/ann(c) (B/ann(c))
    positive on the class of target/c, solved in A (B); a trivial quotient
    gives 0. The index is the B side minus the A side, and the A side must
    vanish when c lies in the gradient ideal.
    """
    X = list(X)
    assert verify_tangency([f], X, PolyMatrix(1, 1, [c]))[0]
    partials = [f.diff(0), f.diff(1)]
    sides = []
    for gens in (partials, X):
        parent = build_algebra(gens)
        rel = annihilator_quotient(parent, c)
        if rel.dim == 0:
            sides.append(0)
            continue
        target = minor_det(jacobian(gens, 2), [0, 1], [0, 1])
        h = solve_multiplication(parent, c, target)
        assert h is not None, "the target is not a multiple of c"
        l, _ = choose_linear_form(rel, Polynomial(2, dict(zip(parent.basis, h))),
                                  seed=seed)
        sides.append(signature_of(rel.scaled_gram_matrix(l)).signature)
    if ideal_membership(c, standard_basis(partials))[0]:
        assert sides[0] == 0, "c is in the gradient ideal, its side is not 0"
    return sides[1] - sides[0]


def hamiltonian_multiple(f, h, field="complex"):
    """X = h X_f on the curve f = (f_1, ..., f_{n-1}), with C = 0.

    X_f(u) = det D(f_1, ..., f_{n-1}, u): (-f_y, f_x) in the plane, the
    cross product of the gradients in space. It kills every f_i, so X_f is
    tangent to every fiber, and the complex and real GSV indices of h X_f
    are those of the map (f, h): dim O/(f, h) and its Eisenbud-Levine
    index.
    """
    n, q = h.nvars, len(f)
    Df = jacobian(list(f), n)
    X = tuple(h * minor_det(Df, range(q), [c for c in range(n) if c != i])
              .scale((-1) ** (q + i)) for i in range(n))
    return Problem(vars=("x", "y", "z")[:n], f=tuple(f), X=X,
                   C=PolyMatrix(q, q, [Polynomial.zero(n)] * (q * q)),
                   field=field)
