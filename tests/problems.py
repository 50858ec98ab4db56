"""Shared problem builders for the test suite."""

from math import comb
from pathlib import Path

from gsvindex import (
    Polynomial,
    PolyMatrix,
    Problem,
    linear_substitute,
    transform_vector_field,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

X2 = Polynomial.variable(2, 0)
Y2 = Polynomial.variable(2, 1)


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
