"""Finite-dimensional local quotient algebras as exact linear algebra.

A FiniteAlgebra is the localized quotient by a zero-dimensional ideal,
carried by its staircase monomial basis and a full multiplication table.
Coordinates in that basis come from the ideal's local standard basis by
division truncated above the staircase's top degree
(localstd.CanonicalQuotient); the unit ideal gives the zero algebra.
A QuotientAlgebra is the further quotient by the annihilator of a fixed
element, with deterministic coset representatives.
"""

from __future__ import annotations

from fractions import Fraction

from . import _linalg, localstd
from .errors import InfiniteDimensionError
from .poly import Polynomial
from .localstd import LocalOrder, Staircase, StandardBasis


class FiniteAlgebra:
    """Local quotient algebra with staircase basis b_1 = 1, b_2, ..., b_d."""

    def __init__(self, sb: StandardBasis, stairs: Staircase, canonical):
        self.sb = sb
        self.staircase = stairs
        self.basis = stairs.basis_monomials  # descending local order, 1 first
        self.dim = len(self.basis)
        self.nvars = sb.basis[0].nvars
        self._canon = canonical
        d = self.dim
        self.mult_table = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1):
                prod = Polynomial.term(
                    self.nvars,
                    tuple(a + b for a, b in zip(self.basis[i], self.basis[j])),
                    1,
                )
                vec = tuple(self._canon.coordinates(prod))
                self.mult_table[i][j] = vec
                self.mult_table[j][i] = vec

    def coords(self, p: Polynomial):
        """Coordinates of the class of p in the staircase basis."""
        return list(self._canon.coordinates(p))

    def from_coords(self, coords) -> Polynomial:
        out = Polynomial.zero(self.nvars)
        for c, m in zip(coords, self.basis):
            if c:
                out = out + Polynomial.term(self.nvars, m, c)
        return out

    def multiply_coords(self, u, v):
        """Product of two coordinate vectors via the multiplication table."""
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                if not v[j]:
                    continue
                f = u[i] * v[j]
                row = self.mult_table[i][j]
                for k in range(d):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def variable_classes(self):
        return [
            self.coords(Polynomial.variable(self.nvars, i))
            for i in range(self.nvars)
        ]


def build_algebra(gens, order: "LocalOrder | None" = None,
                  degree_cap: int = localstd.DEFAULT_DEGREE_CAP) -> FiniteAlgebra:
    """Quotient algebra by (gens), with its full multiplication table."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise InfiniteDimensionError("zero ideal has an infinite quotient")
    sb = localstd.standard_basis(gens, order, degree_cap)
    stairs = localstd.staircase(sb)
    if not stairs.finite:
        raise InfiniteDimensionError(
            "quotient is not finite dimensional: some variable has no pure "
            "power in the leading ideal"
        )
    return FiniteAlgebra(sb, stairs, localstd.CanonicalQuotient(sb, stairs))


def mult_matrix(algebra, g: Polynomial):
    """Matrix of the map [h] -> [g*h] in the algebra's basis (columns = images)."""
    return algebra.mult_matrix(g) if isinstance(algebra, QuotientAlgebra) \
        else _mult_matrix_finite(algebra, g)


def _mult_matrix_finite(A: FiniteAlgebra, g: Polynomial):
    d = A.dim
    gc = A.coords(g)
    cols = []
    for j in range(d):
        e = [Fraction(0)] * d
        e[j] = Fraction(1)
        cols.append(A.multiply_coords(gc, e))
    return [[cols[j][i] for j in range(d)] for i in range(d)]


class QuotientAlgebra:
    """parent / ann_parent(g), in deterministic complement coordinates.

    The complement basis is the set of staircase coordinates that are not
    pivotal in the reduced row echelon form of the annihilator, so reports
    and tests see reproducible coset representatives.
    """

    def __init__(self, parent: FiniteAlgebra, g: Polynomial):
        self.parent = parent
        self.element = g
        M = _mult_matrix_finite(parent, g)
        kernel = _linalg.nullspace(M, ncols=parent.dim)
        rows, pivots = _linalg.rref(kernel)
        self.kernel_basis = [tuple(r) for r in rows]
        pivot_set = set(pivots)
        self.complement_indices = tuple(
            i for i in range(parent.dim) if i not in pivot_set
        )
        self.dim = len(self.complement_indices)
        self._pivots = tuple(pivots)
        # projection parent coords -> complement coords (kills the kernel)
        proj = []
        for j, cj in enumerate(self.complement_indices):
            row = [Fraction(0)] * parent.dim
            row[cj] = Fraction(1)
            for krow, p in zip(self.kernel_basis, pivots):
                row[p] -= krow[cj]
            proj.append(row)
        self.projection = proj
        d = self.dim
        self.mult_table = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1):
                vec = tuple(
                    self.project(
                        parent.mult_table[self.complement_indices[i]][
                            self.complement_indices[j]
                        ]
                    )
                )
                self.mult_table[i][j] = vec
                self.mult_table[j][i] = vec

    def project(self, parent_coords):
        return _linalg.mat_vec(self.projection, list(parent_coords))

    def coords(self, p: Polynomial):
        return self.project(self.parent.coords(p))

    def representative(self, coords) -> Polynomial:
        """A polynomial whose class has the given quotient coordinates."""
        out = Polynomial.zero(self.parent.nvars)
        for c, idx in zip(coords, self.complement_indices):
            if c:
                out = out + Polynomial.term(
                    self.parent.nvars, self.parent.basis[idx], c
                )
        return out

    def multiply_coords(self, u, v):
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                if not v[j]:
                    continue
                f = u[i] * v[j]
                row = self.mult_table[i][j]
                for k in range(d):
                    if row[k]:
                        out[k] += f * row[k]
        return out

    def mult_matrix(self, g: Polynomial):
        gc = self.coords(g)
        d = self.dim
        cols = []
        for j in range(d):
            e = [Fraction(0)] * d
            e[j] = Fraction(1)
            cols.append(self.multiply_coords(gc, e))
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def variable_classes(self):
        return [
            self.coords(Polynomial.variable(self.parent.nvars, i))
            for i in range(self.parent.nvars)
        ]


def annihilator_quotient(A: FiniteAlgebra, g: Polynomial) -> QuotientAlgebra:
    """A / ann_A(g), computed as the kernel of multiplication by g."""
    return QuotientAlgebra(A, g)


def socle(algebra):
    """Basis of {a : a * m = 0 for every m in the maximal ideal}.

    Accepts a FiniteAlgebra or a QuotientAlgebra; returns RREF coordinate
    vectors of the intersection of the kernels of multiplication by each
    variable class.
    """
    if algebra.dim == 0:
        return []
    nvars = algebra.nvars if isinstance(algebra, FiniteAlgebra) \
        else algebra.parent.nvars
    stacked = []
    for i in range(nvars):
        v = Polynomial.variable(nvars, i)
        stacked.extend(mult_matrix(algebra, v))
    kernel = _linalg.nullspace(stacked, ncols=algebra.dim)
    rows, _ = _linalg.rref(kernel)
    return [tuple(r) for r in rows]


def solve_multiplication(algebra, g: Polynomial, v: Polynomial):
    """One coordinate solution h of g*h = v in the algebra, or None."""
    M = mult_matrix(algebra, g)
    target = algebra.coords(v)
    if algebra.dim == 0:
        return []
    return _linalg.solve(M, target)
