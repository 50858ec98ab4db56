"""Finite-dimensional local quotient algebras as exact linear algebra.

A FiniteAlgebra is the localized quotient by a zero-dimensional ideal,
carried by its staircase monomial basis b_1 = 1, ..., b_d and by its n
variable multiplication matrices M_k: column i of M_k holds the coordinates
of x_k * b_i, a unit vector whenever x_k * b_i is itself a staircase
monomial. Coordinates come from the ideal's local standard basis by
division truncated above the staircase's top degree
(localstd.CanonicalQuotient); the unit ideal gives the zero algebra.

The staircase is an order ideal, so every basis monomial other than 1 is
x_k times an earlier one, and anything indexed by the basis follows from
its value at 1 by the staircase recurrence. The matrix of multiplication by
g has columns coords(g * b_i), with coords(g * x_k * b_a) = M_k coords(g *
b_a); the Gram rows w_a[b] = l(b_a * b_b) of a functional l satisfy
w_{a+e_k} = w_a M_k. Neither needs the d x d x d multiplication table,
so no algebra builds one.

A QuotientAlgebra, such as C0 = B0 / ann(DF), is the quotient by the
annihilator of a fixed element, and a FiniteAlgebra on its own staircase:
the parent staircase monomials that are not RREF pivots of the annihilator.
They form an order ideal (Greuel-Pfister, A Singular Introduction to
Commutative Algebra, 1.6-1.7). The parent basis descends in the local
order, so a pivot is the largest monomial of its kernel vector; x_k times
that vector stays in the kernel and, as local division only produces
smaller monomials, has largest monomial x_k times the pivot whenever that
is a staircase monomial. So the pivots are closed under multiplication by
the variables, and the complement under division. Its M_k are the
parent's columns, projected.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import _linalg, localstd
from .errors import InfiniteDimensionError
from .poly import Polynomial
from .localstd import LocalOrder, Staircase, StandardBasis


class FiniteAlgebra:
    """Local quotient algebra with staircase basis b_1 = 1, b_2, ..., b_d."""

    def __init__(self, sb: StandardBasis, stairs: Staircase, canonical):
        self.sb = sb
        self.staircase = stairs
        self._canon = canonical
        self._set_up(stairs.basis_monomials, sb.basis[0].nvars)

    def _set_up(self, basis, nvars):
        """The core on an order ideal of monomials in descending local order."""
        self.basis = basis
        self.dim = len(basis)
        self.nvars = nvars
        self._index = index = {m: i for i, m in enumerate(basis)}
        # b_i = x_k * b_a with a < i, for each i >= 1; the lookup raises
        # KeyError if the basis were not an order ideal
        steps = []
        for m in basis[1:]:
            k = next(t for t, e in enumerate(m) if e)
            steps.append((k, index[self._shift(m, k, -1)]))
        self._steps = tuple(steps)

    @cached_property
    def var_matrices(self):
        """var_matrices[k][i], column i of M_k: the index j when x_k * b_i is
        the basis monomial b_j, otherwise the sparse coordinates
        ((row, coeff), ...) of x_k * b_i. Built on first read: a complex
        index builds no C0 and never reads these of B0."""
        return tuple(tuple(self._column(k, i) for i in range(self.dim))
                     for k in range(self.nvars))

    @staticmethod
    def _shift(m, k, by=1):
        return m[:k] + (m[k] + by,) + m[k + 1:]

    def _column(self, k, i):
        m = self._shift(self.basis[i], k)
        if m in self._index:
            return self._index[m]
        return tuple((r, c) for r, c in enumerate(self._shift_coords(k, i))
                     if c)

    def _shift_coords(self, k, i):
        """Coordinates of x_k * b_i when that is not a basis monomial."""
        m = self._shift(self.basis[i], k)
        return self._canon.coordinates(Polynomial.term(self.nvars, m, 1))

    def _walk(self, start, step):
        """[v_1, ..., v_d] with v_1 = start and v_i = step(v_a, k) for b_i = x_k b_a."""
        if not self.dim:
            return []
        out = [start]
        for k, a in self._steps:
            out.append(step(out[a], k))
        return out

    def _times_variable(self, v, k):
        """M_k v: coordinates of x_k times the element with coordinates v."""
        out = [Fraction(0)] * self.dim
        for vb, col in zip(v, self.var_matrices[k]):
            if not vb:
                continue
            if type(col) is int:
                out[col] += vb
            else:
                for r, c in col:
                    out[r] += vb * c
        return out

    def _row_times_variable(self, w, k):
        """w M_k: the functional b -> w(x_k * b)."""
        return [w[col] if type(col) is int
                else sum((w[r] * c for r, c in col), Fraction(0))
                for col in self.var_matrices[k]]

    def coords(self, p: Polynomial):
        """Coordinates of the class of p in the staircase basis."""
        return list(self._canon.coordinates(p))

    def from_coords(self, coords) -> Polynomial:
        out = Polynomial.zero(self.nvars)
        for c, m in zip(coords, self.basis):
            if c:
                out = out + Polynomial.term(self.nvars, m, c)
        return out

    def product_columns(self, g: Polynomial):
        """[coords(g * b_1), ..., coords(g * b_d)] by the staircase recurrence."""
        return self._walk(self.coords(g), self._times_variable)

    def mult_matrix(self, g: Polynomial):
        """Matrix of the map [h] -> [g*h] (columns = images of the basis)."""
        cols = self.product_columns(g)
        return [[col[i] for col in cols] for i in range(self.dim)]

    def gram_rows(self, l):
        """Rows w_a[b] = l(b_a * b_b) of the pairing induced by the functional l."""
        return self._walk(list(l), self._row_times_variable)

    def gram_matrix(self, l):
        return tuple(tuple(row) for row in self.gram_rows(l))


def build_algebra(gens, order: "LocalOrder | None" = None,
                  degree_cap: "int | None" = None) -> FiniteAlgebra:
    """Quotient algebra by (gens), with its variable multiplication matrices."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise InfiniteDimensionError("zero ideal has an infinite quotient")
    sb = localstd.standard_basis(gens, order, degree_cap, certify=False)
    stairs, canonical = sb.quotient
    if canonical is None:
        raise InfiniteDimensionError(
            "quotient is not finite dimensional: some variable has no pure "
            "power in the leading ideal"
        )
    return FiniteAlgebra(sb, stairs, canonical)


def mult_matrix(algebra, g: Polynomial):
    """Matrix of the map [h] -> [g*h] in the algebra's basis (columns = images)."""
    return algebra.mult_matrix(g)


class QuotientAlgebra(FiniteAlgebra):
    """parent / ann_parent(g), in deterministic complement coordinates.

    The complement basis is the set of staircase coordinates that are not
    pivotal in the reduced row echelon form of the annihilator, so reports
    and tests see reproducible coset representatives.
    """

    def __init__(self, parent: FiniteAlgebra, g: Polynomial):
        self.parent = parent
        self.element = g
        M = parent.mult_matrix(g)
        kernel = _linalg.nullspace(M, ncols=parent.dim)
        rows, pivots = _linalg.rref(kernel)
        self.kernel_basis = [tuple(r) for r in rows]
        pivot_set = set(pivots)
        self.complement_indices = tuple(
            i for i in range(parent.dim) if i not in pivot_set
        )
        # projection parent coords -> complement coords (kills the kernel)
        proj = []
        for cj in self.complement_indices:
            row = [Fraction(0)] * parent.dim
            row[cj] = Fraction(1)
            for krow, p in zip(self.kernel_basis, pivots):
                row[p] -= krow[cj]
            proj.append(row)
        self.projection = proj
        # column r of the projection, sparse: the class of parent basis b_r
        self._projected_units = [
            [(j, row[r]) for j, row in enumerate(proj) if row[r]]
            for r in range(parent.dim)
        ]
        self._set_up(tuple(parent.basis[c] for c in self.complement_indices),
                     parent.nvars)

    def _shift_coords(self, k, i):
        """The projection of the parent's column for x_k * b_i."""
        col = self.parent.var_matrices[k][self.complement_indices[i]]
        out = [Fraction(0)] * self.dim
        for r, c in ((col, 1),) if type(col) is int else col:
            for j, v in self._projected_units[r]:
                out[j] += c * v
        return out

    def project(self, parent_coords):
        return _linalg.mat_vec(self.projection, list(parent_coords))

    def coords(self, p: Polynomial):
        return self.project(self.parent.coords(p))


def annihilator_quotient(A: FiniteAlgebra, g: Polynomial) -> QuotientAlgebra:
    """A / ann_A(g), computed as the kernel of multiplication by g."""
    return QuotientAlgebra(A, g)


def socle(algebra):
    """Basis of {a : a * m = 0 for every m in the maximal ideal}.

    Accepts any FiniteAlgebra, annihilator quotients included; returns RREF
    coordinate vectors of the intersection of the kernels of multiplication
    by each variable class.
    """
    if algebra.dim == 0:
        return []
    nvars = algebra.nvars
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
