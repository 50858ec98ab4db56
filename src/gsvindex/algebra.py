"""Finite-dimensional local quotient algebras as exact linear algebra.

A FiniteAlgebra is the localized quotient by a zero-dimensional ideal,
carried by its staircase monomial basis b_1 = 1, ..., b_d and by its n
variable multiplication matrices M_k: column i of M_k holds the coordinates
of x_k * b_i, a unit vector whenever x_k * b_i is itself a staircase
monomial. Coordinates come from the ideal's local standard basis by
division truncated above the staircase's top degree
(localstd.CanonicalQuotient); the unit ideal gives the zero algebra.
Only the border columns of one hub variable's M_h, and those that x_h
cannot reach, are divided; M_h gives the rest, as in FGLM (Faugere,
Gianni, Lazard, Mora, J. Symb. Comput. 16, 1993).

The staircase is an order ideal, so every basis monomial other than 1 is
x_k times an earlier one, and anything indexed by the basis follows from
its value at 1 by the staircase recurrence. The matrix of multiplication by
g has columns coords(g * b_i), with coords(g * x_k * b_a) = M_k coords(g *
b_a); the Gram rows w_a[b] = l(b_a * b_b) of a functional l satisfy
w_{a+e_k} = w_a M_k. Neither needs the d x d x d multiplication table,
so no algebra builds one.

A QuotientAlgebra, such as C0 = B0 / ann(DF), is the quotient by the
annihilator of a fixed element, and a FiniteAlgebra on its own staircase:
the parent staircase monomials that are not RREF pivots of the annihilator,
read off the column relations of the multiplication matrix
(_linalg.column_relations, QuotientAlgebra). They form an order ideal
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.6-1.7).
The parent basis descends in the local order, so a pivot is the largest
monomial of its kernel vector; x_k times that vector stays in the kernel
and, as local division only produces smaller monomials, has largest
monomial x_k times the pivot whenever that is a staircase monomial. So the
pivots are closed under multiplication by the variables, and the
complement under division. Its M_k follow the same recurrence, with the
parent's columns, projected, in place of the divisions.

Every vector here is integer numerators over one positive denominator,
(ints, den), reduced by one gcd per step; M_k holds its columns over one
scale, and the projection onto a quotient is integers over one
denominator. A matrix is scaled to integers only as a whole, by a
positive number (per-row scaling is not a congruence). Fractions appear
only at the edge: coords.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from math import gcd, lcm

from . import _linalg, localstd
from .poly import Polynomial


class ScaledColumns(tuple):
    """The columns of one M_k as integers over one scale > 0, the lcm of
    their denominators: column i is the index j when x_k * b_i = b_j, else
    the sparse numerators ((row, c), ...) of x_k * b_i."""

    def __new__(cls, columns, scale):
        out = super().__new__(cls, columns)
        out.scale = scale
        return out

    def __getnewargs__(self):  # for copy and pickle
        return tuple(self), self.scale


class FiniteAlgebra:
    """Local quotient algebra with staircase basis b_1 = 1, b_2, ..., b_d."""

    def __init__(self, canonical: localstd.CanonicalQuotient):
        self._canon = canonical
        self._set_up(canonical.basis_monomials, canonical.order.nvars)

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
        """var_matrices[k], the ScaledColumns of M_k, built on first read (a
        complex index builds no C0 and never reads these of B0). Divided
        (_shift_coords): the border columns of M_h, for the hub x_h the
        variable with the fewest (the lowest on a tie), and those of the
        other M_k whose b_i has no x_h. The rest follow by the staircase
        recurrence: b_i = x_h b_a gives column i of M_k = M_h (column a of
        M_k). Reduced, each is the column its division would give."""
        basis, index, shift, n = self.basis, self._index, self._shift, self.nvars
        cols = [[index.get(shift(m, k)) for m in basis] for k in range(n)]
        h = min(range(n), key=lambda k: cols[k].count(None))
        for k in sorted(range(n), key=lambda k: k != h):
            for i, m in enumerate(basis):
                if cols[k][i] is not None:
                    continue
                if k != h and m[h]:  # sparse throughout: a column is d long
                    a, hub = cols[k][index[shift(m, h, -1)]], cols[h]
                    pairs, den = ([(a, 1)], 1) if type(a) is int else a
                    v = _times(hub, hub.scale, pairs, defaultdict(int))
                    g = gcd(den * hub.scale, *v.values())
                    cols[k][i] = [(r, x // g) for r, x in sorted(v.items())
                                  if x], den * hub.scale // g
                else:  # divided, and made sparse at once
                    v, den = self._shift_coords(k, i)
                    cols[k][i] = [(r, x) for r, x in enumerate(v) if x], den
            s = lcm(*(c[1] for c in cols[k] if type(c) is not int))
            cols[k] = ScaledColumns([c if type(c) is int else tuple(
                (r, x * (s // c[1])) for r, x in c[0]) for c in cols[k]], s)
        return tuple(cols)

    @staticmethod
    def _shift(m, k, by=1):
        return m[:k] + (m[k] + by,) + m[k + 1:]

    def _shift_coords(self, k, i):
        """(ints, den) of x_k * b_i when that is not a basis monomial."""
        m = self._shift(self.basis[i], k)
        return self._canon.integer_coordinates(Polynomial.term(self.nvars, m, 1))

    def _integer_coords(self, p: Polynomial):
        return self._canon.integer_coordinates(p)

    def _walk(self, start, step):
        """[v_1, ..., v_d] with v_1 = start and v_i = step(v_a, k) for b_i = x_k b_a."""
        if not self.dim:
            return []
        out = [start]
        for k, a in self._steps:
            out.append(step(out[a], k))
        return out

    def _times_variable(self, vec, k):
        """M_k v: x_k times the element with coordinates ints / den."""
        cols = self.var_matrices[k]
        return _linalg.reduced(_times(cols, cols.scale, enumerate(vec[0]),
                                      [0] * self.dim), vec[1] * cols.scale)

    def _row_times_variable(self, vec, k):
        """w M_k: the functional b -> w(x_k * b), for w = ints / den."""
        w, den = vec
        cols = self.var_matrices[k]
        s = cols.scale
        return _linalg.reduced([w[col] * s if type(col) is int
                                else sum(w[r] * c for r, c in col)
                                for col in cols], den * s)

    def _gram_walk(self, l):
        """Gram rows w_a[b] = l(b_a * b_b) as (ints, den)."""
        den = _linalg.common_denominator(l)
        return self._walk((_linalg.integer_row(l, den), den),
                          self._row_times_variable)

    def coords(self, p: Polynomial):
        """Coordinates of the class of p in the staircase basis."""
        return _linalg.fractions(*self._integer_coords(p))

    def _product_columns(self, g: Polynomial):
        """[coords(g * b_1), ..., coords(g * b_d)] by the staircase recurrence."""
        return self._walk(self._integer_coords(g), self._times_variable)

    def scaled_gram_matrix(self, l):
        """s * G as ints, for G_ab = l(b_a * b_b) the Gram matrix of the
        pairing induced by the functional l and s > 0 the lcm of its
        denominators: the whole matrix is scaled by one positive number,
        which keeps it symmetric and keeps its inertia."""
        rows = self._gram_walk(l)
        s = lcm(*(den for _, den in rows))
        return tuple(tuple(w) if den == s else tuple(x * (s // den) for x in w)
                     for w, den in rows)


def build_algebra(gens) -> FiniteAlgebra:
    """Quotient algebra by (gens), with its variable multiplication matrices;
    InfiniteDimensionError (from localstd.staircase) when it is infinite."""
    sb = localstd.standard_basis(gens, certify=False)
    return FiniteAlgebra(localstd.CanonicalQuotient(sb, localstd.staircase(sb)))


class QuotientAlgebra(FiniteAlgebra):
    """parent / ann_parent(g), in deterministic complement coordinates.

    One forward elimination of M_g, the matrix of multiplication by g, with
    its columns read right to left, and a back-substitution for each of the
    few dependent columns give everything (_linalg.column_relations). The
    complement basis is the parent staircase monomials whose columns are
    not combinations of later columns: column r is such a combination
    exactly when ann(g) has a vector whose first nonzero coordinate is r,
    that is, when r is an RREF pivot of the annihilator. A dependent column
    r that equals sum_j a_j times the independent columns c_j gives
    b_r = sum_j a_j b_{c_j} modulo ann(g): the projection, and the kernel
    row e_r - sum_j a_j e_{c_j}.
    """

    def __init__(self, parent: FiniteAlgebra, g: Polynomial):
        self.parent = parent
        # the class of b_r as sparse numerators over self._den
        independent, self._projected_units, self._den = _linalg.column_relations(
            _integer_matrix(parent._product_columns(g)), parent.dim)
        self.complement_indices = tuple(independent)
        self._set_up(tuple(parent.basis[c] for c in self.complement_indices),
                     parent.nvars)

    def _project(self, pairs, den):
        """The class of the parent element sum of c b_r / den over (r, c)."""
        return _linalg.reduced(_times(self._projected_units, 1, pairs,
                                      [0] * self.dim), den * self._den)

    def _shift_coords(self, k, i):
        """The projection of the parent's column for x_k * b_i."""
        cols = self.parent.var_matrices[k]
        col = cols[self.complement_indices[i]]
        return self._project(((col, cols.scale),) if type(col) is int else col,
                             cols.scale)

    def _integer_coords(self, p: Polynomial):
        v, den = self.parent._integer_coords(p)
        return self._project(enumerate(v), den)


def _times(cols, scale, pairs, out):
    """out plus the numerators of M v, for M the matrix whose column r is
    the sparse numerators cols[r] (an int j there: scale e_j) and v the sum
    of c e_r over (r, c) in pairs; out is a list or a defaultdict(int)."""
    for r, c in pairs:
        if c:
            t = cols[r]
            if type(t) is int:
                out[t] += c * scale
            else:
                for j, x in t:
                    out[j] += c * x
    return out


def _integer_matrix(cols):
    """The columns (ints, den) as one int matrix, scaled by the lcm of the dens."""
    s = lcm(*(den for _, den in cols))
    return [list(r) for r in zip(*([x * (s // den) for x in v] for v, den in cols))]


def annihilator_quotient(A: FiniteAlgebra, g: Polynomial) -> QuotientAlgebra:
    """A / ann_A(g), computed as the kernel of multiplication by g."""
    return QuotientAlgebra(A, g)

