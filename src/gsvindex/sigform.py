"""Exact signatures of symmetric bilinear forms, and admissible functionals.

Inertia is computed by symmetric congruence diagonalization: pivots come
from the first nonzero diagonal entry in pivot-search order; when the whole
remaining diagonal vanishes, a symmetric add turns the first nonzero
off-diagonal pair into a usable pivot, which makes each hyperbolic block
contribute (+1, -1). signature_of takes the square symmetric matrix itself,
of ints or Fractions; the indices hand in FiniteAlgebra.scaled_gram_matrix,
already integral. A rational matrix is scaled to integers as a whole, by
one positive lcm, so it stays symmetric and keeps its inertia; a scaling
per row is not a congruence. Elimination is fraction-free Bareiss over full
rows of the trailing block (Bareiss, Math. Comp. 22, 1968): with pivot p
and previous pivot prev, each row becomes (p row - f pivot row) / prev, f
its entry in the pivot column, an exact division because every entry is a
minor of the matrix with the symmetric adds applied. The rational pivot,
the entry of the Schur complement, is p / prev, so its sign is the
product of their signs.

The Gram matrix of a pairing (a, b) -> l(ab) on a local algebra first
loses its metabolic part (_witt_signature), so the congruence runs only on
the middle degrees. Witt cancellation: if J is a totally isotropic subspace
(G(J, J) = 0) that meets the radical only in 0, then sig G = (dim J,
dim J) + sig of G on J^perp / J (Milnor-Husemoller, Symmetric Bilinear
Forms, ch. I; Lam, Introduction to Quadratic Forms over Fields, ch. I).
J comes from the degrees of the staircase basis. In a local degree order
the basis monomials of degree >= k span the image of m^k (Greuel-Pfister,
A Singular Introduction to Commutative Algebra, ch. 5), so for L the top
degree and s = L // 2 + 1 the span J of the basis monomials of degree >= s
has J * J in m^(L+1) = 0, and is isotropic for every functional. With the
basis split into the rest, I, and J, G = [[A, B], [B^T, 0]]; J meets the
radical only in 0 exactly when rank B = dim J, and then J^perp / J is
ker B^T with the form K^T A K, for K a kernel basis, of size d - 2 dim J;
K comes from the column relations of B^T (_linalg.column_relations).
The argument is not trusted: both G[J][J] = 0 and rank B = dim J are
checked on the integer Gram, and if either fails the whole matrix goes to
signature_of.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from . import _linalg
from ._record import Record
from .errors import C1ClassZeroError
from .poly import Polynomial


class SignatureResult(Record):
    p_plus: int
    p_minus: int
    rank: int

    @property
    def signature(self) -> int:
        return self.p_plus - self.p_minus


def signature_of(matrix) -> SignatureResult:
    """Exact inertia (p_plus, p_minus, rank) of a square symmetric matrix of
    ints or Fractions, by congruence diagonalization. Raises ValueError when
    the matrix is not square or not symmetric."""
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise ValueError("Gram matrix has the wrong shape")
    if any(matrix[i][j] != matrix[j][i] for i in range(d) for j in range(i)):
        raise ValueError("Gram matrix is not symmetric")
    den = _linalg.common_denominator(x for row in matrix for x in row)
    # rows and columns of the trailing block, in pivot-search order, as
    # Bareiss rows over the previous pivot prev
    rows = [_linalg.integer_row(row, den) for row in matrix]
    prev = 1
    plus = minus = 0
    while rows:
        piv = next((s for s, row in enumerate(rows) if row[s]), None)
        if piv is None:
            pair = next(((s, t) for s, row in enumerate(rows)
                         for t in range(s + 1, len(rows)) if row[t]), None)
            if pair is None:
                break  # remaining block is zero
            piv, t = pair
            # row/col piv += row/col t; with a zero diagonal the new diagonal
            # entry is twice the pair's
            rows[piv] = [a + b for a, b in zip(rows[piv], rows[t])]
            for row in rows:
                row[piv] += row[t]
        prow = rows[piv]
        rows[piv] = rows[0]
        del rows[0]
        # swap the pivot to the front of the order and drop it, from every row
        for row in (prow, *rows):
            row[0], row[piv] = row[piv], row[0]
        p = prow.pop(0)
        # the pivot's rational value is p / prev
        if (p > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        # Schur complement; a row with no entry in the pivot column is only
        # scaled, by p / prev
        for i, row in enumerate(rows):
            f = row.pop(0)
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [x * p // prev for x in row]
        prev = p
    return SignatureResult(p_plus=plus, p_minus=minus, rank=plus + minus)


def _witt_signature(matrix, degrees) -> SignatureResult:
    """signature_of(matrix) for the nonempty Gram matrix of a pairing on a
    local algebra whose basis element i has degree degrees[i], with the
    isotropic top degrees J cancelled first (module docstring)."""
    s = max(degrees) // 2 + 1
    J = [j for j, e in enumerate(degrees) if e >= s]
    if any(matrix[a][b] for a in J for b in J):
        return signature_of(matrix)
    I = [i for i, e in enumerate(degrees) if e < s]
    # B^T's columns read right to left, so that it pivots on the degrees
    # next to J: the other way round is 6x slower on a dense Gram
    independent, units, den = _linalg.column_relations(
        [[matrix[j][i] for i in I] for j in J], len(I))
    if len(independent) < len(J):
        return signature_of(matrix)
    # a primitive kernel vector of B^T per dependent column r, as sparse
    # (basis index, value); scaling a column of K is a congruence
    K = []
    for r in set(range(len(I))) - set(independent):
        v = [(I[r], den)] + [(I[independent[j]], -u) for j, u in units[r]]
        g = gcd(*(x for _, x in v))
        K.append([(a, x // g) for a, x in v])
    middle = signature_of([[sum(x * y * matrix[a][b] for a, x in u for b, y in v)
                            for v in K] for u in K])
    n = len(J)
    return SignatureResult(p_plus=middle.p_plus + n,
                           p_minus=middle.p_minus + n,
                           rank=middle.rank + 2 * n)


def choose_linear_form(C, c1: Polynomial, seed: "int | None" = None):
    """A functional l on the quotient with l(c1) > 0, as a coordinate row.

    C is a FiniteAlgebra, annihilator quotients included. Default policy
    (seed None): the dual of the first coordinate where the class of c1 is
    nonzero, scaled so l(c1) = 1. With a seed: small random integer entries
    in [-9, 9], sign-flipped to make l(c1) > 0.

    Returns (l, value) with value = l(c1).
    """
    cls = C.coords(c1)
    if all(v == 0 for v in cls):
        raise C1ClassZeroError(
            "the distinguished class projects to zero in the quotient"
        )
    d = C.dim
    if seed is None:
        k = next(i for i, v in enumerate(cls) if v != 0)
        l = [Fraction(0)] * d
        l[k] = 1 / cls[k]
        return tuple(l), Fraction(1)
    rng = random.Random(seed)
    while True:
        l = [Fraction(rng.randint(-9, 9)) for _ in range(d)]
        value = sum((a * b for a, b in zip(l, cls)), Fraction(0))
        if value > 0:
            return tuple(l), value
        if value < 0:
            return tuple(-a for a in l), -value
