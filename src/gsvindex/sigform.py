"""Exact signatures of symmetric bilinear forms, and admissible functionals.

Inertia is computed by symmetric congruence diagonalization: pivots come
from the first nonzero diagonal entry in pivot-search order; when the whole
remaining diagonal vanishes, a symmetric add turns the first nonzero
off-diagonal pair into a usable pivot, which makes each hyperbolic block
contribute (+1, -1). signature_of takes the square symmetric matrix itself,
of ints or Fractions; the indices hand in FiniteAlgebra.scaled_gram_matrix,
already integral. A rational matrix is scaled to integers as a whole, by
one positive lcm, so it stays symmetric and keeps its inertia; a scaling
per row is not a congruence. Elimination is the integer Bareiss kernel of
_linalg with its lazy per-row factor, over full rows of the trailing block.
The rational pivot, the entry of the Schur complement, is the Bareiss pivot
over the previous one, which is the stored pivot over its row's factor, so
its sign is the product of their signs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import C1ClassZeroError
from .poly import Polynomial


@dataclass(frozen=True)
class SignatureResult:
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
    # rows and columns of the trailing block, in pivot-search order; row i is
    # stored lazily as (Bareiss row) * lasts[i] / prev, see _linalg
    rows = [_linalg.integer_row(row, den) for row in matrix]
    lasts = [1] * d
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
            # entry is twice the pair's; both entries of a column add share
            # one row, hence one lazy factor
            u, v = (_linalg.refresh(rows[s], prev, lasts[s]) for s in (piv, t))
            rows[piv], rows[t] = [a + b for a, b in zip(u, v)], v
            lasts[piv] = lasts[t] = prev
            for row in rows:
                row[piv] += row[t]
        # the pivot's rational value is rows[piv][piv] / lasts[piv]
        if (rows[piv][piv] > 0) == (lasts[piv] > 0):
            plus += 1
        else:
            minus += 1
        prow = _linalg.refresh(rows[piv], prev, lasts[piv])
        rows[piv], lasts[piv] = rows[0], lasts[0]
        del rows[0], lasts[0]
        # swap the pivot to the front of the order and drop it, from every row
        for row in (prow, *rows):
            row[0], row[piv] = row[piv], row[0]
        p = prev = prow.pop(0)
        # Schur complement, skipping rows with no entry in the pivot column
        for i, row in enumerate(rows):
            f = row.pop(0)
            if f:
                rows[i] = _linalg.bareiss_step(row, f, prow, p, lasts[i])
                lasts[i] = p
    return SignatureResult(p_plus=plus, p_minus=minus, rank=plus + minus)


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
