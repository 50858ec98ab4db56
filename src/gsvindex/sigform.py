"""Exact signatures of symmetric bilinear forms, and admissible functionals.

Inertia is computed by symmetric congruence diagonalization over the
rationals: pivots come from the first nonzero diagonal entry in index
order; when the whole remaining diagonal vanishes, a symmetric add turns
the first nonzero off-diagonal pair into a usable pivot, which makes each
hyperbolic block contribute (+1, -1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import C1ClassZeroError
from .poly import Polynomial


@dataclass(frozen=True)
class GramForm:
    dim: int
    matrix: tuple  # tuple of row tuples, symmetric

    def __post_init__(self):
        m = self.matrix
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise ValueError("Gram matrix has the wrong shape")
        for i in range(self.dim):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ValueError("Gram matrix is not symmetric")


@dataclass(frozen=True)
class SignatureResult:
    p_plus: int
    p_minus: int
    rank: int

    @property
    def signature(self) -> int:
        return self.p_plus - self.p_minus


def signature_of(form: GramForm) -> SignatureResult:
    """Exact inertia (p_plus, p_minus, rank) by congruence diagonalization."""
    d = form.dim
    a = [[Fraction(x) for x in row] for row in form.matrix]
    plus = minus = 0
    for k in range(d):
        piv = next((j for j in range(k, d) if a[j][j] != 0), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in range(k, d)
                    for j in range(i + 1, d)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for t in range(d):  # row/col add: makes a[i][i] = 2 a[i][j] != 0
                a[i][t] += a[j][t]
            for t in range(d):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(d):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for r in range(k + 1, d):
            if a[r][k]:
                f = a[r][k] / p
                for t in range(d):
                    a[r][t] -= f * a[k][t]
                for t in range(d):
                    a[t][r] -= f * a[t][k]
    return SignatureResult(p_plus=plus, p_minus=minus, rank=plus + minus)


def choose_linear_form(C, c1: Polynomial, seed: "int | None" = None):
    """A functional l on the quotient with l(c1) > 0, as a coordinate row.

    C is a FiniteAlgebra or a QuotientAlgebra. Default policy (seed None):
    the dual of the first coordinate where the class of c1 is nonzero,
    scaled so l(c1) = 1. With a seed: small random integer entries in
    [-9, 9], sign-flipped to make l(c1) > 0.

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


def gram_of_form(C, l) -> GramForm:
    """Gram matrix G_ij = l(e_i * e_j) of the induced pairing.

    The algebra reads it off its staircase recurrence (algebra module), so
    no multiplication table is built.
    """
    d = C.dim
    if len(l) != d:
        raise ValueError("functional has the wrong number of coordinates")
    return GramForm(dim=d, matrix=C.gram_matrix(l))
