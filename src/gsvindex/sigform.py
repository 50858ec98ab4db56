"""Exact signatures of symmetric bilinear forms, and admissible functionals.

Inertia is computed by symmetric congruence diagonalization over the
rationals: pivots come from the first nonzero diagonal entry in index
order; when the whole remaining diagonal vanishes, a symmetric add turns
the first nonzero off-diagonal pair into a usable pivot, which makes each
hyperbolic block contribute (+1, -1). Eliminating a pivot p with row w
leaves the trailing block's Schur complement A' = A - w^T w / p, so only
that block changes; it is symmetric, so only its upper triangle is stored
and updated, and only where w is nonzero.
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
    # only the upper triangle a[u][v], u <= v, is stored and kept current
    a = [[None] * i + [Fraction(x) for x in row[i:]]
         for i, row in enumerate(form.matrix)]

    def entry(u, v):
        return a[u][v] if u <= v else a[v][u]

    live = list(range(d))  # the trailing block, in pivot-search order
    plus = minus = 0
    while live:
        piv = next((s for s, u in enumerate(live) if a[u][u] != 0), None)
        if piv is None:
            pair = next(
                (
                    (s, v)
                    for s, u in enumerate(live)
                    for v in live[s + 1:]
                    if entry(u, v) != 0
                ),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            piv, v = pair
            u = live[piv]
            # row/col u += row/col v; with a zero diagonal, a[u][u] = 2 a[u][v]
            for t in live:
                if t != u and t != v:
                    value = entry(u, t) + entry(v, t)
                    if u <= t:
                        a[u][t] = value
                    else:
                        a[t][u] = value
            a[u][u] = 2 * entry(u, v)
        live[0], live[piv] = live[piv], live[0]
        k = live.pop(0)
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        # trailing block -= (pivot row)^T (pivot row) / p, over its support
        row = sorted((t, w) for t in live if (w := entry(k, t)) != 0)
        for pos, (r, ar) in enumerate(row):
            f = ar / p
            target = a[r]
            for t, at in row[pos:]:
                target[t] -= f * at
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


def gram_of_form(C, l) -> GramForm:
    """Gram matrix G_ij = l(e_i * e_j) of the induced pairing.

    C is a FiniteAlgebra, annihilator quotients included; it reads the
    matrix off its own staircase recurrence (algebra module), so no
    multiplication table is built.
    """
    d = C.dim
    if len(l) != d:
        raise ValueError("functional has the wrong number of coordinates")
    return GramForm(dim=d, matrix=C.gram_matrix(l))
