"""Exact linear algebra by one integer elimination on primitive rows.

forward_eliminate brings int rows to echelon form. The pivot of column c is
the first row, at or below the current one, whose entry is nonzero, so
pivot columns and row swaps are those of elimination over the rationals.
With pivot p, a row whose entry in the pivot column is f becomes a row - b
(pivot row), for b/a = f/p in lowest terms and a > 0, over its content;
a pivot row is made primitive when it is chosen. Each row is a positive
multiple of the rational one, and its entries stay short where Bareiss's
division by the previous pivot lets them grow with every pivot (Geddes,
Czapor, Labahn, Algorithms for Computer Algebra, ch. 9); localstd reduces
its term maps the same way. back_substitute solves for one right-hand
column over the rationals.

The algebra layer hands int rows directly; inverse, the one rational-matrix
routine (coordinate changes), scales each row of ints and Fractions to
integers once, by the lcm of its denominators. Every rational vector
travels as (ints, den), int numerators over one positive denominator;
fractions turns one into Fractions where the API returns it.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm


def common_denominator(entries):
    return lcm(*(x.denominator for x in entries))


def integer_row(row, den):
    """den * row as ints, for den a multiple of every denominator in row."""
    return [x.numerator * (den // x.denominator) for x in row]


def fractions(ints, den, zero=Fraction(0)):
    """ints / den as a list of Fractions, every zero the same object."""
    return [Fraction(x, den) if x else zero for x in ints]


def reduced(v, den):
    """v / den as (ints, den), with the gcd of den and v divided out."""
    g = gcd(den, *v)
    return ([x // g for x in v], den // g) if g != 1 else (v, den)


def primitive(row):
    """The int row over the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def forward_eliminate(rows):
    """Forward elimination of a list of int rows, in place.

    Returns (rows, pivots): the echelon rows, row k primitive with its
    first nonzero entry in column pivots[k].
    """
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r] = primitive(rows[r])
        p = prow[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(f, p)
                a, b = (p // g, f // g) if p > 0 else (-p // g, -f // g)
                rows[i] = primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def back_substitute(rows, pivots, col):
    """(x, den) with sum of x[k] / den * column pivots[k] equal to column
    col, on the echelon rows of forward_eliminate; x[k] = 0 when pivots[k] >
    col, den > 0 and the gcd of den and x is 1."""
    x, den = [0] * len(pivots), 1
    done = []  # (pivot column, k) of the solved coordinates that are nonzero
    for k in reversed(range(bisect_right(pivots, col))):
        row = rows[k]
        s = den * row[col] - sum(row[p] * x[j] for p, j in done)
        if s:
            q = row[pivots[k]]
            g = gcd(s, q)
            a, x[k] = (q // g, s // g) if q > 0 else (-q // g, -s // g)
            if a != 1:
                den *= a
                for _, j in done:
                    x[j] *= a
            done.append((pivots[k], k))
    return reduced(x, den)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def inverse(M):
    """M^-1, as Fractions, for a square matrix of ints and Fractions; raises
    ValueError if M is singular."""
    n = len(M)
    eye = identity(n)
    rows, pivots = forward_eliminate([integer_row(list(row) + eye[i],
                                                  common_denominator(row))
                                      for i, row in enumerate(M)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    columns = [fractions(*back_substitute(rows, pivots, n + j))
               for j in range(n)]
    return [list(row) for row in zip(*columns)]
