"""Independent reference arithmetic for the benchmark.

Nothing here imports gsvindex. It holds a small sparse polynomial type over
the rationals, a parser for the polynomial text gsvindex prints, the closed
forms the benchmark's workloads are checked against, and a truncated-quotient
oracle for the length of a zero-dimensional local quotient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb


class Poly:
    """Sparse polynomial: dict exponent-tuple -> nonzero Fraction."""

    __slots__ = ("n", "t")

    def __init__(self, n, terms=None):
        self.n = n
        self.t = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def var(cls, n, i):
        return cls(n, {tuple(int(j == i) for j in range(n)): 1})

    def __add__(self, other):
        out = dict(self.t)
        for m, c in other.t.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.n, out)

    def __neg__(self):
        return Poly(self.n, {m: -c for m, c in self.t.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.n, {m: c * other for m, c in self.t.items()})
        out = {}
        for a, ca in self.t.items():
            for b, cb in other.t.items():
                m = tuple(x + y for x, y in zip(a, b))
                out[m] = out.get(m, 0) + ca * cb
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = Poly.const(self.n, 1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.t == other.t

    def __bool__(self):
        return bool(self.t)

    def diff(self, i):
        out = {}
        for m, c in self.t.items():
            if m[i]:
                d = list(m)
                d[i] -= 1
                out[tuple(d)] = c * m[i]
        return Poly(self.n, out)

    def substitute(self, images):
        """p(images[0], ..., images[n-1]); all images share one ring."""
        n2 = images[0].n
        out = Poly(n2)
        for m, c in self.t.items():
            term = Poly.const(n2, c)
            for img, e in zip(images, m):
                term = term * img ** e
            out = out + term
        return out

    def at_zero(self, first):
        """Set every variable from index `first` on to zero."""
        return Poly(first, {m[:first]: c for m, c in self.t.items()
                            if not any(m[first:])})

    def constant_term(self):
        return self.t.get((0,) * self.n, Fraction(0))

    def order(self):
        return min(sum(m) for m in self.t)

    def render(self, names):
        """Text in the problem-file grammar (explicit '*', '^', no leading unary minus on names)."""
        if not self.t:
            return "0"
        pieces = []
        for k, m in enumerate(sorted(self.t, key=lambda m: (-sum(m), m))):
            c = self.t[m]
            factors = [names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
            mag = abs(c)
            if k == 0:
                body = "*".join(([str(c)] if (c != 1 or not factors) else []) + factors)
            else:
                body = ("- " if c < 0 else "+ ") + "*".join(
                    ([str(mag)] if (mag != 1 or not factors) else []) + factors)
            pieces.append(body)
        return " ".join(pieces)


# ------------------------------------------------------------------ parser

def parse(text, names):
    """Parse gsvindex polynomial text: + - * ^ ( ), rationals and variable names."""
    names = list(names)
    n = len(names)
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            toks.append(("sym", ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    toks.append(("end", None))
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take():
        tok = toks[pos[0]]
        pos[0] += 1
        return tok

    def expr():
        sign = 1
        if peek() == ("sym", "-"):
            take()
            sign = -1
        p = term() * sign
        while peek() in (("sym", "+"), ("sym", "-")):
            op = take()[1]
            q = term()
            p = p + q if op == "+" else p - q
        return p

    def term():
        p = factor()
        while peek() == ("sym", "*"):
            take()
            p = p * factor()
        return p

    def factor():
        kind, value = take()
        if kind == "num":
            c = Fraction(value)
            if peek() == ("sym", "/"):
                take()
                kind2, den = take()
                if kind2 != "num" or den == 0:
                    raise ValueError(f"bad denominator in {text!r}")
                c = Fraction(value, den)
            p = Poly.const(n, c)
        elif kind == "name":
            if value not in names:
                raise ValueError(f"unknown variable {value!r} in {text!r}")
            p = Poly.var(n, names.index(value))
        elif (kind, value) == ("sym", "("):
            p = expr()
            if take() != ("sym", ")"):
                raise ValueError(f"expected ')' in {text!r}")
        elif (kind, value) == ("sym", "-"):
            p = -factor()
        else:
            raise ValueError(f"unexpected token {value!r} in {text!r}")
        while peek() == ("sym", "^"):
            take()
            kind, e = take()
            if kind != "num":
                raise ValueError(f"bad exponent in {text!r}")
            p = p ** e
        return p

    p = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")
    return p


# --------------------------------------------------------------- problems

def dk(k, m):
    """f = x^2 y + y^(k-1), X = ((k-2) x^(m+1), 2 x^m y), C = 2(k-1) x^m."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    f = x * x * y + y ** (k - 1)
    X = ((k - 2) * x ** (m + 1), 2 * x ** m * y)
    return [f], list(X), [[2 * (k - 1) * x ** m]]


def dk_expected(k, m):
    """Weighted Bezout dims and the half-branch real index of dk(k, m)."""
    index = 0 if m % 2 else (1 if k % 2 == 0 else 2)
    return {"dim_B0": (k - 1) * (m + 1), "dim_C0": (k - 1) * (m - 1), "index": index}


def zk_map(k):
    """(Re z^k, Im z^k) for z = x + i y."""
    re, im = Poly(2), Poly(2)
    for j in range(k + 1):
        mono = Poly(2, {(k - j, j): comb(k, j)})
        if j % 4 == 0:
            re = re + mono
        elif j % 4 == 2:
            re = re - mono
        elif j % 4 == 1:
            im = im + mono
        else:
            im = im - mono
    return [re, im]


def zk_expected(k):
    """Local degree k and multiplicity k^2 of z -> z^k."""
    return {"index": k, "dim": k * k}


def space_curve(l):
    """f = (x^2+y^2+z^2, xy), X = z^l (x-y) (x, y, z), C = 2 z^l (x-y) I."""
    x, y, z = (Poly.var(3, i) for i in range(3))
    w = z ** l * (x - y)
    return [x * x + y * y + z * z, x * y], [w * x, w * y, w * z], \
        [[2 * w, Poly(3)], [Poly(3), 2 * w]]


# ---------------------------------------------------------- linear algebra

def mat_inverse(A):
    n = len(A)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [v / piv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_coordinates(f, X, A, C=()):
    """The problem in coordinates y with z = A y: f(Ay), A^-1 X(Ay), C(Ay)."""
    n = len(A)
    images = [sum((Poly.var(n, j) * A[i][j] for j in range(n) if A[i][j]), Poly(n))
              for i in range(n)]
    Ainv = mat_inverse(A)
    pulled = [p.substitute(images) for p in X]
    X2 = [sum((pulled[j] * Ainv[i][j] for j in range(n) if Ainv[i][j]), Poly(n))
          for i in range(n)]
    return ([p.substitute(images) for p in f], X2,
            [[c.substitute(images) for c in row] for row in C])


def det(M):
    """Determinant of a small square matrix of Polys (cofactor expansion)."""
    if len(M) == 1:
        return M[0][0]
    total = Poly(M[0][0].n)
    for j, e in enumerate(M[0]):
        if e:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            piece = e * det(minor)
            total = total + piece if j % 2 == 0 else total - piece
    return total


def jacobian_minor(f, cols):
    return det([[fl.diff(c) for c in cols] for fl in f])


# ------------------------------------------------- truncated-quotient oracle

PRIME = (1 << 61) - 1


def _mod(c):
    return c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME


def truncated_dim(gens, N):
    """dim_k k[x]/(I + m^N), with the rank taken modulo a 61-bit prime.

    A rank modulo p never exceeds the rational rank, so this can only
    over-count; it equals the rational value unless p divides one specific
    minor of the (small integer) coefficient matrix.
    """
    n = gens[0].n
    monos = [m for d in range(N) for m in _monomials(n, d)]
    pivots = {}
    for g in gens:
        if not g:
            continue
        low = g.order()
        terms = [(m, _mod(c)) for m, c in g.t.items() if sum(m) < N]
        for d in range(N - low):
            for a in _monomials(n, d):
                row = {}
                for m, c in terms:
                    mm = tuple(x + y for x, y in zip(a, m))
                    if sum(mm) < N:
                        row[mm] = (row.get(mm, 0) + c) % PRIME
                _reduce_insert(row, pivots)
    return len(monos) - len(pivots)


def _monomials(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _key(m):
    return (sum(m), m)


def _reduce_insert(row, pivots):
    row = {m: c for m, c in row.items() if c}
    while row:
        lead = min(row, key=_key)
        prow = pivots.get(lead)
        if prow is None:
            inv = pow(row[lead], PRIME - 2, PRIME)
            pivots[lead] = {m: c * inv % PRIME for m, c in row.items()}
            return
        f = row[lead]
        for m, c in prow.items():
            v = (row.get(m, 0) - f * c) % PRIME
            if v:
                row[m] = v
            else:
                row.pop(m, None)


def local_length(gens, max_N=80):
    """Length of the local quotient at 0, by Nakayama.

    dim k[x]/(I + m^N) grows with N; once two consecutive values agree,
    m^N lies in I + m^(N+1), hence in the localized ideal, so the value is
    the length. Raises ValueError when no stabilization occurs by max_N
    (the zero is then not isolated, or lies too deep).
    """
    prev = truncated_dim(gens, 1)
    for N in range(2, max_N + 1):
        cur = truncated_dim(gens, N)
        if cur == prev:
            return cur
        prev = cur
    raise ValueError(f"truncated quotient did not stabilize by N={max_N}")


def complex_index(f, X, transform):
    """(dim B0, dim B0/(DF), index) of the problem normalized by `transform`."""
    n = len(X)
    f2, X2, _ = change_coordinates(f, X, transform)
    DF = jacobian_minor(f2, list(range(1, n)))
    dim_B0 = local_length(f2 + [X2[0]])
    dim_mod = local_length(f2 + [X2[0], DF])
    return dim_B0, dim_mod, dim_B0 - dim_mod
