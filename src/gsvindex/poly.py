"""Exact sparse multivariate polynomial arithmetic over the rationals.

A monomial is an exponent tuple (one non-negative int per ring variable).
A Polynomial stores a map monomial -> nonzero coefficient; the map is the
canonical form, so two polynomials are equal iff their term maps are equal.
No monomial order is baked into storage; orders are passed to consumers.

Coefficients are canonical (see `coefficient`): an int when the value is
integral, otherwise a Fraction with denominator > 1. Integer problems thus
run on Python ints from parse to report, and a Fraction appears only where
a value is not integral. Python mixes the two exactly, and equal values
hash alike (hash(3) == hash(Fraction(3))). A float is refused: it is not
exact.

The public constructor validates and normalizes every term. Results of the
class's own arithmetic are clean by construction (sums and products of
canonical coefficients, zeros dropped, monomials of the right length), so
they skip that pass. Only a sum or product with a Fraction operand can give
an integral Fraction, and only such a result is turned back into an int:
a term is checked where it is made, never in a scan of a finished map.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from operator import add, le

from . import _linalg
from ._record import Record

Monomial = tuple  # exponent tuple, length == nvars


def coefficient(value):
    """value as a canonical coefficient: an int when it is integral, else a
    Fraction with denominator > 1. Raises TypeError on a float."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact coefficient {value!r}; use an int or a Fraction")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def quotient(a, b):
    """a / b exactly, as a canonical coefficient; b is nonzero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return coefficient(Fraction(a) / b)


def _positive(nvars):
    if nvars < 1:
        raise ValueError("nvars must be positive")
    return nvars


def _int_if_integral(c):
    """c with an integral Fraction turned into its int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _accumulate(out: dict, terms: dict, sign: int = 1) -> dict:
    """out += sign * terms, in place, for term maps of canonical
    coefficients and sign +-1: an integral Fraction sum becomes its int and
    a zero sum is dropped. Returns out."""
    get = out.get
    for m, c in terms.items():
        s = get(m, 0) + c if sign > 0 else get(m, 0) - c
        if type(s) is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


class Polynomial:
    """Immutable sparse polynomial with canonical coefficients: an int where
    a coefficient is integral, a Fraction with denominator > 1 elsewhere."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        _positive(nvars)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(
                        f"monomial {mono} has wrong length for {nvars} variables"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                c = coefficient(coeff)
                if c:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # pickle and copy, past the blocked __setattr__
        return Polynomial._trusted, (self.nvars, self.terms)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap a term map that already holds only nonzero canonical
        coefficients on exponent tuples of length nvars; the map is taken,
        not copied, and not scanned."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._trusted(_positive(nvars), {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        _positive(nvars)
        c = coefficient(value)
        return cls._trusted(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls._trusted(_positive(nvars), {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        e = [0] * nvars
        e[index] = 1
        return cls._trusted(nvars, {tuple(e): 1})

    @classmethod
    def term(cls, nvars: int, mono: Monomial, coeff) -> "Polynomial":
        return cls(nvars, {tuple(mono): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented  # scalars go through scale or constant
        self._check_ring(other)
        return Polynomial._trusted(self.nvars,
                                   _accumulate(dict(self.terms), other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return Polynomial._trusted(self.nvars,
                                   _accumulate(dict(self.terms), other.terms, -1))

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars,
                                   {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            res = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = res.get(m, 0) + c1 * c2
                    if type(s) is Fraction and s.denominator == 1:
                        s = s.numerator
                    if s:
                        res[m] = s
                    else:
                        del res[m]
            return Polynomial._trusted(self.nvars, res)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = coefficient(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._trusted(self.nvars, {
            m: _int_if_integral(c * v) for m, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if type(exponent) is not int:
            raise TypeError(f"exponent {exponent!r} is not an int")
        if exponent < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        res = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                res[m[:index] + (e - 1,) + m[index + 1 :]] = _int_if_integral(c * e)
        return Polynomial._trusted(self.nvars, res)

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    @property
    def constant_term(self) -> "int | Fraction":
        return self.terms.get((0,) * self.nvars, 0)

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def extend(self, new_nvars: int) -> "Polynomial":
        """View in a larger ring; new trailing variables get exponent 0."""
        if new_nvars < self.nvars:
            raise ValueError("cannot shrink the ring")
        pad = (0,) * (new_nvars - self.nvars)
        return Polynomial._trusted(new_nvars,
                                   {m + pad: c for m, c in self.terms.items()})

    def substitute(self, images: "list[Polynomial]") -> "Polynomial":
        """Evaluate at variable images (all in one common target ring)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        tgt = images[0].nvars if images else self.nvars
        powers = [{0: Polynomial.one(tgt)} for _ in range(self.nvars)]
        out = {}  # one term map for the whole sum
        for m, c in self.terms.items():
            part = Polynomial.constant(tgt, c)
            for i, e in enumerate(m):
                if e:
                    cache = powers[i]  # holds the powers 0, 1, ..., len - 1
                    for k in range(len(cache), e + 1):
                        cache[k] = cache[k - 1] * images[i]
                    part = part * cache[e]
            _accumulate(out, part.terms)
        return Polynomial._trusted(tgt, out)

    def _check_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def render(self, names: "list[str] | None" = None) -> str:
        """Canonical string, parseable by the problem-file grammar.

        Coefficients are written exactly however long they are, but the
        grammar re-parses numerals of at most `cli.MAX_NUMERAL_DIGITS` digits.
        """
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.nvars)
        monos = sorted(
            self.terms, key=lambda m: (-mono_degree(m), tuple(-e for e in m))
        )
        pieces = []
        for k, m in enumerate(monos):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mag = abs(c)
            if not factors or mag != 1 or (k == 0 and c < 0):
                factors.insert(0, _numeral(mag))  # a leading "-x" would not re-parse
            body = "*".join(factors)
            if k == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.render()!r})"


def _numeral(c: "int | Fraction") -> str:
    """str(c) for c >= 0, also past the interpreter's limit on the digits
    that str() may write for an int (Python 3.11+): an int converts to a
    Decimal of exponent 0, which always prints in plain digits."""
    num = str(Decimal(c.numerator))
    return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def default_names(nvars: int) -> "list[str]":
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


class PolyMatrix(Record):
    """Row-major rectangular matrix of polynomials in a common ring."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if len({e.nvars for e in entries}) > 1:
            raise ValueError("entries live in different rings")
        self.__dict__["entries"] = entries

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]


def jacobian(fs, nvars: int) -> PolyMatrix:
    """Matrix of partials d f_i / d z_j, len(fs) rows by nvars columns."""
    fs = list(fs)
    entries = []
    for f in fs:
        if f.nvars != nvars:
            raise ValueError("polynomial in the wrong ring")
        for j in range(nvars):
            entries.append(f.diff(j))
    return PolyMatrix(rows=len(fs), cols=nvars, entries=entries)


def minor_det(matrix: PolyMatrix, rows, cols) -> Polynomial:
    """Determinant of the submatrix selected by equal-length index lists,
    taken in selection order; an empty selection gives 1.

    A Laplace expansion down the selected rows, with no division: after t
    rows, dets[S] is the t-row minor on the set S of column positions, a
    bit mask. The next row's entry at position j adds a_j * dets[S] to the
    minor on S + {j}, negated when an odd number of positions in S lie
    past j.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ValueError("row and column selections differ in length")
    for r in rows:
        if not 0 <= r < matrix.rows:
            raise IndexError(f"row index {r} out of range")
    for c in cols:
        if not 0 <= c < matrix.cols:
            raise IndexError(f"column index {c} out of range")
    nvars = matrix.entries[0].nvars if matrix.entries else 1
    if not rows:
        return Polynomial.one(nvars)
    first = matrix.row(rows[0])
    dets = {1 << j: first[c] for j, c in enumerate(cols)}
    for r in rows[1:]:
        row = matrix.row(r)
        entries = [(j, 1 << j, row[c]) for j, c in enumerate(cols) if row[c]]
        grown = {}
        for S, d in dets.items():
            for j, bit, a in entries:
                if S & bit:
                    continue
                key = S | bit
                prev = grown.get(key)
                if (S >> j).bit_count() & 1:  # bit j of S is clear
                    grown[key] = -(a * d) if prev is None else prev - a * d
                else:
                    grown[key] = a * d if prev is None else prev + a * d
        dets = grown
    return dets.get((1 << len(cols)) - 1, Polynomial.zero(nvars))


def permutation_of(A) -> "tuple | None":
    """The s with A[i][s[i]] = 1 and every other entry 0, or None."""
    s = tuple(j for row in A for j, a in enumerate(row) if a)
    ok = sorted(s) == list(range(len(A))) and all(r[j] == 1 for r, j in zip(A, s))
    return s if ok else None


class LinearChange:
    """The coordinate change z = A y, checked and inverted once for all its uses.

    A permutation matrix (z_i = y_s(i)) only moves exponents and field
    components. Any other A must be nonsingular; it is inverted once.
    """

    def __init__(self, A):
        A = [[coefficient(x) for x in row] for row in A]
        n = self.nvars = len(A)
        if any(len(row) != n for row in A):
            raise ValueError("substitution matrix has the wrong shape")
        self.perm = permutation_of(A)
        if self.perm is None:
            self.inverse = _linalg.inverse(A)  # raises on singular A
            self.images = [sum((Polynomial.variable(n, j).scale(c)
                                for j, c in enumerate(row) if c), Polynomial.zero(n))
                           for row in A]
        else:  # exponent k of an image is exponent source[k] of its preimage
            self.source = sorted(range(n), key=self.perm.__getitem__)

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.nvars))

    def polynomial(self, p: Polynomial) -> Polynomial:
        """p(A . y), with its terms in the order of p's."""
        if p.nvars != self.nvars:
            raise ValueError("substitution matrix has the wrong shape")
        if self.perm is None:
            return p.substitute(self.images)
        return Polynomial._trusted(p.nvars, {tuple(map(m.__getitem__, self.source)): c
                                             for m, c in p.terms.items()})

    def vector_field(self, X) -> "list[Polynomial]":
        """A^{-1} (X o A), entrywise canonical."""
        if self.perm is not None:
            return [self.polynomial(X[i]) for i in self.source]
        pulled = [self.polynomial(comp) for comp in X]
        return [sum((comp.scale(a) for a, comp in zip(row, pulled) if a),
                    Polynomial.zero(self.nvars)) for row in self.inverse]


def as_linear_change(A) -> LinearChange:
    """A itself if it is a LinearChange, else the LinearChange of the matrix A."""
    return A if isinstance(A, LinearChange) else LinearChange(A)


def linear_substitute(p: Polynomial, A) -> Polynomial:
    """p(A . y) for a square matrix A or a LinearChange built from one."""
    return as_linear_change(A).polynomial(p)


def transform_vector_field(X, A) -> "list[Polynomial]":
    """The field X in coordinates y, where z = A . y: A^{-1} (X o A).

    A is a square matrix or a LinearChange built from one.
    """
    X = list(X)
    if len(X) != X[0].nvars:
        raise ValueError("need one component per variable")
    return as_linear_change(A).vector_field(X)
