"""Standard bases in the local ring at the origin, for polynomial generators.

Local orders make 1 the largest monomial, so ordinary division loops need
not terminate; the weak normal form here follows Mora's tangent-cone
algorithm: when a reduction would raise the ecart, the current working
polynomial itself joins the reducer set, which folds a unit multiplier
into the division and restores termination. The completion skips an
S-pair by Buchberger's two criteria: the product criterion (coprime
leading monomials) and the chain criterion (a third candidate's leading
monomial divides the lcm and both of its pairs with the two have been
treated). Their proofs rest on syzygies of leading terms alone, so both
hold in local orders too (Buchberger, EUROSAM 1979; Gebauer, Moller,
J. Symb. Comput. 6, 1988; Greuel-Pfister, A Singular Introduction to
Commutative Algebra, ch. 1).

A basis built for membership (certify=True, the default) is certified: a
basis element b_i comes with a row (denominator_i, coefficients) satisfying

    denominator_i * b_i == sum_j coefficients[j] * generators[j]

exactly, with denominator_i(0) != 0, and membership witnesses have the
same shape. Both are folded in the completion's integer term maps and
decoded into Polynomials once. Witness identities are re-verified before
being returned.
A basis built only for its quotient (certify=False) skips that bookkeeping
and carries no lifts; the basis itself is the same, because the
certificates never steer a reduction. standard_basis does not re-verify
lifts itself, so skipping them loses no check; an algebra built on such a
basis is certified by CanonicalQuotient, which checks that every generator
gets zero coordinates.

The same basis gives exact coordinates when the quotient is finite. If the
staircase has top degree delta, every monomial of degree delta+1 lies in
the localized ideal (the highest corner), so CanonicalQuotient divides in
the local order and drops every term of degree above delta. That division
terminates, needs no unit denominators, and its remainder is the unique
staircase representative of the class.

Polynomial, with canonical coefficients (ints where integral, Fractions
elsewhere; see poly), is the type at the boundary, and the completion,
weak-normal-form and coordinate loops run in Python ints. Coefficients
handed back are exact quotients of those ints: an int where the division
is exact, a Fraction only where it is not.
A polynomial there is a primitive integer term map (monomial -> int, the
gcd of the coefficients 1), a nonzero rational multiple of the polynomial
that the same loop over the rationals would hold. A reduction step
h <- a*h - b*x^m*g with a = lc(g)/q, b = lc(h)/q, q = gcd(lc(h), lc(g)) is
a times the rational step h <- h - (lc(h)/lc(g)) x^m g, and removing the
content divides by a rational again. Multiples have the same leading
monomial and ecart, so every reducer choice, every addition to Mora's set
T and the degree-cap check are those of the rational loop, and the
monic basis, lifts and witnesses handed back are identical to it. No
coefficient gcd is paid per term, only one content per step (primitive
fraction-free reduction, as in the row steps of _linalg; Geddes, Czapor,
Labahn, Algorithms for Computer Algebra, ch. 9).

Those term maps are keyed by packed monomials, one int each (Monagan,
Pearce, CASC 2007). LocalOrder.key gives the code, -(d B^n + sum e_i B^i)
in negdegrevlex and -d B^n + sum e_i B^(n-1-i) in negdeglex for x^e of
degree d in n variables, B = 2^WIDTH: comparing codes as ints is the order,
the code of a product is the sum and that of 1 is 0, so lm(h) is max(h),
the term of highest degree min(h), and x^m g adds m to every key of g.
a | b exactly when no field's top (guard) bit is set in the difference of
the exponent parts, which holds while degrees stay below DEGREE_LIMIT =
2^(WIDTH-1); encoding, decoding and each _weak_nf step raise
DegreeCapExceededError at or past it. Maps are encoded on entry and decoded
into Polynomials; S-pair lcms use decoded monomials.

CanonicalQuotient's truncated division is keyed by the same codes. A
polynomial's terms above delta are dropped before they are encoded, so a
term past DEGREE_LIMIT lies in the ideal and does not raise there.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd, prod
from operator import mul

from ._linalg import common_denominator, integer_row, reduced
from ._record import Record
from .errors import (CertificateError, DegreeCapExceededError,
                     InfiniteDimensionError)
from .poly import (
    Monomial,
    Polynomial,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    quotient,
)

INFINITE = float("inf")

DEGREE_CAP_FLOOR = 64

WIDTH = 32  # bits per exponent field of a packed monomial
FIELD = (1 << WIDTH) - 1
DEGREE_LIMIT = 1 << (WIDTH - 1)  # the guard bit of a field


class LocalOrder(Record):
    """A monomial order in which 1 is the largest monomial; key is its code."""

    kind: str  # "negdegrevlex" | "negdeglex"
    nvars: int

    def __post_init__(self):
        if self.kind not in ("negdegrevlex", "negdeglex"):
            raise ValueError(f"unknown local order {self.kind!r}")
        n, lex = self.nvars, self.kind == "negdeglex"
        shifts = [WIDTH * (n - 1 - i if lex else i) for i in range(n)]
        sign, top = (1 if lex else -1), WIDTH * n
        # sign * code is the exponent part mod B^n; offset absorbs it when the
        # degree is read; codes <= floor have degree DEGREE_LIMIT or more
        offset = (1 << top) - 1 if lex else 0
        self.__dict__.update(
            _shifts=shifts, _top=top, _sign=sign, _offset=offset,
            _weights=[(sign << s) - (1 << top) for s in shifts],
            _floor=offset - (DEGREE_LIMIT << top),
            _guards=sum([DEGREE_LIMIT << s for s in shifts]))

    def key(self, mono: Monomial) -> int:
        """The code of mono: larger code = larger monomial (so 1 is maximal)."""
        code = sum(map(mul, mono, self._weights))
        if code <= self._floor:
            raise _past_limit(sum(mono))
        return code

    def decode(self, code: int) -> Monomial:
        if code <= self._floor:
            raise _past_limit(self.degree(code))
        return tuple([(self._sign * code >> s) & FIELD for s in self._shifts])

    def degree(self, code: int) -> int:
        return (self._offset - code) >> self._top

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial of code a divides that of code b."""
        return not (self._sign * (b - a)) & self._guards

    def leading_monomial(self, p: Polynomial) -> Monomial:
        return max(p.terms, key=self.key)

    def sort_descending(self, monos):
        return sorted(monos, key=self.key, reverse=True)


def _past_limit(degree):
    return DegreeCapExceededError(f"monomial degree {degree} reaches the "
                                  f"packed-exponent limit 2^{WIDTH - 1}")


def negdegrevlex(nvars: int) -> LocalOrder:
    return LocalOrder(kind="negdegrevlex", nvars=nvars)


def negdeglex(nvars: int) -> LocalOrder:
    return LocalOrder(kind="negdeglex", nvars=nvars)


def _integer_terms(terms, order):
    """(ints, num, den): ints = terms * num / den, primitive, keyed by codes."""
    den = common_denominator(terms.values())
    ints = integer_row(terms.values(), den)
    g = gcd(*ints) or 1
    keys = map(order.key, terms)
    return {m: c // g for m, c in zip(keys, ints)}, den, g


def _rational_terms(order, ints, num, den):
    """The Polynomial ints * num / den."""
    return Polynomial._trusted(order.nvars, {
        order.decode(m): quotient(c * num, den) for m, c in ints.items()})


def _combine(h, a, b, m, g):
    """a*h - b*x^m*g on integer term maps, a new map."""
    out = dict(h) if a == 1 else {k: a * c for k, c in h.items()}
    for k, gc in g.items():
        k += m
        c = out.get(k, 0) - b * gc
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _scaled(h, a):
    return h if a == 1 else {k: a * c for k, c in h.items()}


def _product(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _content(g, maps):
    """gcd of g and every coefficient in maps, stopping early at 1."""
    for terms in maps:
        for c in terms.values():
            if g == 1:
                return 1
            g = gcd(g, c)
    return g


class _Reducer:
    """Entry of the Mora reducer set T with its division certificate.

    poly, den and vec are integer term maps and lm a code; see _weak_nf.
    """

    __slots__ = ("poly", "lm", "lc", "ecart", "gen_index", "den", "vec")

    def __init__(self, poly, lm, ecart, gen_index=None, den=None, vec=None):
        self.poly = poly
        self.lm = lm
        self.lc = poly[lm]
        self.ecart = ecart
        self.gen_index = gen_index  # index into the fixed reducer list, or None
        self.den = den  # for intermediates: den*p = sum(vec_i R_i) + poly
        self.vec = vec


def _generator(poly, order, gen_index):
    lm = max(poly)
    return _Reducer(poly, lm, order.degree(min(poly)) - order.degree(lm),
                    gen_index)


def _weak_nf(h, T, order, certify):
    """Mora's weak normal form on integer term maps.

    h is the input p, nonzero. T starts with the fixed reducers R_i
    (gen_index = i) and gains the working polynomials that Mora's rule adds.
    Returns (h, den, vec, num, dnm) with

        den*p == sum_i vec[i]*R_i + h

    in integer term maps, and (h, den, vec) equal to num/dnm times what the
    same loop over the rationals returns for p and the R_i. Each step
    h <- a*h - b*x^m*g (module docstring) multiplies that scalar by a, and
    dividing out the content divides it by the content. With certify, den
    and vec take the same row operations and the content is taken over h,
    den and vec together, so the identity survives; otherwise den and vec
    are None and h is kept primitive.
    """
    den = vec = None
    if certify:
        den = {0: 1}
        vec = [{}] * sum(t.gen_index is not None for t in T)
    num = dnm = 1
    degree, sign, guards = order.degree, order._sign, order._guards
    while h:
        lm_h, top = max(h), degree(min(h))
        if top >= DEGREE_LIMIT:
            raise _past_limit(top)
        # order.divides(t.lm, lm_h), inlined
        candidates = [t for t in T if not (sign * (lm_h - t.lm)) & guards]
        if not candidates:
            break
        g = min(candidates, key=lambda t: t.ecart)
        e_h = top - degree(lm_h)
        if g.ecart > e_h:
            T.append(_Reducer(h, lm_h, e_h, den=den,
                              vec=list(vec) if certify else None))
        q = gcd(h[lm_h], g.lc)
        a, b = g.lc // q, h[lm_h] // q
        if a < 0:
            a, b = -a, -b
        m = lm_h - g.lm
        h = _combine(h, a, b, m, g.poly)
        num *= a
        if certify:
            if g.gen_index is not None:
                den = _scaled(den, a)
                vec = [_scaled(v, a) for v in vec]
                vec[g.gen_index] = _combine(vec[g.gen_index], 1, -b, m, {0: 1})
            else:
                den = _combine(den, a, b, m, g.den)
                vec = [_combine(v, a, b, m, gv) for v, gv in zip(vec, g.vec)]
        c = _content(0, [h])
        if certify and c != 1:
            c = _content(c, [den, *vec])
        if c > 1:
            h = {k: v // c for k, v in h.items()}
            if certify:
                den = {k: v // c for k, v in den.items()}
                vec = [{k: x // c for k, x in v.items()} for v in vec]
            dnm *= c
    if certify and not den.get(0):
        raise CertificateError("Mora certificate lost its unit denominator")
    return h, den, vec, num, dnm


def _fold_lifts(u, certs, ngens):
    """Rewrite a combination of basis candidates over the generators.

    u[k] and the certs[k] = (den_k, coeffs_k, tau_k) are integer term maps,
    den_k * b_k == sum_j coeffs_k[j] * gens[j] for the monic candidate b_k.
    Returns (P, coeffs) with P the product of the den_k over the support of
    u and P * sum_k u[k] b_k == sum_j coeffs[j] * gens[j].
    """
    support = [k for k, uk in enumerate(u) if uk]
    prefix = [{0: 1}]  # prefix[t]: product of the first t units
    for k in support:
        prefix.append(_product(prefix[-1], certs[k][0]))
    coeffs = [{}] * ngens
    suffix = {0: 1}  # product of the units after the current one
    for pos in reversed(range(len(support))):
        k = support[pos]
        factor = _product(u[k], _product(prefix[pos], suffix))
        for j, w in enumerate(certs[k][1]):
            if w:
                coeffs[j] = _combine(coeffs[j], 1, -1, 0, _product(factor, w))
        suffix = _product(suffix, certs[k][0])
    return prefix[-1], coeffs


def _fold_certificate(lc_h, den, vec, s_terms, G, certs):
    """Certificate of a new candidate h over the generators.

    den*s == sum_k vec[k]*G_k + h for s = sum of a x^m G_k over s_terms,
    the (k, a, m) of the S-polynomial, so h = sum_k u_k G_k. G_k is lc_k
    times its monic candidate, whose certificate folds it over the
    generators. Returns (den, coeffs, tau) as in standard_basis: tau =
    lc(h) times the tau_k of the support, with the joint content divided
    out, turns it into the lift of the monic h.
    """
    u = [{m: -c for m, c in v.items()} for v in vec]
    for k, a, m in s_terms:
        u[k] = _combine(u[k], 1, -a, m, den)
    u = [_scaled(uk, G[k].lc) for k, uk in enumerate(u)]
    total, coeffs = _fold_lifts(u, certs, len(certs[0][1]))
    den_h = _scaled(total, lc_h)
    tau = lc_h * prod(certs[k][2] for k, uk in enumerate(u) if uk)
    c = _content(tau, [den_h, *coeffs])
    if c > 1:
        den_h = {m: v // c for m, v in den_h.items()}
        coeffs = [{m: v // c for m, v in w.items()} for w in coeffs]
        tau //= c
    return den_h, coeffs, tau


class StandardBasis(Record, hidden=("_reducers", "_certs")):
    """Standard basis of a localized polynomial ideal, with lift witnesses.

    _reducers (the kept candidates as _Reducers) and, when certified, _certs
    (their integer certificates (den, coeffs, tau), as in standard_basis)
    are the completion's integer forms, which membership divides and folds
    on. They take no part in equality or hashing.

    lift[i] = (denominator, coefficients) certifies
    denominator * basis[i] == sum_j coefficients[j] * generators[j]; it is
    decoded on first read, and is None for a basis built with certify=False.
    """

    order: LocalOrder
    generators: tuple
    basis: tuple
    _reducers: tuple
    _certs: "tuple | None" = None

    @cached_property
    def leading_monomials(self):
        return tuple(self.order.decode(r.lm) for r in self._reducers)

    @cached_property
    def lift(self):
        if self._certs is None:
            return None
        return tuple((_rational_terms(self.order, den, 1, tau),
                      tuple(_rational_terms(self.order, c, 1, tau)
                            for c in coeffs))
                     for den, coeffs, tau in self._certs)

    @cached_property
    def quotient(self):
        """(staircase, its CanonicalQuotient or None when infinite), built once."""
        stairs = staircase(self)
        return stairs, CanonicalQuotient(self, stairs) if stairs.finite else None


class Staircase(Record):
    """Monomials outside the leading ideal of a standard basis."""

    leading_monomials: tuple
    basis_monomials: "tuple | None"  # None when infinite
    finite: bool

    @property
    def dimension(self):
        return len(self.basis_monomials) if self.finite else INFINITE


class MembershipWitness(Record):
    """denominator * p == sum_j coefficients[j] * generators[j], unit denominator."""

    denominator: Polynomial
    coefficients: tuple


def standard_basis(gens, order: "LocalOrder | None" = None,
                   degree_cap: "int | None" = None, *,
                   certify: bool = True) -> StandardBasis:
    """Complete `gens` to a standard basis with Mora normal forms.

    Deterministic for a fixed input and order. Raises DegreeCapExceededError
    if completion produces a leading monomial beyond `degree_cap`. The
    default cap is the product of the nvars largest generator degrees, or
    DEGREE_CAP_FLOOR if that is larger: for n generators in n variables the
    product is Bezout's bound on the colength, which exceeds the staircase's
    top degree. Reaching the cap is a limit, not a verdict on the quotient.

    With certify true every basis element carries its lift over the
    generators (membership_by_basis needs them). With certify false no lift
    bookkeeping is done and `lift` is None; basis, leading monomials and
    staircase are the same. Quotient-algebra builds use that form.

    Both forms run one loop in Python ints (module docstring). Generators
    are scaled to primitive integer term maps once; a candidate pair gives
    lc_j x^mi G_i - lc_i x^mj G_j over gcd(lc_i, lc_j), a multiple of the
    S-polynomial of the monic candidates, and _weak_nf reduces it. Pairs
    are taken by the degree of their lcm. One is dropped, before any
    reduction, by the product criterion (lcm(lm_i, lm_j) = lm_i lm_j) or
    by Buchberger's chain criterion: some other candidate k has lm_k |
    lcm(lm_i, lm_j) and the pairs {i, k} and {j, k} have both been taken
    already (reduced or dropped), so the S-polynomial of {i, j} is a
    combination of theirs with smaller terms (Gebauer, Moller, J. Symb.
    Comput. 6, 1988; Greuel-Pfister, ch. 1). The leading ideal, hence the
    staircase, is that of the completion that drops no pair. Lifts
    are kept as integer maps with one integer scale each. The basis is
    turned into Polynomials once, at the end, and the lifts when `lift` is
    first read; both equal the monic basis and the lifts of the same loop
    over the rationals.
    """
    gens = tuple(gens)
    nonzero = [(j, g) for j, g in enumerate(gens) if not g.is_zero]
    if not nonzero:
        raise ValueError("generators must not all be zero")
    n = nonzero[0][1].nvars
    if order is None:
        order = negdegrevlex(n)
    if degree_cap is None:
        degrees = sorted((g.total_degree() for _, g in nonzero), reverse=True)
        degree_cap = max(DEGREE_CAP_FLOOR, prod(degrees[:n]))

    G = []  # basis candidates as _Reducers on primitive integer term maps
    lms = []  # their leading monomials, decoded
    # certs[k] = (den, coeffs, tau): integer term maps with
    # den * G_k == sum_j coeffs[j] * gens[j] for G_k the monic candidate,
    # tau times its rational lift (den/tau, coeffs/tau)
    certs = []
    heap = []  # (degree of the lcm, t, k) for the pairs t < k

    def append(poly):
        k = len(G)
        G.append(_generator(poly, order, k))
        lms.append(order.decode(G[k].lm))
        for t in range(k):
            heapq.heappush(heap, (mono_degree(mono_lcm(lms[t], lms[k])), t, k))

    for j, g in nonzero:
        append(_integer_terms(g.terms, order)[0])
        if certify:
            lc = g.terms[lms[-1]]
            coeffs = [{}] * len(gens)
            coeffs[j] = {0: lc.denominator}
            certs.append(({0: lc.numerator}, coeffs, lc.numerator))
    # popped pairs, both ways round; (k, k) is never in it, so k = i and
    # k = j never pass the chain test
    treated = set()
    while heap:
        _, i, j = heapq.heappop(heap)
        treated.update(((i, j), (j, i)))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # product criterion
        lcm = order.key(lcm)
        if any((i, k) in treated and (j, k) in treated
               and order.divides(G[k].lm, lcm) for k in range(len(G))):
            continue  # chain criterion
        mi, mj = lcm - G[i].lm, lcm - G[j].lm
        # s = lc_j x^mi G_i - lc_i x^mj G_j, over gcd(lc_i, lc_j): a
        # multiple of the S-polynomial of the monic candidates
        q = gcd(G[i].lc, G[j].lc)
        al, be = G[j].lc // q, G[i].lc // q
        s = _combine(_combine({}, 1, -al, mi, G[i].poly), 1, be, mj, G[j].poly)
        if not s:
            continue
        h, den, vec, _, _ = _weak_nf(s, list(G), order, certify)
        if not h:
            continue
        lm = max(h)
        if order.degree(lm) > degree_cap:
            raise DegreeCapExceededError(
                f"standard-basis completion passed degree cap {degree_cap}; "
                "raise the cap if the ideal is expected to be this deep"
            )
        if certify:
            certs.append(_fold_certificate(
                h[lm], den, vec, ((i, al, mi), (j, -be, mj)), G, certs))
        c = _content(0, [h])
        append({k: v // c for k, v in h.items()})

    # minimal basis: drop elements with divisible leading monomials
    keep = [i for i, g in enumerate(G)
            if not any(j != i and order.divides(h.lm, g.lm)
                       and (h.lm != g.lm or j < i) for j, h in enumerate(G))]
    reducers = tuple(_generator(G[k].poly, order, i) for i, k in enumerate(keep))
    basis = tuple(_rational_terms(order, r.poly, 1, r.lc) for r in reducers)
    return StandardBasis(
        order=order, generators=gens, basis=basis, _reducers=reducers,
        _certs=tuple(map(certs.__getitem__, keep)) if certify else None)


def staircase_monomials(lms, nvars):
    """Monomials below the staircase of the leading ideal, or None if infinite.

    Walks the order ideal up from 1: a monomial below the staircase is
    reached once, from its quotient by the last variable it involves.
    """
    if len({i for m in lms for i in range(nvars) if m[i] == sum(m)}) < nvars:
        return None  # some variable has no pure power in the leading ideal
    out = []
    todo = [((0,) * nvars, 0)]  # (monomial, first variable it may be raised in)
    while todo:
        m, first = todo.pop()
        if any(mono_divides(lm, m) for lm in lms):
            continue
        out.append(m)
        todo.extend((m[:k] + (m[k] + 1,) + m[k + 1:], k)
                    for k in range(first, nvars))
    return out


def staircase(sb: StandardBasis) -> Staircase:
    lms = sb.leading_monomials
    nvars = sb.basis[0].nvars
    monos = staircase_monomials(lms, nvars)
    if monos is None:
        return Staircase(leading_monomials=lms, basis_monomials=None,
                         finite=False)
    ordered = tuple(sb.order.sort_descending(monos))
    return Staircase(leading_monomials=lms, basis_monomials=ordered,
                     finite=True)


def quotient_dimension(gens, order: "LocalOrder | None" = None,
                       degree_cap: "int | None" = None):
    """Number of staircase monomials, or INFINITE."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return INFINITE
    return staircase(standard_basis(gens, order, degree_cap,
                                    certify=False)).dimension


def ideal_membership(p: Polynomial, gens, order: "LocalOrder | None" = None):
    """Decide p in (gens) localized at the origin; exact witness when true.

    Returns (bool, MembershipWitness | None). The witness identity
    denominator*p == sum coeff_j*gen_j is re-verified before returning.
    """
    sb = None if p.is_zero else standard_basis(gens, order)
    return membership_by_basis(p, sb, gens)


def membership_by_basis(p: Polynomial, sb: "StandardBasis | None", gens):
    """ideal_membership of p in (gens), given sb, a standard basis of (gens).

    One basis built by the caller serves many tests; sb is not read (and may
    be None) when p is zero. The witness is re-verified as in ideal_membership.
    Raises ValueError when sb carries no lifts (built with certify=False), or
    is None and p is nonzero.

    The division runs in _weak_nf on p_int = k*p (k = kn/kd, as
    _integer_terms gives it) and on sb's reducers R_i = lc_i*b_i, b_i the
    monic basis. With h = 0 it gives den*p_int == sum_i u_i*b_i, u_i =
    vec_i*lc_i, with den s = num/dnm times the rational loop's, and
    _fold_lifts turns that over the certificates into P*den*p_int == sum_j
    C_j*gens[j]. With the lifts den_i/tau_i, the rational witness is
    (den*P/(s*T), C_j/(s*k*T)), T the product of the tau_i over the support
    of u; it is decoded once.
    """
    if sb is not None and sb._certs is None:
        raise ValueError("membership needs a standard basis built with lifts "
                         "(certify=True)")
    gens = tuple(gens)
    if p.is_zero:
        n = p.nvars
        return True, MembershipWitness(
            denominator=Polynomial.one(n),
            coefficients=tuple(Polynomial.zero(n) for _ in gens))
    if sb is None:
        raise ValueError("membership of a nonzero polynomial needs its "
                         "standard basis")
    order, reducers, certs = sb.order, sb._reducers, sb._certs
    h0, kn, kd = _integer_terms(p.terms, order)
    h, den, vec, num, dnm = _weak_nf(h0, list(reducers), order, True)
    if h:
        return False, None
    u = [_scaled(v, r.lc) for v, r in zip(vec, reducers)]
    total, coeffs = _fold_lifts(u, certs, len(sb.generators))
    scale = num * prod(certs[i][2] for i, ui in enumerate(u) if ui)
    witness = MembershipWitness(
        denominator=_rational_terms(order, _product(den, total), dnm, scale),
        coefficients=tuple(_rational_terms(order, c, dnm * kd, scale * kn)
                           for c in coeffs))
    lhs = witness.denominator * p
    rhs = Polynomial.zero(p.nvars)
    for c, g in zip(witness.coefficients, gens):
        rhs = rhs + c * g
    if lhs != rhs or witness.denominator.constant_term == 0:
        raise CertificateError("membership witness failed re-verification")
    return True, witness


def normal_form(p: Polynomial, sb: StandardBasis) -> Polynomial:
    """The canonical staircase representative of the class of p in the
    finite-dimensional localized quotient: no term is divisible by a basis
    leading monomial, and it is 0 exactly when p lies in the localized
    ideal. Raises InfiniteDimensionError when the quotient is infinite.
    """
    st, canonical = sb.quotient
    if canonical is None:
        raise InfiniteDimensionError("quotient is not finite dimensional")
    ints, den = canonical.integer_coordinates(p)
    return Polynomial._trusted(p.nvars, {
        m: quotient(c, den) for c, m in zip(ints, st.basis_monomials) if c})


class CanonicalQuotient:
    """Exact coordinates in a finite-dimensional localized quotient.

    Truncated local division (see the module docstring): a leading-ideal
    monomial is rewritten by the first basis element whose leading monomial
    divides it, and every term above delta, the top staircase degree, is
    dropped because m^(delta+1) lies in the localized ideal (Greuel-Pfister,
    A Singular Introduction to Commutative Algebra, 1.6-1.7). Construction
    checks that every generator gets zero coordinates.

    The staircase index, the reducers, the rewrites and the work heap are
    keyed by LocalOrder codes. Each reducer is kept as a primitive integer
    (lm, lc, tail), truncated at delta. The rewrite of a monomial m shifts
    a tail by m - lm, drops the terms past delta and is made on first use,
    so only the staircase and the rewrites the division reaches are keyed.
    integer_coordinates divides on integer numerators over one common
    denominator D: rewriting a term c by a reducer first multiplies D and
    every pending numerator by a = lc/gcd(c, lc), so the step stays
    integral. Terms are taken largest first (the heap holds -code) and a
    rewrite only adds smaller monomials, so a staircase term is final when
    it is taken; it is emitted with the D of that moment and multiplied by
    every later a at the end.
    """

    def __init__(self, sb: StandardBasis, stairs: Staircase):
        self.order = order = sb.order
        self.index = {order.key(m): i
                      for i, m in enumerate(stairs.basis_monomials)}
        self.delta = max(map(mono_degree, stairs.basis_monomials), default=-1)
        self._reducers = []
        for b, lm in zip(sb.basis, sb.leading_monomials):
            kept = _integer_terms({m: c for m, c in b.terms.items()
                                   if m == lm or mono_degree(m) <= self.delta},
                                  order)[0]
            lm = order.key(lm)
            lc = kept.pop(lm)
            self._reducers.append((lm, lc, list(kept.items())))
        self._rewrites = {}  # code -> its rewrite, made on first use
        for g in sb.generators:
            if any(self.integer_coordinates(g)[0]):
                raise CertificateError(
                    "a generator has nonzero coordinates in its own quotient"
                )

    def integer_coordinates(self, p: Polynomial):
        """(ints, den): the coordinates of p are ints / den, with den > 0 and
        the gcd of den and ints 1."""
        # terms above degree delta lie in the ideal: dropped before encoding
        kept = {m: c for m, c in p.terms.items()
                if mono_degree(m) <= self.delta}
        den = common_denominator(kept.values())
        work = dict(zip(map(self.order.key, kept),
                        integer_row(kept.values(), den)))
        heap = [-m for m in work]
        heapq.heapify(heap)
        emitted = []  # (index, numerator, den when emitted)
        while heap:
            m = -heapq.heappop(heap)
            c = work.pop(m)
            if not c:
                continue
            i = self.index.get(m)
            if i is not None:
                emitted.append((i, c, den))
                continue
            lc, tail = self._rewrites.get(m) or self._rewrite(m)
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for m2 in work:
                    work[m2] *= a
                den *= a
            for m2, tc in tail:
                if m2 in work:
                    work[m2] -= b * tc
                else:
                    work[m2] = -b * tc
                    heapq.heappush(heap, -m2)
        out = [0] * len(self.index)
        for i, c, d in emitted:
            out[i] = c if d == den else c * (den // d)
        return reduced(out, den)

    def _rewrite(self, m):
        """(lc, tail) for the monomial of code m: the first reducer whose
        leading monomial divides m, shifted onto m, its tail as (code,
        coefficient) pairs with the terms above delta dropped."""
        divides, degree, delta = self.order.divides, self.order.degree, self.delta
        lm, lc, tail = next(red for red in self._reducers if divides(red[0], m))
        q = m - lm
        out = self._rewrites[m] = (lc, [(t + q, tc) for t, tc in tail
                                        if degree(t + q) <= delta])
        return out
