"""Standard bases in the local ring at the origin, for polynomial generators.

Local orders make 1 the largest monomial, so ordinary division loops need
not terminate; the weak normal form here follows Mora's tangent-cone
algorithm: when a reduction would raise the ecart, the current working
polynomial itself joins the reducer set, which folds a unit multiplier
into the division and restores termination.

A basis built for membership (certify=True, the default) is certified: a
basis element b_i comes with a row (denominator_i, coefficients) satisfying

    denominator_i * b_i == sum_j coefficients[j] * generators[j]

exactly, with denominator_i(0) != 0, and membership witnesses have the
same shape. Witness identities are re-verified before being returned.
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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import prod

from .errors import CertificateError, DegreeCapExceededError
from .poly import (
    Monomial,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)

INFINITE = float("inf")

DEGREE_CAP_FLOOR = 64


@dataclass(frozen=True)
class LocalOrder:
    """A monomial order in which 1 is the largest monomial."""

    kind: str  # "negdegrevlex" | "negdeglex"
    nvars: int

    def __post_init__(self):
        if self.kind not in ("negdegrevlex", "negdeglex"):
            raise ValueError(f"unknown local order {self.kind!r}")

    def key(self, mono: Monomial):
        """Sort key: larger key = larger monomial (so 1 is maximal)."""
        if self.kind == "negdegrevlex":
            return (-mono_degree(mono), tuple(-e for e in reversed(mono)))
        return (-mono_degree(mono), mono)

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def leading_monomial(self, p: Polynomial) -> Monomial:
        return max(p.terms, key=self.key)

    def sort_descending(self, monos):
        return sorted(monos, key=self.key, reverse=True)


def negdegrevlex(nvars: int) -> LocalOrder:
    return LocalOrder("negdegrevlex", nvars)


def negdeglex(nvars: int) -> LocalOrder:
    return LocalOrder("negdeglex", nvars)


def _ecart(p: Polynomial, lm: Monomial) -> int:
    return p.total_degree() - mono_degree(lm)


class _Reducer:
    """Entry of the Mora reducer set T with its division certificate."""

    __slots__ = ("poly", "lm", "lc", "ecart", "gen_index", "den", "vec")

    def __init__(self, poly, lm, lc, ecart, gen_index=None, den=None, vec=None):
        self.poly = poly
        self.lm = lm
        self.lc = lc
        self.ecart = ecart
        self.gen_index = gen_index  # index into the fixed reducer list, or None
        self.den = den  # for intermediates: den*p = sum(vec_i R_i) + poly
        self.vec = vec


def _mora_weak_nf(p: Polynomial, reducers, order: LocalOrder,
                  certify: bool = True):
    """Weak normal form with certificate.

    Returns (h, den, vec) with den*p == sum_i vec[i]*reducers[i] + h exactly,
    den(0) != 0, and the leading monomial of h (if any) not divisible by any
    reducer leading monomial. With certify false, den and vec are not
    tracked and come back as None; h is the same.
    """
    n = p.nvars
    T = []
    for i, g in enumerate(reducers):
        lm = order.leading_monomial(g)
        T.append(_Reducer(g, lm, g.terms[lm], _ecart(g, lm), gen_index=i))
    h = p
    den = vec = None
    if certify:
        den = Polynomial.one(n)
        vec = [Polynomial.zero(n)] * len(reducers)
    while not h.is_zero:
        lm_h = order.leading_monomial(h)
        candidates = [t for t in T if mono_divides(t.lm, lm_h)]
        if not candidates:
            break
        g = min(candidates, key=lambda t: t.ecart)
        e_h = _ecart(h, lm_h)
        if g.ecart > e_h:
            T.append(_Reducer(h, lm_h, h.terms[lm_h], e_h, den=den,
                              vec=list(vec) if certify else None))
        c = h.terms[lm_h] / g.lc
        m = mono_div(lm_h, g.lm)
        h = h - g.poly.mul_term(m, c)
        if not certify:
            continue
        if g.gen_index is not None:
            j = g.gen_index
            vec[j] = vec[j] + Polynomial.term(n, m, c)
        else:
            den = den - g.den.mul_term(m, c)
            vec = [v - gv.mul_term(m, c) for v, gv in zip(vec, g.vec)]
    if certify and den.constant_term == 0:
        raise CertificateError("Mora certificate lost its unit denominator")
    return h, den, vec


def _combine_units(dens):
    """Product of unit polynomials together with the partial cofactors.

    Returns (product, cofactors) with cofactors[i] = product of all dens
    except dens[i].
    """
    n = dens[0].nvars if dens else 0
    total = Polynomial.one(n)
    for d in dens:
        total = total * d
    cof = []
    for i in range(len(dens)):
        c = Polynomial.one(n)
        for j, d in enumerate(dens):
            if j != i:
                c = c * d
        cof.append(c)
    return total, cof


@dataclass(frozen=True)
class StandardBasis:
    """Standard basis of a localized polynomial ideal, with lift witnesses.

    lift[i] = (denominator, coefficients) certifies
    denominator * basis[i] == sum_j coefficients[j] * generators[j];
    lift is None for a basis built with certify=False.
    """

    order: LocalOrder
    generators: tuple
    basis: tuple
    lift: "tuple | None"

    @property
    def leading_monomials(self):
        return tuple(self.order.leading_monomial(b) for b in self.basis)

    @cached_property
    def quotient(self):
        """(staircase, its CanonicalQuotient or None when infinite), built once."""
        stairs = staircase(self)
        return stairs, CanonicalQuotient(self, stairs) if stairs.finite else None


@dataclass(frozen=True)
class Staircase:
    """Monomials outside the leading ideal of a standard basis."""

    leading_monomials: tuple
    basis_monomials: "tuple | None"  # None when infinite
    finite: bool

    @property
    def dimension(self):
        return len(self.basis_monomials) if self.finite else INFINITE


@dataclass(frozen=True)
class MembershipWitness:
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
    zero = Polynomial.zero(n)
    one = Polynomial.one(n)

    G = []  # monic basis candidates
    lms = []
    certs = []  # (den, coeff list over gens); empty when not certifying
    for j, g in nonzero:
        lm = order.leading_monomial(g)
        lc = g.terms[lm]
        G.append(g.scale(1 / lc))
        lms.append(lm)
        if certify:
            coeffs = [zero] * len(gens)
            coeffs[j] = Polynomial.constant(n, 1 / lc)
            certs.append((one, coeffs))

    heap = []
    for i in range(len(G)):
        for j in range(i):
            lcm = mono_lcm(lms[i], lms[j])
            heapq.heappush(heap, (mono_degree(lcm), j, i))
    while heap:
        _, i, j = heapq.heappop(heap)
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # product criterion
        mi, mj = mono_div(lcm, lms[i]), mono_div(lcm, lms[j])
        s = G[i].mul_term(mi, 1) - G[j].mul_term(mj, 1)
        if s.is_zero:
            continue
        h, den, vec = _mora_weak_nf(s, G, order, certify)
        if h.is_zero:
            continue
        lm = order.leading_monomial(h)
        if mono_degree(lm) > degree_cap:
            raise DegreeCapExceededError(
                f"standard-basis completion passed degree cap {degree_cap}; "
                "raise the cap if the ideal is expected to be this deep"
            )
        lc = h.terms[lm]
        G.append(h.scale(1 / lc))
        lms.append(lm)
        if certify:
            # h = den*s - sum_k vec[k]*G[k]; fold s = x^mi G[i] - x^mj G[j]
            u = [-v for v in vec]
            u[i] = u[i] + den.mul_term(mi, 1)
            u[j] = u[j] - den.mul_term(mj, 1)
            support = [k for k, uk in enumerate(u) if not uk.is_zero]
            total, cof = _combine_units([certs[k][0] for k in support])
            coeffs = [zero] * len(gens)
            for pos, k in enumerate(support):
                factor = u[k] * cof[pos]
                for jj, w in enumerate(certs[k][1]):
                    if not w.is_zero:
                        coeffs[jj] = coeffs[jj] + factor * w
            certs.append((total, [c.scale(1 / lc) for c in coeffs]))
        k = len(G) - 1
        for t in range(k):
            heapq.heappush(
                heap, (mono_degree(mono_lcm(lms[t], lm)), t, k)
            )

    # minimal basis: drop elements with divisible leading monomials
    keep = []
    for i, lm in enumerate(lms):
        dominated = False
        for j, other in enumerate(lms):
            if j != i and mono_divides(other, lm) and (other != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    basis = tuple(G[i] for i in keep)
    lift = (tuple((certs[i][0], tuple(certs[i][1])) for i in keep)
            if certify else None)
    return StandardBasis(order=order, generators=gens, basis=basis, lift=lift)


def staircase_monomials(lms, nvars):
    """Monomials below the staircase of the leading ideal, or None if infinite."""
    bounds = []
    for i in range(nvars):
        pure = [
            m[i]
            for m in lms
            if all(e == 0 for k, e in enumerate(m) if k != i)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    out = []

    def rec(prefix):
        if len(prefix) == nvars:
            m = tuple(prefix)
            if not any(mono_divides(lm, m) for lm in lms):
                out.append(m)
            return
        for e in range(bounds[len(prefix)]):
            rec(prefix + [e])

    rec([])
    return out


def staircase(sb: StandardBasis) -> Staircase:
    lms = sb.leading_monomials
    nvars = sb.basis[0].nvars
    monos = staircase_monomials(lms, nvars)
    if monos is None:
        return Staircase(lms, None, False)
    ordered = tuple(sb.order.sort_descending(monos))
    return Staircase(lms, ordered, True)


def quotient_dimension(gens, order: "LocalOrder | None" = None,
                       degree_cap: "int | None" = None):
    """Number of staircase monomials, or INFINITE."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return INFINITE
    sb = standard_basis(gens, order, degree_cap, certify=False)
    st = staircase(sb)
    return len(st.basis_monomials) if st.finite else INFINITE


def _witness_over_generators(sb: StandardBasis, den, vec):
    """Rewrite den*p = sum vec_i basis_i into a witness over sb.generators."""
    n = den.nvars
    support = [i for i, v in enumerate(vec) if not v.is_zero]
    total, cof = _combine_units([sb.lift[i][0] for i in support])
    coeffs = [Polynomial.zero(n)] * len(sb.generators)
    for pos, i in enumerate(support):
        factor = vec[i] * cof[pos]
        for j, w in enumerate(sb.lift[i][1]):
            if not w.is_zero:
                coeffs[j] = coeffs[j] + factor * w
    return MembershipWitness(denominator=den * total, coefficients=tuple(coeffs))


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
    Raises ValueError when sb carries no lifts (built with certify=False).
    """
    if sb is not None and sb.lift is None:
        raise ValueError("membership needs a standard basis built with lifts "
                         "(certify=True)")
    gens = tuple(gens)
    if p.is_zero:
        n = p.nvars
        return True, MembershipWitness(
            Polynomial.one(n), tuple(Polynomial.zero(n) for _ in gens)
        )
    h, den, vec = _mora_weak_nf(p, list(sb.basis), sb.order)
    if not h.is_zero:
        return False, None
    witness = _witness_over_generators(sb, den, vec)
    lhs = witness.denominator * p
    rhs = Polynomial.zero(p.nvars)
    for c, g in zip(witness.coefficients, gens):
        rhs = rhs + c * g
    if lhs != rhs or witness.denominator.constant_term == 0:
        raise CertificateError("membership witness failed re-verification")
    return True, witness


def normal_form(p: Polynomial, sb: StandardBasis) -> Polynomial:
    """Remainder with no term divisible by a basis leading monomial.

    For finite-dimensional quotients this is the canonical staircase
    representative of the class of p in the localized quotient; it is 0
    exactly when p lies in the localized ideal.
    """
    st, canonical = sb.quotient
    if canonical is not None:
        coords = canonical.coordinates(p)
        out = Polynomial.zero(p.nvars)
        for c, m in zip(coords, st.basis_monomials):
            if c:
                out = out + Polynomial.term(p.nvars, m, c)
        return out
    # positive-dimensional: Mora weak NF, then peel staircase leading terms
    result = Polynomial.zero(p.nvars)
    h = p
    while not h.is_zero:
        h, _, _ = _mora_weak_nf(h, list(sb.basis), sb.order, certify=False)
        if h.is_zero:
            break
        lm = sb.order.leading_monomial(h)
        lt = Polynomial.term(p.nvars, lm, h.terms[lm])
        result = result + lt
        h = h - lt
    return result


class CanonicalQuotient:
    """Exact coordinates in a finite-dimensional localized quotient.

    Truncated local division (see the module docstring): a leading-ideal
    monomial is rewritten by the first basis element whose leading monomial
    divides it, and every term above delta, the top staircase degree, is
    dropped because m^(delta+1) lies in the localized ideal (Greuel-Pfister,
    A Singular Introduction to Commutative Algebra, 1.6-1.7). Construction
    checks that every generator gets zero coordinates.
    """

    def __init__(self, sb: StandardBasis, stairs: Staircase):
        self.index = {m: i for i, m in enumerate(stairs.basis_monomials)}
        self.delta = max(map(mono_degree, stairs.basis_monomials), default=-1)
        nvars = sb.basis[0].nvars
        # every monomial of degree <= delta, ranked from largest to smallest
        self._monos = sb.order.sort_descending(
            m for e in range(self.delta + 1) for m in monomials_of_degree(nvars, e)
        )
        self._rank = {m: r for r, m in enumerate(self._monos)}
        self._reducers = []
        for b, lm in zip(sb.basis, sb.leading_monomials):
            tail = [(m, c) for m, c in b.terms.items()
                    if m != lm and mono_degree(m) <= self.delta]
            self._reducers.append((lm, b.terms[lm], tail))
        for g in sb.generators:
            if any(self.coordinates(g)):
                raise CertificateError(
                    "a generator has nonzero coordinates in its own quotient"
                )

    def coordinates(self, p: Polynomial):
        """Coordinates of the class of p in the local staircase basis."""
        rank, work = self._rank, {}
        for m, c in p.terms.items():
            r = rank.get(m)  # None above degree delta: such terms are in I
            if r is not None:
                work[r] = c
        heap = list(work)
        heapq.heapify(heap)
        out = [Fraction(0)] * len(self.index)
        while heap:
            r = heapq.heappop(heap)
            c = work.pop(r)
            if not c:
                continue
            m = self._monos[r]
            i = self.index.get(m)
            if i is not None:
                out[i] = c
                continue
            lm, lc, tail = next(
                red for red in self._reducers if mono_divides(red[0], m)
            )
            q, f = mono_div(m, lm), c / lc
            for tm, tc in tail:
                r2 = rank.get(mono_mul(q, tm))
                if r2 is None:
                    continue
                if r2 in work:
                    work[r2] -= f * tc
                else:
                    work[r2] = -f * tc
                    heapq.heappush(heap, r2)
        return out
